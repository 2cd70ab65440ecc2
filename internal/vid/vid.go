// Package vid implements the paper's primary contribution: the new
// implementation-oblivious virtual-id architecture for MPI objects
// (Section 4).
//
// A virtual id (VID) is a 32-bit integer that MANA hands to the
// application in place of the physical MPI handle. It indexes a single
// table of MANA-internal Entry structs covering all five MPI object
// kinds — communicator, group, request, operation, datatype — instead of
// the legacy design's per-kind string-selected maps. Each Entry carries:
//
//   - the current physical handle in the lower-half library (rebound
//     after restart),
//   - the ggid ("global group id") for communicators and groups,
//   - the reconstruction descriptor: either a record-replay recipe or a
//     marker that the object is rebuilt from lower-half decode functions
//     (MPI_Type_get_envelope / MPI_Type_get_contents), the two
//     strategies anticipated by the paper's novelty point 4,
//   - MANA-internal bookkeeping (creation sequence, reference state).
//
// Both translation directions are O(1): virtual→real is an array index,
// real→virtual is a hash lookup — fixing the legacy design's O(n) scan
// (Section 4.1, problem 5).
//
// VID bit layout:
//
//	bits 31..29  kind (3 bits: the five kinds plus null)
//	bits 28..24  generation (5 bits, detects stale ids after reuse)
//	bits 23..0   index into the entry table
//
// The VID is embedded in the first 32 bits of whatever MPI object type
// the target mpi.h declares (Section 1.2, novelty 2): for the MPICH
// family's 32-bit ids the handle *is* the VID; for pointer-width types
// the upper 32 bits carry a MANA magic marker.
package vid

import (
	"fmt"

	"manasim/internal/mpi"
)

// VID is a MANA virtual id.
type VID uint32

// VIDNull is the null virtual id.
const VIDNull VID = 0

// Bit layout constants.
const (
	kindShift = 29
	genShift  = 24
	genMask   = 0x1F
	idxMask   = 0x00FF_FFFF

	// MaxEntries is the capacity of one table (24-bit index). Index 0 is
	// reserved so that VIDNull is never a valid id.
	MaxEntries = idxMask
)

// Make packs the VID fields.
func Make(kind mpi.Kind, gen uint8, index uint32) VID {
	return VID(uint32(kind)<<kindShift | uint32(gen&genMask)<<genShift | index&idxMask)
}

// Kind extracts the object kind encoded in the id. This is the "binary
// tag" that replaced the legacy design's string-compared type names
// (Section 6.1).
func (v VID) Kind() mpi.Kind { return mpi.Kind(uint32(v) >> kindShift) }

// Gen extracts the generation field.
func (v VID) Gen() uint8 { return uint8(uint32(v)>>genShift) & genMask }

// Index extracts the table index.
func (v VID) Index() uint32 { return uint32(v) & idxMask }

// String renders the id for diagnostics.
func (v VID) String() string {
	if v == VIDNull {
		return "vid(null)"
	}
	return fmt.Sprintf("vid(%v g%d #%d)", v.Kind(), v.Gen(), v.Index())
}

// Magic fills the upper 32 bits of pointer-width virtual handles, so a
// virtual handle is recognizable in memory dumps and cannot collide with
// a real lower-half pointer (which is always canonical-form).
const Magic uint32 = 0x4D414E41 // "MANA"

// Embed builds the virtual handle the application sees, given the
// declared handle width of the target MPI implementation's header
// (Proc.HandleBits). The VID occupies the first 32 bits in either case.
func Embed(v VID, handleBits int) mpi.Handle {
	if handleBits <= 32 {
		return mpi.Handle(uint32(v))
	}
	return mpi.Handle(uint64(Magic)<<32 | uint64(uint32(v)))
}

// Extract recovers the VID from a virtual handle. ok is false when the
// handle was not produced by Embed (e.g. a raw physical handle leaked
// into the upper half).
func Extract(h mpi.Handle, handleBits int) (VID, bool) {
	if h == mpi.HandleNull {
		return VIDNull, true
	}
	if handleBits <= 32 {
		if uint64(h)>>32 != 0 {
			return VIDNull, false
		}
		return VID(uint32(h)), true
	}
	if uint32(uint64(h)>>32) != Magic {
		return VIDNull, false
	}
	return VID(uint32(h)), true
}

// Strategy selects how an object is re-created at restart (paper
// Section 1.2, novelty 4).
type Strategy uint8

const (
	// StrategyReplay re-executes the recorded creation call (CommDup,
	// CommSplit with the original color/key, ...).
	StrategyReplay Strategy = iota
	// StrategyDecode rebuilds the object from a description captured at
	// checkpoint time with the lower half's decode functions
	// (MPI_Comm_group + MPI_Group_translate_ranks for communicators,
	// MPI_Type_get_envelope + MPI_Type_get_contents for datatypes).
	StrategyDecode
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyReplay:
		return "replay"
	case StrategyDecode:
		return "decode"
	default:
		return fmt.Sprintf("Strategy(%d)", uint8(s))
	}
}

// DescOp identifies the creation call recorded in a Descriptor.
type DescOp uint8

// Descriptor operations.
const (
	DescNone        DescOp = iota
	DescConst              // predefined constant, named by Const
	DescCommDup            // dup of Parent
	DescCommSplit          // split of Parent with Ints[0]=color, Ints[1]=key
	DescCommCreate         // create from Parent comm and Aux group
	DescCommGroup          // group extracted from Parent comm
	DescGroupIncl          // subgroup of Parent group with Ints=ranks
	_                      // retired: a group as explicit world ranks, never recorded
	DescTypeContig         // contiguous: Ints[0]=count, base=Parent
	DescTypeVector         // vector: Ints=count,blocklen,stride, base=Parent
	DescTypeIndexed        // indexed: Ints=blocklens+displs, base=Parent
	DescOpCreate           // user op: OpName registered in the upper half
	DescRequest            // in-flight request (never reconstructed; drained)
)

// String names the descriptor op.
func (d DescOp) String() string {
	switch d {
	case DescNone:
		return "none"
	case DescConst:
		return "const"
	case DescCommDup:
		return "comm-dup"
	case DescCommSplit:
		return "comm-split"
	case DescCommCreate:
		return "comm-create"
	case DescCommGroup:
		return "comm-group"
	case DescGroupIncl:
		return "group-incl"
	case DescTypeContig:
		return "type-contiguous"
	case DescTypeVector:
		return "type-vector"
	case DescTypeIndexed:
		return "type-indexed"
	case DescOpCreate:
		return "op-create"
	case DescRequest:
		return "request"
	default:
		return fmt.Sprintf("DescOp(%d)", uint8(d))
	}
}

// Descriptor is the serializable recipe from which MANA re-creates a
// semantically equivalent MPI object at restart (Section 4.2). It refers
// to other objects by their VIDs, which remain stable across restart.
type Descriptor struct {
	Op      DescOp
	Const   mpi.ConstName // DescConst
	Parent  VID           // parent comm / base type / source group
	Aux     VID           // second object argument (group of CommCreate)
	Ints    []int         // integer arguments
	OpName  string        // user-op registry key (DescOpCreate)
	Commute bool          // user-op commutativity
	// ResultNull marks collective creation calls whose local result was
	// the null handle (MPI_Comm_split with MPI_UNDEFINED color, or a
	// non-member in MPI_Comm_create). The call must still be replayed at
	// restart — it is collective over the parent — but nothing is bound.
	ResultNull bool
}

// Entry is the MANA-internal structure behind one virtual id. It is the
// "structure that corresponds to an MPI communicator, group, request,
// operation, or datatype" of Section 4.2, holding MANA-specific
// information updated during normal execution and saved in the
// checkpoint image.
type Entry struct {
	// VID is the entry's own id (kind and generation included).
	VID VID
	// Phys is the current physical handle in the lower half. It is
	// invalid after restart until Rebind updates it.
	Phys mpi.Handle
	// GGID is the global group id of communicators and groups: a
	// membership hash identical on every rank that owns a semantically
	// equal object. Zero when not yet computed (lazy policy).
	GGID uint32
	// Desc is the reconstruction recipe.
	Desc Descriptor
	// Strategy selects replay or decode reconstruction.
	Strategy Strategy
	// Seq is the creation sequence number, defining replay order.
	Seq uint64
	// Freed marks objects the application released before the
	// checkpoint; they are reconstructed only if a live object's recipe
	// depends on them, and freed again afterwards.
	Freed bool
}

// GGIDOf computes the global group id of a communicator or group from
// its world-rank membership: an FNV-1a hash over the ordered ranks.
// Every member rank computes the same value independently, which is what
// lets MANA match up communicators across ranks at checkpoint time.
func GGIDOf(worldRanks []int) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for _, r := range worldRanks {
		v := uint32(r)
		for i := 0; i < 4; i++ {
			h ^= (v >> (8 * i)) & 0xFF
			h *= prime32
		}
	}
	if h == 0 {
		h = 1 // reserve 0 for "not computed"
	}
	return h
}
