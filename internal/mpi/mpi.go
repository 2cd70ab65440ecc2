// Package mpi defines the MPI "standard" shared by every simulated MPI
// implementation in this repository: opaque handle values, object kinds,
// predefined constants, statuses, error classes, datatype envelopes, and
// the Proc interface — the per-rank lower-half library API that MANA
// calls through the split-process boundary.
//
// The package intentionally mirrors the subset of MPI-3.0 that the paper's
// Section 5 identifies as required for MANA support:
//
//  1. functions that send, detect and receive messages in the network
//     (Send, Recv, Iprobe, Test),
//  2. functions that decode MPI objects for reconstruction at restart
//     (Comm_group, Group_translate_ranks, Type_get_envelope,
//     Type_get_contents), and
//  3. a small set of communication functions MANA uses internally
//     (Send, Recv, Alltoall),
//
// plus the object-creating calls an application needs (communicator
// split/dup, derived datatypes, user operations, nonblocking
// point-to-point, and common collectives).
package mpi

import "fmt"

// Handle is an opaque MPI object id as seen by application code. Its
// bit-level interpretation is implementation-defined, exactly as the type
// MPI_Comm differs between mpi.h headers:
//
//   - the MPICH family packs kind and two table indices into 32 bits
//     (the upper 32 bits are zero);
//   - Open MPI stores a 64-bit pointer to an internal struct;
//   - ExaMPI uses small enum values for primitive datatypes and lazy
//     shared pointers for everything else;
//   - MANA embeds its 32-bit virtual id in the low 4 bytes and a magic
//     marker in the high 4 bytes.
//
// HandleNull (0) is universally the null handle.
type Handle uint64

// HandleNull is the null object handle in every implementation.
const HandleNull Handle = 0

// Kind classifies the five MPI object families that MANA virtualizes
// (paper Section 1.2, novelty 3).
type Kind uint8

// The five virtualized kinds, plus KindNone for the null handle.
const (
	KindNone Kind = iota
	KindComm
	KindGroup
	KindRequest
	KindOp
	KindDatatype
	numKinds
)

// NumKinds is the count of distinct valid kinds (excluding KindNone).
const NumKinds = int(numKinds) - 1

// kinds holds each kind's MPI type name and the error class an
// implementation reports for a bad handle of that kind.
var kinds = [numKinds]struct {
	name  string
	class ErrClass
}{
	KindNone:     {"MPI_NULL", ErrArg},
	KindComm:     {"MPI_Comm", ErrComm},
	KindGroup:    {"MPI_Group", ErrGroup},
	KindRequest:  {"MPI_Request", ErrRequest},
	KindOp:       {"MPI_Op", ErrOp},
	KindDatatype: {"MPI_Datatype", ErrType},
}

// String names the kind using the MPI type vocabulary.
func (k Kind) String() string {
	if k < numKinds {
		return kinds[k].name
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// ErrClass is the error class an implementation reports for a bad
// handle of kind k (MPI_ERR_COMM for a communicator, and so on);
// KindNone and unknown kinds report MPI_ERR_ARG.
func (k Kind) ErrClass() ErrClass {
	if k < numKinds {
		return kinds[k].class
	}
	return ErrArg
}

// Wildcards and special ranks, mirroring mpi.h.
const (
	AnySource = -1
	AnyTag    = -1
	ProcNull  = -2
	Undefined = -32766
)

// ConstName names a predefined MPI global constant. Paper Section 4.3:
// constants such as MPI_COMM_WORLD may be compile-time integers (MPICH),
// functions resolved at library startup (Open MPI), or lazy shared
// pointers resolved on first use (ExaMPI). MANA therefore never assumes a
// constant's value; it asks the lower half to resolve the name.
type ConstName int

// Predefined constant names.
const (
	ConstCommWorld ConstName = iota
	ConstCommSelf
	ConstGroupEmpty
	ConstByte
	ConstChar
	ConstInt32
	ConstInt64
	ConstUint64
	ConstFloat32
	ConstFloat64
	ConstOpSum
	ConstOpProd
	ConstOpMax
	ConstOpMin
	ConstOpLand
	ConstOpLor
	ConstOpBand
	ConstOpBor
	NumConstNames // sentinel: count of predefined constants
)

// constNames maps ConstName to its MPI spelling.
var constNames = [...]string{
	ConstCommWorld:  "MPI_COMM_WORLD",
	ConstCommSelf:   "MPI_COMM_SELF",
	ConstGroupEmpty: "MPI_GROUP_EMPTY",
	ConstByte:       "MPI_BYTE",
	ConstChar:       "MPI_CHAR",
	ConstInt32:      "MPI_INT32_T",
	ConstInt64:      "MPI_INT64_T",
	ConstUint64:     "MPI_UINT64_T",
	ConstFloat32:    "MPI_FLOAT",
	ConstFloat64:    "MPI_DOUBLE",
	ConstOpSum:      "MPI_SUM",
	ConstOpProd:     "MPI_PROD",
	ConstOpMax:      "MPI_MAX",
	ConstOpMin:      "MPI_MIN",
	ConstOpLand:     "MPI_LAND",
	ConstOpLor:      "MPI_LOR",
	ConstOpBand:     "MPI_BAND",
	ConstOpBor:      "MPI_BOR",
}

// String returns the MPI spelling of the constant name.
func (c ConstName) String() string {
	if c >= 0 && int(c) < len(constNames) {
		return constNames[c]
	}
	return fmt.Sprintf("ConstName(%d)", int(c))
}

// Kind reports the object kind a constant resolves to.
func (c ConstName) Kind() Kind {
	switch c {
	case ConstCommWorld, ConstCommSelf:
		return KindComm
	case ConstGroupEmpty:
		return KindGroup
	case ConstByte, ConstChar, ConstInt32, ConstInt64, ConstUint64,
		ConstFloat32, ConstFloat64:
		return KindDatatype
	case ConstOpSum, ConstOpProd, ConstOpMax, ConstOpMin,
		ConstOpLand, ConstOpLor, ConstOpBand, ConstOpBor:
		return KindOp
	default:
		return KindNone
	}
}

// Status is the receive-side completion record (MPI_Status).
type Status struct {
	// Source is the world-independent rank of the sender within the
	// receive's communicator.
	Source int
	// Tag is the matched message tag.
	Tag int
	// Bytes is the received payload size in bytes. MPI_Get_count is
	// Bytes divided by the datatype size.
	Bytes int
}

// Count returns the element count for a datatype of elemSize bytes, or
// Undefined if the payload is not a whole number of elements.
func (s Status) Count(elemSize int) int {
	if elemSize <= 0 || s.Bytes%elemSize != 0 {
		return Undefined
	}
	return s.Bytes / elemSize
}

// Combiner identifies how a derived datatype was constructed
// (MPI_Type_get_envelope).
type Combiner int

// Combiner values for the supported type constructors.
const (
	CombinerNamed Combiner = iota // predefined type
	CombinerContiguous
	CombinerVector
	CombinerIndexed
)

// String names the combiner in MPI vocabulary.
func (c Combiner) String() string {
	switch c {
	case CombinerNamed:
		return "MPI_COMBINER_NAMED"
	case CombinerContiguous:
		return "MPI_COMBINER_CONTIGUOUS"
	case CombinerVector:
		return "MPI_COMBINER_VECTOR"
	case CombinerIndexed:
		return "MPI_COMBINER_INDEXED"
	default:
		return fmt.Sprintf("Combiner(%d)", int(c))
	}
}

// Envelope is the result of MPI_Type_get_envelope: enough information to
// size the arrays for MPI_Type_get_contents.
type Envelope struct {
	Combiner     Combiner
	NumInts      int
	NumDatatypes int
}

// Contents is the result of MPI_Type_get_contents: the constructor
// arguments of a derived datatype. MANA uses it to rebuild the type at
// restart (paper Section 5, category 2).
type Contents struct {
	Combiner  Combiner
	Ints      []int
	Datatypes []Handle
}

// ReduceFunc is the signature of a user-defined reduction operation. It
// combines count elements of elemSize bytes from in into inout,
// element-wise (the MPI_User_function analogue; the datatype is presented
// as its element size because the simulated ABI passes packed buffers).
type ReduceFunc func(in, inout []byte, count, elemSize int)

// Feature identifies an optional part of the standard that a subset
// implementation (ExaMPI) may lack. MANA itself only requires the core
// subset of paper Section 5; applications may require more, in which case
// the harness marks them incompatible with that implementation.
type Feature int

// Optional features.
const (
	FeatTypeVector Feature = iota
	FeatTypeIndexed
	FeatGatherScatter
	FeatAllgather
	FeatCommCreate
	FeatUserOps
)

// String names the feature.
func (f Feature) String() string {
	switch f {
	case FeatTypeVector:
		return "MPI_Type_vector"
	case FeatTypeIndexed:
		return "MPI_Type_indexed"
	case FeatGatherScatter:
		return "MPI_Gather/MPI_Scatter"
	case FeatAllgather:
		return "MPI_Allgather"
	case FeatCommCreate:
		return "MPI_Comm_create"
	case FeatUserOps:
		return "MPI_Op_create"
	default:
		return fmt.Sprintf("Feature(%d)", int(f))
	}
}

// CapSet is the feature set an implementation supports.
type CapSet uint32

// Has reports whether the capability set includes f.
func (s CapSet) Has(f Feature) bool { return s&(1<<uint(f)) != 0 }

// With returns s extended with f.
func (s CapSet) With(f Feature) CapSet { return s | (1 << uint(f)) }

// AllFeatures is the capability set of a full implementation: every
// feature up to the last, FeatUserOps.
func AllFeatures() CapSet { return CapSet(1)<<(FeatUserOps+1) - 1 }
