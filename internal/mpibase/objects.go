// Package mpibase is the protocol engine shared by the simulated MPI
// implementations, in the same way MPICH's core is shared by HPE Cray MPI,
// MVAPICH and Intel MPI. It implements message matching, collective
// algorithms, communicator and group management, derived datatypes, and
// reduction operations against internal object structs.
//
// What mpibase deliberately does NOT define is the handle representation:
// each implementation package (mpich, craympi, openmpi, exampi) supplies a
// HandleTable that maps its own mpi.Handle bit patterns to these internal
// objects, reproducing the design diversity surveyed in Section 3 of the
// paper. The Proc adapter in this package glues an Engine and a
// HandleTable into a complete mpi.Proc.
package mpibase

import (
	"manasim/internal/mpi"
)

// Group is an ordered set of world ranks (an MPI_Group's internals).
type Group struct {
	// Ranks[i] is the world rank of group member i.
	Ranks []int
	// Predefined marks groups owned by the library (world group, empty
	// group), which are not user-freeable.
	Predefined bool
}

// Size returns the number of members.
func (g *Group) Size() int { return len(g.Ranks) }

// RankOf returns the group rank of the given world rank, or
// mpi.Undefined if the world rank is not a member. Every completed
// receive calls it, so a member sitting at its own index — every member
// of the world group and of its duplicates — is found without the scan.
func (g *Group) RankOf(world int) int {
	if world >= 0 && world < len(g.Ranks) && g.Ranks[world] == world {
		return world
	}
	for i, w := range g.Ranks {
		if w == world {
			return i
		}
	}
	return mpi.Undefined
}

// Clone returns a deep copy of the group with Predefined cleared.
func (g *Group) Clone() *Group {
	return &Group{Ranks: append([]int(nil), g.Ranks...)}
}

// Comm is a communicator's internals: a context id scoping message
// matching, the ordered member group, and the caller's rank within it.
type Comm struct {
	// Ctx scopes point-to-point matching. Collective traffic uses
	// Ctx | collCtxBit so user wildcards can never match internal
	// collective messages.
	Ctx uint32
	// Group is the ordered membership.
	Group *Group
	// MyRank is the local process's rank within the communicator.
	MyRank int
	// Predefined marks MPI_COMM_WORLD / MPI_COMM_SELF.
	Predefined bool

	collSeq uint32
	freed   bool
}

// Size returns the communicator size.
func (c *Comm) Size() int { return c.Group.Size() }

// Freed reports whether CommFree released this communicator.
func (c *Comm) Freed() bool { return c.freed }

// seg is one contiguous byte range within a datatype's extent.
type seg struct {
	off, n int
}

// Dtype is a datatype's internals: packed size, buffer extent, the
// constructor recipe (combiner and arguments) needed by
// MPI_Type_get_envelope/contents, and a pack plan of byte segments.
type Dtype struct {
	// SizeB is the packed size in bytes of one element.
	SizeB int
	// ExtentB is the span of one element in the user buffer.
	ExtentB int
	// Combiner identifies the constructor.
	Combiner mpi.Combiner
	// Name is the predefined constant name for named types.
	Name mpi.ConstName
	// Ints are the constructor's integer arguments (count; or count,
	// blocklength, stride; or blocklengths and displacements).
	Ints []int
	// Bases are the constructor's input datatypes.
	Bases []*Dtype
	// Predefined marks built-in types.
	Predefined bool
	// Committed reports whether TypeCommit has run.
	Committed bool

	segs []seg
}

// contiguous reports whether the type is a single dense segment.
func (d *Dtype) contiguous() bool {
	return len(d.segs) == 1 && d.segs[0].off == 0 && d.segs[0].n == d.SizeB && d.ExtentB == d.SizeB
}

// PackInto copies count elements from the (possibly strided) user
// buffer into out, which must hold at least count*SizeB bytes and must
// not alias buf; it returns the dense payload out[:count*SizeB], every
// byte of it written. The engine's sends pack into a buffer from the
// fabric's payload pool, so a steady-state send allocates nothing.
func (d *Dtype) PackInto(out, buf []byte, count int) []byte {
	out = out[:count*d.SizeB]
	if d.contiguous() {
		copy(out, buf[:len(out)])
		return out
	}
	pos := 0
	for i := 0; i < count; i++ {
		base := i * d.ExtentB
		for _, s := range d.segs {
			pos += copy(out[pos:], buf[base+s.off:base+s.off+s.n])
		}
	}
	return out
}

// Unpack copies a dense payload into the (possibly strided) user buffer,
// writing at most count elements. It returns the number of payload bytes
// consumed.
func (d *Dtype) Unpack(payload, buf []byte, count int) int {
	if d.contiguous() {
		n := min(len(payload), count*d.SizeB)
		copy(buf, payload[:n])
		return n
	}
	pos := 0
	for i := 0; i < count && pos < len(payload); i++ {
		base := i * d.ExtentB
		for _, s := range d.segs {
			if pos >= len(payload) {
				break
			}
			n := min(s.n, len(payload)-pos)
			copy(buf[base+s.off:base+s.off+n], payload[pos:pos+n])
			pos += n
		}
	}
	return pos
}

// BufLen returns the minimum user-buffer length in bytes needed to hold
// count elements of this datatype.
func (d *Dtype) BufLen(count int) int {
	if count == 0 {
		return 0
	}
	return (count-1)*d.ExtentB + d.spanB()
}

// spanB is the extent of the data-carrying portion of one element.
func (d *Dtype) spanB() int {
	last := 0
	for _, s := range d.segs {
		if end := s.off + s.n; end > last {
			last = end
		}
	}
	return last
}

// Op is a reduction operation's internals.
type Op struct {
	// Name is the predefined constant name for built-in operations.
	Name mpi.ConstName
	// Fn is the user function for user-defined operations.
	Fn mpi.ReduceFunc
	// Predefined marks built-in operations.
	Predefined bool
}

// Req is a nonblocking request's internals. The simulated library uses an
// eager protocol, so every send shares one completed request, sentReq; a
// receive request records the match and destination buffer and performs
// the mailbox operation at Wait/Test time.
type Req struct {
	// Done is set once the operation completed.
	Done bool
	// St is the completion status (receives only).
	St mpi.Status

	// Receive-side state.
	Buf   []byte
	Count int
	Dt    *Dtype
	Comm  *Comm
	Src   int // comm rank or mpi.AnySource
	Tag   int
}

// sentReq is the request every Isend returns: the eager send is complete
// before Isend returns, and Wait and Test write only a request not Done.
var sentReq = &Req{Done: true}
