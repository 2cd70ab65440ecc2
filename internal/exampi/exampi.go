// Package exampi simulates ExaMPI, the experimental C++ MPI
// implementation (paper Sections 3 and 4.3), whose design choices are the
// most unusual of the four:
//
//   - primitive datatypes are values of an enum class: small integers,
//     not pointers, and MPI_CHAR and MPI_BYTE (like MPI_INT8_T and
//     MPI_CHAR in the real ExaMPI) share one enum value — two constant
//     names alias the same physical handle;
//   - every other object, including the global constants MPI_COMM_WORLD
//     and MPI_SUM, is a smart shared pointer created with reinterpret
//     casts, whose address is only known "relatively late at runtime, on
//     a lazy basis": a constant's handle is materialized on first use,
//     not at startup;
//   - the implementation is a subset of the standard: strided and
//     indexed datatypes, gather/scatter, and allgather are not provided
//     (the paper runs only CoMD and LULESH on ExaMPI for this reason),
//     but the MANA core subset of Section 5 — including MPI_Alltoall —
//     is fully supported.
package exampi

import (
	"time"

	"manasim/internal/mpi"
	"manasim/internal/mpibase"
	"manasim/internal/simtime"
	"manasim/internal/transport"
)

// Enum values of the primitive datatype enum class. Deliberately tiny
// integers that collide with nothing else; CHAR aliases BYTE.
const (
	enumByte    = 0x11 // shared by MPI_BYTE and MPI_CHAR
	enumInt32   = 0x12
	enumInt64   = 0x13
	enumUint64  = 0x14
	enumFloat32 = 0x15
	enumFloat64 = 0x16
)

// enumOf maps a datatype constant name to its enum value.
func enumOf(name mpi.ConstName) (uint64, bool) {
	switch name {
	case mpi.ConstByte, mpi.ConstChar:
		return enumByte, true
	case mpi.ConstInt32:
		return enumInt32, true
	case mpi.ConstInt64:
		return enumInt64, true
	case mpi.ConstUint64:
		return enumUint64, true
	case mpi.ConstFloat32:
		return enumFloat32, true
	case mpi.ConstFloat64:
		return enumFloat64, true
	default:
		return 0, false
	}
}

// sharedPtrBase is the simulated address region of ExaMPI's shared
// pointers; lazily allocated, strictly above the enum range.
const sharedPtrBase = 0x5600_0000_0000

// store is ExaMPI's object registry: enum-valued primitives plus a
// shared-pointer table for everything else.
type store struct {
	session uint64
	next    uint64
	objs    map[uint64]entry
	enums   map[uint64]any // enum value -> predefined datatype object
	consts  [mpi.NumConstNames]mpi.Handle
	bound   [mpi.NumConstNames]bool
}

type entry struct {
	kind mpi.Kind
	obj  any
}

func newStore(session uint64) *store {
	return &store{
		session: session,
		objs:    make(map[uint64]entry),
		enums:   make(map[uint64]any),
	}
}

// alloc creates a fresh shared pointer. The session perturbs addresses
// so they differ across library instances (restart!).
func (s *store) alloc(kind mpi.Kind, obj any) mpi.Handle {
	addr := sharedPtrBase ^ (s.session << 20)
	addr += s.next
	s.next += 16
	s.objs[addr] = entry{kind: kind, obj: obj}
	return mpi.Handle(addr)
}

// Insert implements mpibase.HandleTable.
func (s *store) Insert(kind mpi.Kind, obj any) mpi.Handle {
	return s.alloc(kind, obj)
}

// Lookup implements mpibase.HandleTable.
func (s *store) Lookup(kind mpi.Kind, h mpi.Handle) (any, error) {
	if h == mpi.HandleNull {
		return nil, mpi.Errorf(kind.ErrClass(), "null %v handle", kind)
	}
	if kind == mpi.KindDatatype {
		if o, ok := s.enums[uint64(h)]; ok {
			return o, nil
		}
	}
	e, ok := s.objs[uint64(h)]
	if !ok {
		return nil, mpi.Errorf(kind.ErrClass(), "%v handle %#x unknown to this ExaMPI instance", kind, uint64(h))
	}
	if e.kind != kind {
		return nil, mpi.Errorf(kind.ErrClass(), "handle %#x is %v, want %v", uint64(h), e.kind, kind)
	}
	return e.obj, nil
}

// Remove implements mpibase.HandleTable.
func (s *store) Remove(h mpi.Handle) error {
	if _, ok := s.enums[uint64(h)]; ok {
		return mpi.Errorf(mpi.ErrType, "cannot free enum datatype %#x", uint64(h))
	}
	e, ok := s.objs[uint64(h)]
	if !ok {
		return mpi.Errorf(mpi.ErrArg, "free of unknown shared pointer %#x", uint64(h))
	}
	for _, c := range s.consts {
		if c == h {
			return mpi.Errorf(e.kind.ErrClass(), "cannot free predefined object %#x", uint64(h))
		}
	}
	delete(s.objs, uint64(h))
	return nil
}

// ConstHandle implements mpibase.HandleTable. Primitive datatypes are
// enum values (known immediately and stable); every other constant is a
// lazy shared pointer materialized on first use — the property MANA's
// constant translation must tolerate (paper Section 4.3).
func (s *store) ConstHandle(name mpi.ConstName, obj any) (mpi.Handle, error) {
	if ev, ok := enumOf(name); ok {
		if _, bound := s.enums[ev]; !bound {
			s.enums[ev] = obj
		}
		return mpi.Handle(ev), nil
	}
	if !s.bound[name] {
		s.consts[name] = s.alloc(name.Kind(), obj)
		s.bound[name] = true
	}
	return s.consts[name], nil
}

// Caps returns ExaMPI's subset capability set.
func Caps() mpi.CapSet {
	var s mpi.CapSet
	s = s.With(mpi.FeatCommCreate)
	s = s.With(mpi.FeatUserOps)
	return s
}

// New creates an ExaMPI library instance for one rank. No constant is
// resolved here: all resolution is lazy; every handle resolution pays
// the experimental implementation's smart-pointer cost (reduced when
// the caller pre-resolves handles, as MANA's wrappers do — the Figure 3
// effect the paper discusses in Section 6.2).
func New(fab *transport.Fabric, rank int, clock *simtime.Clock, net simtime.NetModel) mpi.Proc {
	eng := mpibase.NewEngine(fab, rank, clock, net)
	st := newStore(fab.Session()*uint64(fab.Size()) + uint64(rank) + 1)
	p := mpibase.NewProc(eng, st, "exampi", 64, Caps())
	p.SetResolveCost(5*time.Microsecond, 600*time.Nanosecond)
	return p
}
