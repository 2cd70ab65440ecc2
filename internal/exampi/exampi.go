// Package exampi simulates ExaMPI, the experimental C++ MPI
// implementation (paper Sections 3 and 4.3):
//
//   - primitive datatypes are values of an enum class, small integers,
//     and MPI_CHAR and MPI_BYTE share one enum value (like MPI_INT8_T
//     and MPI_CHAR in the real ExaMPI): two constant names alias one
//     physical handle;
//   - every other object, MPI_COMM_WORLD and MPI_SUM included, is a
//     shared pointer, an mpibase.AddrTable address, "known relatively
//     late at runtime, on a lazy basis": a constant is bound on first
//     use, not at startup;
//   - it implements a subset: no strided or indexed datatypes,
//     gather/scatter or allgather (the paper runs only CoMD and LULESH
//     on it), but all of the MANA core of Section 5, MPI_Alltoall
//     included.
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

// table is ExaMPI's object registry: the enum-valued primitive datatypes
// over an AddrTable of shared pointers for everything else.
type table struct {
	*mpibase.AddrTable
	enums [enumFloat64 - enumByte + 1]any // bound datatype of each enum value
}

// newTable returns an empty registry. Shared pointers live strictly
// above the enum range, 16 bytes apart, and the session perturbs their
// addresses so they differ across library instances (restart!).
func newTable(session uint64) *table {
	return &table{AddrTable: mpibase.NewAddrTable(0x5600_0000_0000^(session<<20), 16)}
}

// enum returns the datatype bound to enum value h, nil if h is none.
func (t *table) enum(h mpi.Handle) any {
	if h < enumByte || h > enumFloat64 {
		return nil
	}
	return t.enums[h-enumByte]
}

// Lookup implements mpibase.HandleTable: a datatype handle may be an
// enum value.
func (t *table) Lookup(kind mpi.Kind, h mpi.Handle) (any, error) {
	if o := t.enum(h); o != nil && kind == mpi.KindDatatype {
		return o, nil
	}
	return t.AddrTable.Lookup(kind, h)
}

// Remove implements mpibase.HandleTable: enum datatypes cannot be freed.
func (t *table) Remove(h mpi.Handle) error {
	if t.enum(h) != nil {
		return mpi.Errorf(mpi.ErrType, "cannot free enum datatype %#x", uint64(h))
	}
	return t.AddrTable.Remove(h)
}

// ConstHandle implements mpibase.HandleTable. Primitive datatypes are
// enum values (known immediately and stable); every other constant is a
// lazy shared pointer materialized on first use — the property MANA's
// constant translation must tolerate (paper Section 4.3).
func (t *table) ConstHandle(name mpi.ConstName, obj any) (mpi.Handle, error) {
	if ev, ok := enumOf(name); ok {
		if t.enums[ev-enumByte] == nil {
			t.enums[ev-enumByte] = obj
		}
		return mpi.Handle(ev), nil
	}
	return t.AddrTable.ConstHandle(name, obj)
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
	tab := newTable(fab.Session()*uint64(fab.Size()) + uint64(rank) + 1)
	p := mpibase.NewProc(eng, tab, "exampi", 64, Caps())
	p.SetResolveCost(5*time.Microsecond, 600*time.Nanosecond)
	return p
}
