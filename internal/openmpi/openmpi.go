// Package openmpi simulates Open MPI's object-handle design (paper
// Section 3): an MPI_Comm or MPI_Datatype is a 64-bit pointer directly to
// an internal struct. Two properties of that design broke the original
// MANA and motivated the paper's new virtual-id architecture:
//
//   - handle values are addresses, so they are 64-bit and cannot be
//     stored in a 32-bit integer virtual id;
//   - global constants like MPI_COMM_WORLD are macros expanding to
//     function calls that return pointers resolved at library startup
//     (paper Section 4.3) — their values differ between the upper and
//     lower halves and between a pre-checkpoint run and a restarted run.
//
// The simulated arena mixes the fabric session number into every
// address, so a restart under a fresh lower half observably yields
// different constant values, exactly as a re-executed Open MPI would.
package openmpi

import (
	"fmt"

	"manasim/internal/mpi"
	"manasim/internal/mpibase"
	"manasim/internal/simtime"
	"manasim/internal/transport"
)

// arena simulates the library's heap: handles are synthetic addresses
// into this table. Addresses are 64-byte aligned and carry a
// session-dependent base so no two library instances produce equal
// addresses.
type arena struct {
	base   uint64
	next   uint64
	objs   map[uint64]entry
	consts [mpi.NumConstNames]mpi.Handle
	bound  [mpi.NumConstNames]bool
}

type entry struct {
	kind mpi.Kind
	obj  any
}

// objAlign is the simulated malloc alignment.
const objAlign = 64

func newArena(session uint64) *arena {
	// A deterministic, session-dependent heap base in the canonical
	// userspace mmap region. The multiplier is an odd 64-bit constant
	// (splitmix64 increment) so consecutive sessions land far apart.
	base := 0x7f00_0000_0000 ^ (session * 0x9E3779B97F4A7C15 & 0x0000_7FFF_FFFF_0000)
	return &arena{base: base, objs: make(map[uint64]entry)}
}

// alloc places obj at a fresh simulated address.
func (a *arena) alloc(kind mpi.Kind, obj any) mpi.Handle {
	addr := a.base + a.next
	a.next += objAlign
	a.objs[addr] = entry{kind: kind, obj: obj}
	return mpi.Handle(addr)
}

// Insert implements mpibase.HandleTable.
func (a *arena) Insert(kind mpi.Kind, obj any) mpi.Handle {
	return a.alloc(kind, obj)
}

// Lookup implements mpibase.HandleTable.
func (a *arena) Lookup(kind mpi.Kind, h mpi.Handle) (any, error) {
	if h == mpi.HandleNull {
		return nil, mpi.Errorf(kind.ErrClass(), "null %v handle", kind)
	}
	e, ok := a.objs[uint64(h)]
	if !ok {
		return nil, mpi.Errorf(kind.ErrClass(), "%v handle %#x does not point into this library instance", kind, uint64(h))
	}
	if e.kind != kind {
		return nil, mpi.Errorf(kind.ErrClass(), "handle %#x points to %v, want %v", uint64(h), e.kind, kind)
	}
	return e.obj, nil
}

// Remove implements mpibase.HandleTable.
func (a *arena) Remove(h mpi.Handle) error {
	e, ok := a.objs[uint64(h)]
	if !ok {
		return mpi.Errorf(mpi.KindNone.ErrClass(), "free of wild pointer %#x", uint64(h))
	}
	for _, c := range a.consts {
		if c == h {
			return mpi.Errorf(e.kind.ErrClass(), "cannot free predefined object %#x", uint64(h))
		}
	}
	delete(a.objs, uint64(h))
	return nil
}

// ConstHandle implements mpibase.HandleTable. Open MPI resolves global
// constants at library startup: the first resolution of any constant
// materializes all of them (modeling ompi_mpi_init populating the
// predefined object table), and subsequent lookups return the startup
// addresses.
func (a *arena) ConstHandle(name mpi.ConstName, obj any) (mpi.Handle, error) {
	if !a.bound[name] {
		a.consts[name] = a.alloc(name.Kind(), obj)
		a.bound[name] = true
	}
	return a.consts[name], nil
}

// New creates an Open MPI library instance for one rank. All predefined
// constants are resolved eagerly at startup, as ompi_mpi_init does.
func New(fab *transport.Fabric, rank int, clock *simtime.Clock, net simtime.NetModel) mpi.Proc {
	eng := mpibase.NewEngine(fab, rank, clock, net)
	a := newArena(fab.Session()*uint64(fab.Size()) + uint64(rank) + 1)
	p := mpibase.NewProc(eng, a, "openmpi", "Open MPI 4.1.5 (simulated)", 64, mpi.AllFeatures())
	// Startup resolution of every global constant (Section 4.3).
	for name := mpi.ConstName(0); name < mpi.NumConstNames; name++ {
		if name.Kind() == mpi.KindNone {
			continue
		}
		if _, err := p.LookupConst(name); err != nil {
			panic(fmt.Sprintf("openmpi: startup constant %v: %v", name, err))
		}
	}
	return p
}
