// Package openmpi simulates Open MPI's object-handle design (paper
// Section 3): an MPI_Comm or MPI_Datatype is a 64-bit pointer to an
// internal struct, an mpibase.AddrTable address. Two properties of that
// design broke the original MANA: a handle does not fit a 32-bit virtual
// id, and constants like MPI_COMM_WORLD are resolved at library startup
// (Section 4.3), so their values differ between the halves and across a
// restart. The session salts the heap base so a restarted library
// observably yields different constant values.
package openmpi

import (
	"fmt"

	"manasim/internal/mpi"
	"manasim/internal/mpibase"
	"manasim/internal/simtime"
	"manasim/internal/transport"
)

// heapBase is a deterministic, session-dependent heap base in the
// canonical userspace mmap region; objects are 64-byte aligned, like
// malloc's. The multiplier is an odd 64-bit constant (splitmix64
// increment) so consecutive sessions land far apart.
func heapBase(session uint64) uint64 {
	return 0x7f00_0000_0000 ^ (session * 0x9E3779B97F4A7C15 & 0x0000_7FFF_FFFF_0000)
}

// New creates an Open MPI library instance for one rank. All predefined
// constants are resolved eagerly at startup, as ompi_mpi_init does.
func New(fab *transport.Fabric, rank int, clock *simtime.Clock, net simtime.NetModel) mpi.Proc {
	eng := mpibase.NewEngine(fab, rank, clock, net)
	tab := mpibase.NewAddrTable(heapBase(fab.Session()*uint64(fab.Size())+uint64(rank)+1), 64)
	p := mpibase.NewProc(eng, tab, "openmpi", 64, mpi.AllFeatures())
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
