// Package craympi simulates HPE Cray MPI, an MPICH-family derivative
// (paper Sections 3 and 7: Cray MPI shares much of its code with MPICH,
// and here the shared mpibase engine stands for that core). Its handles
// are MPICH's 32-bit slab ids with two vendor twists that mirror how
// derivatives diverge from their upstream:
//
//   - bit 26 is a vendor tag set on every handle, builtin constants
//     included, so raw Cray handles are numerically distinct from MPICH
//     handles for the same object (code that hardwires MPICH handle
//     constants, as the pre-paper MANA did, breaks here);
//   - each slot carries a 4-bit generation counter; a freed-and-reused
//     slot invalidates stale handles instead of silently resolving them
//     to the new object.
package craympi

import (
	"manasim/internal/mpi"
	"manasim/internal/mpibase"
	"manasim/internal/simtime"
	"manasim/internal/transport"
)

// layout: kind in bits 31..28, builtin in 27, vendor tag in 26,
// generation in 25..22, slab in 21..11, slot in 10..0 (2048-entry
// slabs).
var layout = mpibase.SlabLayout{Vendor: true, GenBits: 4, SlabBits: 11, SlotBits: 11}

// New creates a Cray MPI library instance for one rank.
func New(fab *transport.Fabric, rank int, clock *simtime.Clock, net simtime.NetModel) mpi.Proc {
	eng := mpibase.NewEngine(fab, rank, clock, net)
	return mpibase.NewProc(eng, mpibase.NewSlabTable(layout), "craympi", 32, mpi.AllFeatures())
}
