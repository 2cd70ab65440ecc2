// Package mpich simulates the MPICH family's object-handle design
// (paper Section 3): an MPI object id is a special 32-bit integer, the
// index into mpibase's two-level SlabTable, and the predefined constants
// are compile-time integers with the builtin flag set.
package mpich

import (
	"manasim/internal/mpi"
	"manasim/internal/mpibase"
	"manasim/internal/simtime"
	"manasim/internal/transport"
)

// layout: kind in bits 31..28, builtin in 27, slab in 26..12, slot in
// 11..0 (4096-entry slabs).
var layout = mpibase.SlabLayout{SlabBits: 15, SlotBits: 12}

// New creates an MPICH library instance for one rank.
func New(fab *transport.Fabric, rank int, clock *simtime.Clock, net simtime.NetModel) mpi.Proc {
	eng := mpibase.NewEngine(fab, rank, clock, net)
	return mpibase.NewProc(eng, mpibase.NewSlabTable(layout), "mpich", 32, mpi.AllFeatures())
}
