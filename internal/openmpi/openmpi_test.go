package openmpi

import (
	"testing"
	"testing/quick"

	"manasim/internal/mpi"
	"manasim/internal/mpibase"
)

func TestSessionsProduceDistinctAddressesProperty(t *testing.T) {
	// Different library instances (sessions) must hand out different
	// addresses for the same constant — the restart hazard of §4.3.
	f := func(s1, s2 uint16) bool {
		if s1 == s2 {
			return true
		}
		a1 := mpibase.NewAddrTable(heapBase(uint64(s1)+1), 64)
		a2 := mpibase.NewAddrTable(heapBase(uint64(s2)+1), 64)
		h1, _ := a1.ConstHandle(mpi.ConstCommWorld, 1)
		h2, _ := a2.ConstHandle(mpi.ConstCommWorld, 2)
		return h1 != h2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
