package openmpi

import (
	"testing"
	"testing/quick"

	"manasim/internal/mpi"
)

func TestArenaAllocLookupRemove(t *testing.T) {
	a := newArena(1)
	h1 := a.Insert(mpi.KindComm, "one")
	h2 := a.Insert(mpi.KindComm, "two")
	if h1 == h2 {
		t.Fatal("duplicate addresses")
	}
	// Pointer-like: high bits set, aligned.
	if uint64(h1)>>32 == 0 || uint64(h1)%objAlign != 0 {
		t.Fatalf("handle %#x is not a plausible aligned pointer", uint64(h1))
	}
	got, err := a.Lookup(mpi.KindComm, h1)
	if err != nil || got != any("one") {
		t.Fatalf("lookup %v %v", got, err)
	}
	// Kind confusion is an error.
	if _, err := a.Lookup(mpi.KindGroup, h1); err == nil {
		t.Fatal("wrong-kind lookup succeeded")
	}
	// Wild pointer is an error, not a crash.
	if _, err := a.Lookup(mpi.KindComm, 0xDEADBEEF); err == nil {
		t.Fatal("wild pointer resolved")
	}
	if err := a.Remove(h1); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Lookup(mpi.KindComm, h1); err == nil {
		t.Fatal("use after free succeeded")
	}
	if err := a.Remove(h1); err == nil {
		t.Fatal("double free succeeded")
	}
}

func TestConstantsResolvedOnceAndProtected(t *testing.T) {
	a := newArena(7)
	h1, err := a.ConstHandle(mpi.ConstCommWorld, "world")
	if err != nil {
		t.Fatal(err)
	}
	h2, err := a.ConstHandle(mpi.ConstCommWorld, "other")
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatal("constant resolved twice within one library instance")
	}
	// Predefined objects cannot be freed.
	if err := a.Remove(h1); err == nil {
		t.Fatal("freed MPI_COMM_WORLD")
	}
}

func TestSessionsProduceDistinctAddressesProperty(t *testing.T) {
	// Different library instances (sessions) must hand out different
	// addresses for the same constant — the restart hazard of §4.3.
	f := func(s1, s2 uint16) bool {
		if s1 == s2 {
			return true
		}
		a1 := newArena(uint64(s1) + 1)
		a2 := newArena(uint64(s2) + 1)
		h1, _ := a1.ConstHandle(mpi.ConstCommWorld, 1)
		h2, _ := a2.ConstHandle(mpi.ConstCommWorld, 2)
		return h1 != h2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
