package craympi

import (
	"testing"

	"manasim/internal/mpi"
	"manasim/internal/mpibase"
)

func TestVendorTagAlwaysPresent(t *testing.T) {
	for _, builtin := range []bool{false, true} {
		h := layout.Encode(mpi.KindComm, builtin, 0, 0, 0)
		if uint32(h)&(1<<26) == 0 {
			t.Fatalf("vendor tag missing from handle %#x (builtin %v)", uint64(h), builtin)
		}
	}
}

func TestGenerationInvalidatesStaleHandles(t *testing.T) {
	tab := mpibase.NewSlabTable(layout)
	h1 := tab.Insert(mpi.KindDatatype, "first")
	if err := tab.Remove(h1); err != nil {
		t.Fatal(err)
	}
	h2 := tab.Insert(mpi.KindDatatype, "second")
	// Same slot, new generation.
	_, _, g1, sl1, st1 := layout.Decode(h1)
	_, _, g2, sl2, st2 := layout.Decode(h2)
	if sl1 != sl2 || st1 != st2 {
		t.Fatalf("slot not reused: (%d,%d) vs (%d,%d)", sl1, st1, sl2, st2)
	}
	if g1 == g2 {
		t.Fatal("generation not bumped")
	}
	if _, err := tab.Lookup(mpi.KindDatatype, h1); err == nil {
		t.Fatal("stale handle resolved")
	}
	got, err := tab.Lookup(mpi.KindDatatype, h2)
	if err != nil || got != any("second") {
		t.Fatalf("fresh handle: %v %v", got, err)
	}
	// Removing with the stale handle must also fail.
	if err := tab.Remove(h1); err == nil {
		t.Fatal("remove with stale handle succeeded")
	}
}

func TestGenerationWrapsSafely(t *testing.T) {
	tab := mpibase.NewSlabTable(layout)
	gens := 1 << layout.GenBits
	var h mpi.Handle
	// Cycle one slot through more than all its generations.
	for i := 0; i <= gens+1; i++ {
		h = tab.Insert(mpi.KindOp, i)
		if i <= gens {
			if err := tab.Remove(h); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := tab.Lookup(mpi.KindOp, h); err != nil {
		t.Fatalf("live handle after generation wrap: %v", err)
	}
}

func TestCrayConstantsStable(t *testing.T) {
	a, b := mpibase.NewSlabTable(layout), mpibase.NewSlabTable(layout)
	ha, _ := a.ConstHandle(mpi.ConstCommWorld, "w")
	hb, _ := b.ConstHandle(mpi.ConstCommWorld, "w")
	if ha != hb {
		t.Fatalf("Cray constants differ across instances: %#x vs %#x", uint64(ha), uint64(hb))
	}
	if uint64(ha)>>32 != 0 {
		t.Fatalf("handle %#x not 32-bit", uint64(ha))
	}
}
