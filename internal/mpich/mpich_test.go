package mpich

import (
	"testing"

	"manasim/internal/mpi"
	"manasim/internal/mpibase"
)

func TestConstHandlesDeterministic(t *testing.T) {
	a, b := mpibase.NewSlabTable(layout), mpibase.NewSlabTable(layout)
	for name := mpi.ConstName(0); name < mpi.NumConstNames; name++ {
		if name.Kind() == mpi.KindNone {
			continue
		}
		ha, err := a.ConstHandle(name, name)
		if err != nil {
			t.Fatal(err)
		}
		hb, err := b.ConstHandle(name, name)
		if err != nil {
			t.Fatal(err)
		}
		if ha != hb {
			t.Fatalf("%v: handle differs across tables: %#x vs %#x", name, uint64(ha), uint64(hb))
		}
		if _, builtin, _, _, _ := layout.Decode(ha); !builtin {
			t.Fatalf("%v: builtin flag missing", name)
		}
	}
}

func TestConstHandlesDistinct(t *testing.T) {
	tab := mpibase.NewSlabTable(layout)
	seen := map[mpi.Handle]mpi.ConstName{}
	for name := mpi.ConstName(0); name < mpi.NumConstNames; name++ {
		if name.Kind() == mpi.KindNone {
			continue
		}
		h, err := tab.ConstHandle(name, name)
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[h]; dup {
			t.Fatalf("%v and %v share handle %#x", prev, name, uint64(h))
		}
		seen[h] = name
	}
}

func TestSlabOverflowAllocatesNewSlab(t *testing.T) {
	tab := mpibase.NewSlabTable(layout)
	entries := 1 << layout.SlotBits
	seen := map[mpi.Handle]bool{}
	for i := 0; i < entries+10; i++ {
		h := tab.Insert(mpi.KindRequest, i)
		if seen[h] {
			t.Fatalf("duplicate handle %#x at %d", uint64(h), i)
		}
		seen[h] = true
	}
	// An object beyond the first slab decodes to slab 1.
	var last mpi.Handle
	for h := range seen {
		if _, _, _, sl, _ := layout.Decode(h); sl == 1 {
			last = h
		}
	}
	if last == 0 {
		t.Fatal("no handle landed in slab 1")
	}
}

// TestGrownSlabsKeepFixedLayout holds mpich's own layout to the fixed
// slab/slot split: the n-th handle sits in slab n/4096, slot n%4096.
func TestGrownSlabsKeepFixedLayout(t *testing.T) {
	const entries = 4096
	tab := mpibase.NewSlabTable(layout)
	handles := make([]mpi.Handle, 5000)
	for i := range handles {
		h := tab.Insert(mpi.KindRequest, i)
		if want := layout.Encode(mpi.KindRequest, false, 0, i/entries, i%entries); h != want {
			t.Fatalf("insert %d: handle %#x, fixed layout gives %#x", i, uint64(h), uint64(want))
		}
		handles[i] = h
	}
	for i, h := range handles {
		if o, err := tab.Lookup(mpi.KindRequest, h); err != nil || o != any(i) {
			t.Fatalf("lookup %d: %v %v", i, o, err)
		}
	}
	if err := tab.Remove(handles[4100]); err != nil {
		t.Fatal(err)
	}
	if h, want := tab.Insert(mpi.KindGroup, "again"), layout.Encode(mpi.KindGroup, false, 0, 1, 4); h != want {
		t.Fatalf("freed slot not reused: %#x, want %#x", uint64(h), uint64(want))
	}
}
