package craympi

import (
	"math"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"manasim/internal/mpi"
)

func TestEncodeDecodeRoundTripProperty(t *testing.T) {
	f := func(kindU uint8, builtin bool, genU, slabU, slotU uint16) bool {
		kind := mpi.Kind(kindU%5 + 1)
		gen := int(genU) & genMask
		slab := int(slabU) & slabMask
		slot := int(slotU) & slotMask
		h := Encode(kind, builtin, gen, slab, slot)
		k, b, g, sl, st := Decode(h)
		return k == kind && b == builtin && g == gen && sl == slab && st == slot
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVendorTagAlwaysPresent(t *testing.T) {
	h := Encode(mpi.KindComm, false, 0, 0, 0)
	if uint32(h)&vendorBit == 0 {
		t.Fatal("vendor tag missing from user handle")
	}
	hb := Encode(mpi.KindComm, true, 0, 0, 0)
	if uint32(hb)&vendorBit == 0 {
		t.Fatal("vendor tag missing from builtin handle")
	}
}

func TestGenerationInvalidatesStaleHandles(t *testing.T) {
	tab := newTable()
	h1 := tab.Insert(mpi.KindDatatype, "first")
	if err := tab.Remove(h1); err != nil {
		t.Fatal(err)
	}
	h2 := tab.Insert(mpi.KindDatatype, "second")
	// Same slot, new generation.
	_, _, g1, sl1, st1 := Decode(h1)
	_, _, g2, sl2, st2 := Decode(h2)
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
	tab := newTable()
	var h mpi.Handle
	// Cycle one slot through more than genMask generations.
	for i := 0; i <= genMask+2; i++ {
		h = tab.Insert(mpi.KindOp, i)
		if i <= genMask+1 {
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
	a, b := newTable(), newTable()
	ha, _ := a.ConstHandle(mpi.ConstCommWorld, "w")
	hb, _ := b.ConstHandle(mpi.ConstCommWorld, "w")
	if ha != hb {
		t.Fatalf("Cray constants differ across instances: %#x vs %#x", uint64(ha), uint64(hb))
	}
	if uint64(ha)>>32 != 0 {
		t.Fatalf("handle %#x not 32-bit", uint64(ha))
	}
}

// TestFirstHandleAllocatesUnder1KB: a rank's first user handle costs a
// small slab, not a whole 2048-entry one. TotalAlloc is process-wide, so
// the bound holds the least delta over several fresh tables: whatever
// else the process allocates during one Insert cannot fail it.
func TestFirstHandleAllocatesUnder1KB(t *testing.T) {
	least := uint64(math.MaxUint64)
	for range 5 {
		tab := newTable()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		h := tab.Insert(mpi.KindComm, tab)
		runtime.ReadMemStats(&m1)
		least = min(least, m1.TotalAlloc-m0.TotalAlloc)
		if o, err := tab.Lookup(mpi.KindComm, h); err != nil || o != any(tab) {
			t.Fatalf("lookup: %v %v", o, err)
		}
	}
	if least >= 1024 {
		t.Fatalf("first Insert allocated %d bytes, want under 1 KB", least)
	}
}

// TestGrownSlabsKeepFixedLayout: growing slabs on demand changes no
// handle value. The first 5000 inserts — across the slab boundaries at
// 2048 and 4096 — get exactly the handles of the fixed-slab layout,
// position i at generation 0, slab i/2048 and slot i%2048; a freed and
// reused slot moves to the next generation.
func TestGrownSlabsKeepFixedLayout(t *testing.T) {
	tab := newTable()
	handles := make([]mpi.Handle, 5000)
	for i := range handles {
		h := tab.Insert(mpi.KindRequest, i)
		if want := Encode(mpi.KindRequest, false, 0, i/slabEntries, i%slabEntries); h != want {
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
	if h := tab.Insert(mpi.KindGroup, "again"); h != Encode(mpi.KindGroup, false, 1, 2, 4) {
		t.Fatalf("freed slot not reused at the next generation: %#x", uint64(h))
	}
}

// TestLookupPastGrownSlabIsDangling: a handle whose slot lies beyond
// what its slab has grown to, or in a slab never allocated, is a
// dangling handle — an error, not an index panic.
func TestLookupPastGrownSlabIsDangling(t *testing.T) {
	tab := newTable()
	tab.Insert(mpi.KindComm, "only")
	for _, h := range []mpi.Handle{
		Encode(mpi.KindComm, false, 0, 0, minSlabEntries),
		Encode(mpi.KindComm, false, 0, 0, slotMask),
		Encode(mpi.KindComm, false, 0, 7, 0),
	} {
		if _, err := tab.Lookup(mpi.KindComm, h); err == nil || !strings.Contains(err.Error(), "dangling") {
			t.Fatalf("Lookup(%#x) = %v, want a dangling-handle error", uint64(h), err)
		}
		if err := tab.Remove(h); err == nil || !strings.Contains(err.Error(), "dangling") {
			t.Fatalf("Remove(%#x) = %v, want a dangling-handle error", uint64(h), err)
		}
	}
}
