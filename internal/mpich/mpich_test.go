package mpich

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"manasim/internal/mpi"
)

func TestEncodeDecodeRoundTripProperty(t *testing.T) {
	f := func(kindU uint8, builtin bool, slabU uint16, slotU uint16) bool {
		kind := mpi.Kind(kindU%5 + 1)
		slab := int(slabU) & slabMask
		slot := int(slotU) & slotMask
		h := Encode(kind, builtin, slab, slot)
		k, b, sl, st := Decode(h)
		return k == kind && b == builtin && sl == slab && st == slot
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHandleIs32Bit(t *testing.T) {
	h := Encode(mpi.KindDatatype, false, slabMask, slotMask)
	if uint64(h)>>32 != 0 {
		t.Fatalf("handle %#x exceeds 32 bits", uint64(h))
	}
}

func TestTableInsertLookupRemove(t *testing.T) {
	tab := newTable()
	type obj struct{ v int }
	o1, o2 := &obj{1}, &obj{2}
	h1 := tab.Insert(mpi.KindComm, o1)
	h2 := tab.Insert(mpi.KindComm, o2)
	if h1 == h2 {
		t.Fatal("duplicate handles")
	}
	got, err := tab.Lookup(mpi.KindComm, h1)
	if err != nil || got != any(o1) {
		t.Fatalf("lookup: %v %v", got, err)
	}
	// Wrong kind fails.
	if _, err := tab.Lookup(mpi.KindGroup, h1); err == nil {
		t.Fatal("wrong-kind lookup succeeded")
	}
	if err := tab.Remove(h1); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Lookup(mpi.KindComm, h1); err == nil {
		t.Fatal("lookup after remove succeeded")
	}
	if err := tab.Remove(h1); err == nil {
		t.Fatal("double remove succeeded")
	}
	// Freed slot is reused.
	h3 := tab.Insert(mpi.KindGroup, &obj{3})
	_, _, sl1, st1 := Decode(h1)
	_, _, sl3, st3 := Decode(h3)
	if sl1 != sl3 || st1 != st3 {
		t.Fatalf("slot not reused: (%d,%d) vs (%d,%d)", sl1, st1, sl3, st3)
	}
}

func TestSlabOverflowAllocatesNewSlab(t *testing.T) {
	tab := newTable()
	seen := map[mpi.Handle]bool{}
	for i := 0; i < slabEntries+10; i++ {
		h := tab.Insert(mpi.KindRequest, i)
		if seen[h] {
			t.Fatalf("duplicate handle %#x at %d", uint64(h), i)
		}
		seen[h] = true
	}
	// An object beyond the first slab decodes to slab 1.
	var last mpi.Handle
	for h := range seen {
		if _, _, sl, _ := Decode(h); sl == 1 {
			last = h
		}
	}
	if last == 0 {
		t.Fatal("no handle landed in slab 1")
	}
}

func TestConstHandlesDeterministic(t *testing.T) {
	a, b := newTable(), newTable()
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
		if _, builtin, _, _ := Decode(ha); !builtin {
			t.Fatalf("%v: builtin flag missing", name)
		}
	}
}

func TestConstHandlesDistinct(t *testing.T) {
	tab := newTable()
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

// handleString renders a handle for test diagnostics.
func handleString(h mpi.Handle) string {
	k, builtin, sl, slot := Decode(h)
	return fmt.Sprintf("mpich{%v builtin=%v slab=%d slot=%d}", k, builtin, sl, slot)
}

func TestStringRendering(t *testing.T) {
	h := Encode(mpi.KindComm, false, 3, 17)
	s := handleString(h)
	if s == "" {
		t.Fatal("empty rendering")
	}
}

// TestFirstHandleAllocatesUnder1KB: a rank's first user handle costs a
// small slab, not a whole 4096-entry one. TotalAlloc is process-wide, so
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
// handle value. The first 5000 inserts — across the slab boundary at
// 4096 — get exactly the handles of the fixed-slab layout, position i
// at slab i/4096 and slot i%4096, and a freed slot is reused.
func TestGrownSlabsKeepFixedLayout(t *testing.T) {
	tab := newTable()
	handles := make([]mpi.Handle, 5000)
	for i := range handles {
		h := tab.Insert(mpi.KindRequest, i)
		if want := Encode(mpi.KindRequest, false, i/slabEntries, i%slabEntries); h != want {
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
	if h := tab.Insert(mpi.KindGroup, "again"); h != Encode(mpi.KindGroup, false, 1, 4) {
		t.Fatalf("freed slot not reused: %s", handleString(h))
	}
}

// TestLookupPastGrownSlabIsDangling: a handle whose slot lies beyond
// what its slab has grown to, or in a slab never allocated, is a
// dangling handle — an error, not an index panic.
func TestLookupPastGrownSlabIsDangling(t *testing.T) {
	tab := newTable()
	tab.Insert(mpi.KindComm, "only")
	for _, h := range []mpi.Handle{
		Encode(mpi.KindComm, false, 0, minSlabEntries),
		Encode(mpi.KindComm, false, 0, slotMask),
		Encode(mpi.KindComm, false, 7, 0),
	} {
		if _, err := tab.Lookup(mpi.KindComm, h); err == nil || !strings.Contains(err.Error(), "dangling") {
			t.Fatalf("Lookup(%s) = %v, want a dangling-handle error", handleString(h), err)
		}
		if err := tab.Remove(h); err == nil || !strings.Contains(err.Error(), "dangling") {
			t.Fatalf("Remove(%s) = %v, want a dangling-handle error", handleString(h), err)
		}
	}
}
