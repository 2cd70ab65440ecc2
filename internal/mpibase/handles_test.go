package mpibase

import (
	"math"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"manasim/internal/mpi"
)

// slabLayouts are the MPICH family's two layouts, mpich's and craympi's
// (internal/impls' TestHandleValuesPinned holds the packages to them).
var slabLayouts = []struct {
	name string
	l    SlabLayout
}{
	{"mpich", SlabLayout{SlabBits: 15, SlotBits: 12}},
	{"craympi", SlabLayout{Vendor: true, GenBits: 4, SlabBits: 11, SlotBits: 11}},
}

// forEachLayout runs fn as a subtest per slab layout.
func forEachLayout(t *testing.T, fn func(t *testing.T, l SlabLayout)) {
	for _, c := range slabLayouts {
		t.Run(c.name, func(t *testing.T) { fn(t, c.l) })
	}
}

func TestEncodeDecodeRoundTripProperty(t *testing.T) {
	forEachLayout(t, func(t *testing.T, l SlabLayout) {
		f := func(kindU uint8, builtin bool, genU, slabU, slotU uint16) bool {
			kind := mpi.Kind(kindU%5 + 1)
			gen := int(genU) & (1<<l.GenBits - 1)
			slab := int(slabU) & (1<<l.SlabBits - 1)
			slot := int(slotU) & (1<<l.SlotBits - 1)
			k, b, g, sl, st := l.Decode(l.Encode(kind, builtin, gen, slab, slot))
			return k == kind && b == builtin && g == gen && sl == slab && st == slot
		}
		if err := quick.Check(f, nil); err != nil {
			t.Fatal(err)
		}
	})
}

// TestHandleIs32Bit: every field at its largest value still fits in 32
// bits, and below the kind and builtin bits (and the vendor tag).
func TestHandleIs32Bit(t *testing.T) {
	forEachLayout(t, func(t *testing.T, l SlabLayout) {
		h := l.Encode(mpi.KindDatatype, false, -1, -1, -1)
		if uint64(h)>>32 != 0 {
			t.Fatalf("handle %#x exceeds 32 bits", uint64(h))
		}
		top := 27
		if l.Vendor {
			top = 26
		}
		if fields := l.GenBits + l.SlabBits + l.SlotBits; fields > top {
			t.Fatalf("generation, slab and slot take %d bits, %d are free", fields, top)
		}
	})
}

// TestTableInsertLookupRemove: a handle resolves to its object and kind
// only, a freed one resolves to nothing and cannot be freed again, and
// the last freed slot is the next one used.
func TestTableInsertLookupRemove(t *testing.T) {
	forEachLayout(t, func(t *testing.T, l SlabLayout) {
		tab := NewSlabTable(l)
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
		if _, err := tab.Lookup(mpi.KindGroup, h1); err == nil {
			t.Fatal("wrong-kind lookup succeeded")
		}
		for _, h := range []mpi.Handle{h2, h1} {
			if err := tab.Remove(h); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := tab.Lookup(mpi.KindComm, h1); err == nil {
			t.Fatal("lookup after remove succeeded")
		}
		if err := tab.Remove(h1); err == nil {
			t.Fatal("double remove succeeded")
		}
		// LIFO: h1's slot, freed last, comes back first, then h2's.
		for _, old := range []mpi.Handle{h1, h2} {
			h := tab.Insert(mpi.KindGroup, &obj{3})
			_, _, g, sl, st := l.Decode(h)
			_, _, gOld, slOld, stOld := l.Decode(old)
			if sl != slOld || st != stOld {
				t.Fatalf("slot not reused LIFO: (%d,%d), want (%d,%d)", sl, st, slOld, stOld)
			}
			if want := (gOld + 1) & (1<<l.GenBits - 1); g != want {
				t.Fatalf("reused slot at generation %d, want %d", g, want)
			}
		}
	})
}

// TestFirstHandleAllocatesUnder1KB: a rank's first user handle costs a
// small slab, not a whole one. TotalAlloc is process-wide, so the bound
// holds the least delta over several fresh tables: whatever else the
// process allocates during one Insert cannot fail it.
func TestFirstHandleAllocatesUnder1KB(t *testing.T) {
	forEachLayout(t, func(t *testing.T, l SlabLayout) {
		least := uint64(math.MaxUint64)
		for range 5 {
			tab := NewSlabTable(l)
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
	})
}

// TestGrownSlabsKeepFixedLayout: growing slabs on demand changes no
// handle value. The first 5000 inserts — across at least one slab
// boundary — get exactly the handles of the fixed-slab layout, position
// i at generation 0, slab i/entries and slot i%entries; a freed slot
// past the first slab is reused, at the next generation if the layout
// has one.
func TestGrownSlabsKeepFixedLayout(t *testing.T) {
	forEachLayout(t, func(t *testing.T, l SlabLayout) {
		entries := 1 << l.SlotBits
		tab := NewSlabTable(l)
		handles := make([]mpi.Handle, 5000)
		for i := range handles {
			h := tab.Insert(mpi.KindRequest, i)
			if want := l.Encode(mpi.KindRequest, false, 0, i/entries, i%entries); h != want {
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
		gen := min(l.GenBits, 1)
		if h, want := tab.Insert(mpi.KindGroup, "again"), l.Encode(mpi.KindGroup, false, gen, 4100/entries, 4100%entries); h != want {
			t.Fatalf("freed slot not reused: %#x, want %#x", uint64(h), uint64(want))
		}
	})
}

// TestLookupPastGrownSlabIsDangling: a handle whose slot lies beyond
// what its slab has grown to, or in a slab never allocated, is a
// dangling handle — an error, not an index panic.
func TestLookupPastGrownSlabIsDangling(t *testing.T) {
	forEachLayout(t, func(t *testing.T, l SlabLayout) {
		tab := NewSlabTable(l)
		tab.Insert(mpi.KindComm, "only")
		for _, h := range []mpi.Handle{
			l.Encode(mpi.KindComm, false, 0, 0, minSlabEntries),
			l.Encode(mpi.KindComm, false, 0, 0, -1),
			l.Encode(mpi.KindComm, false, 0, 7, 0),
		} {
			if _, err := tab.Lookup(mpi.KindComm, h); err == nil || !strings.Contains(err.Error(), "dangling") {
				t.Fatalf("Lookup(%#x) = %v, want a dangling-handle error", uint64(h), err)
			}
			if err := tab.Remove(h); err == nil || !strings.Contains(err.Error(), "dangling") {
				t.Fatalf("Remove(%#x) = %v, want a dangling-handle error", uint64(h), err)
			}
		}
	})
}

// addrTables are the pointer family's two address tables: Open MPI's
// 64-byte-aligned heap and ExaMPI's 16-byte shared pointers.
var addrTables = []struct {
	name        string
	base, align uint64
}{
	{"openmpi", 0x7f00_0000_0000, 64},
	{"exampi", 0x5600_0000_0000, 16},
}

// forEachAddrTable runs fn as a subtest per address table.
func forEachAddrTable(t *testing.T, fn func(t *testing.T, a *AddrTable, base, align uint64)) {
	for _, c := range addrTables {
		t.Run(c.name, func(t *testing.T) { fn(t, NewAddrTable(c.base, c.align), c.base, c.align) })
	}
}

// TestAddrTableInsertLookupRemove: handles are aligned addresses from
// the base, resolve to their object and kind only, and are never
// reused; a wild or freed address is an error, not a crash, and freeing
// one is MPI_ERR_ARG.
func TestAddrTableInsertLookupRemove(t *testing.T) {
	forEachAddrTable(t, func(t *testing.T, a *AddrTable, base, align uint64) {
		h1 := a.Insert(mpi.KindComm, "one")
		h2 := a.Insert(mpi.KindComm, "two")
		if uint64(h1) != base || uint64(h2) != base+align {
			t.Fatalf("addresses %#x, %#x, want %#x and %#x", uint64(h1), uint64(h2), base, base+align)
		}
		got, err := a.Lookup(mpi.KindComm, h1)
		if err != nil || got != any("one") {
			t.Fatalf("lookup %v %v", got, err)
		}
		if _, err := a.Lookup(mpi.KindGroup, h1); err == nil {
			t.Fatal("wrong-kind lookup succeeded")
		}
		if _, err := a.Lookup(mpi.KindComm, 0xDEADBEEF); err == nil {
			t.Fatal("wild pointer resolved")
		}
		if err := a.Remove(h1); err != nil {
			t.Fatal(err)
		}
		if _, err := a.Lookup(mpi.KindComm, h1); err == nil {
			t.Fatal("use after free succeeded")
		}
		if err := a.Remove(h1); err == nil || err.(*mpi.Error).Class != mpi.ErrArg {
			t.Fatalf("double free: %v, want MPI_ERR_ARG", err)
		}
		if h3 := a.Insert(mpi.KindComm, "three"); uint64(h3) != base+2*align {
			t.Fatalf("address %#x after a free, want the fresh %#x", uint64(h3), base+2*align)
		}
	})
}

// TestConstantsResolvedOnceAndProtected: a constant is bound to one
// address on first use, later calls return it, and it cannot be freed.
func TestConstantsResolvedOnceAndProtected(t *testing.T) {
	forEachAddrTable(t, func(t *testing.T, a *AddrTable, base, align uint64) {
		h1, err := a.ConstHandle(mpi.ConstCommWorld, "world")
		if err != nil {
			t.Fatal(err)
		}
		if uint64(h1) != base {
			t.Fatalf("constant at %#x, want the first address %#x", uint64(h1), base)
		}
		h2, err := a.ConstHandle(mpi.ConstCommWorld, "other")
		if err != nil {
			t.Fatal(err)
		}
		if h1 != h2 {
			t.Fatal("constant resolved twice within one library instance")
		}
		if o, err := a.Lookup(mpi.KindComm, h1); err != nil || o != any("world") {
			t.Fatalf("constant lookup %v %v", o, err)
		}
		if err := a.Remove(h1); err == nil || err.(*mpi.Error).Class != mpi.ErrComm {
			t.Fatalf("freeing MPI_COMM_WORLD: %v, want MPI_ERR_COMM", err)
		}
	})
}
