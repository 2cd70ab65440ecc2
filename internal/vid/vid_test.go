package vid

import (
	"reflect"
	"testing"
	"testing/quick"

	"manasim/internal/mpi"
)

func TestVIDFieldsRoundTripProperty(t *testing.T) {
	f := func(kindU uint8, gen uint8, idx uint32) bool {
		kind := mpi.Kind(kindU%5 + 1)
		g := gen & genMask
		i := idx & idxMask
		v := Make(kind, g, i)
		return v.Kind() == kind && v.Gen() == g && v.Index() == i
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEmbedExtract32(t *testing.T) {
	v := Make(mpi.KindComm, 3, 42)
	h := Embed(v, 32)
	if uint64(h)>>32 != 0 {
		t.Fatalf("32-bit embedding %#x exceeds 32 bits", uint64(h))
	}
	got, ok := Extract(h, 32)
	if !ok || got != v {
		t.Fatalf("extract %v ok=%v", got, ok)
	}
	// A 64-bit-looking value must be rejected under a 32-bit header.
	if _, ok := Extract(mpi.Handle(uint64(Magic)<<32|1), 32); ok {
		t.Fatal("wide handle accepted under 32-bit header")
	}
}

func TestEmbedExtract64(t *testing.T) {
	v := Make(mpi.KindDatatype, 1, 7)
	h := Embed(v, 64)
	if uint32(uint64(h)>>32) != Magic {
		t.Fatalf("64-bit embedding %#x lacks the MANA magic", uint64(h))
	}
	got, ok := Extract(h, 64)
	if !ok || got != v {
		t.Fatalf("extract %v ok=%v", got, ok)
	}
	// A raw lower-half pointer must be rejected, not mistranslated —
	// this is how MANA notices a physical handle leaking upward.
	if _, ok := Extract(mpi.Handle(0x7f12_3456_7000), 64); ok {
		t.Fatal("raw pointer accepted as virtual handle")
	}
}

func TestEmbedExtractNull(t *testing.T) {
	for _, bits := range []int{32, 64} {
		v, ok := Extract(mpi.HandleNull, bits)
		if !ok || v != VIDNull {
			t.Fatalf("null handle: %v ok=%v", v, ok)
		}
	}
}

func TestEmbedExtractProperty(t *testing.T) {
	f := func(kindU uint8, gen uint8, idx uint32, wide bool) bool {
		kind := mpi.Kind(kindU%5 + 1)
		v := Make(kind, gen&genMask, (idx&idxMask)|1) // nonzero index
		bits := 32
		if wide {
			bits = 64
		}
		got, ok := Extract(Embed(v, bits), bits)
		return ok && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTableAddResolve(t *testing.T) {
	tab := NewTable()
	e, err := tab.Add(mpi.KindComm, 0xBEEF, Descriptor{Op: DescCommDup}, StrategyReplay)
	if err != nil {
		t.Fatal(err)
	}
	if e.VID.Kind() != mpi.KindComm {
		t.Fatalf("kind %v", e.VID.Kind())
	}
	got, err := tab.Resolve(e.VID)
	if err != nil || got != e {
		t.Fatalf("resolve: %v %v", got, err)
	}
	ph, err := tab.PhysOf(e.VID)
	if err != nil || ph != 0xBEEF {
		t.Fatalf("phys %#x %v", uint64(ph), err)
	}
	// O(1) reverse lookup.
	v, ok := tab.VirtOf(mpi.KindComm, 0xBEEF)
	if !ok || v != e.VID {
		t.Fatalf("reverse: %v ok=%v", v, ok)
	}
	// Wrong kind in reverse lookup misses.
	if _, ok := tab.VirtOf(mpi.KindGroup, 0xBEEF); ok {
		t.Fatal("reverse lookup ignored kind")
	}
}

func TestTableGenerationInvalidation(t *testing.T) {
	tab := NewTable()
	e, _ := tab.Add(mpi.KindRequest, 1, Descriptor{Op: DescRequest}, StrategyReplay)
	old := e.VID
	if err := tab.Drop(old); err != nil {
		t.Fatal(err)
	}
	e2, _ := tab.Add(mpi.KindRequest, 2, Descriptor{Op: DescRequest}, StrategyReplay)
	if e2.VID.Index() != old.Index() {
		t.Fatalf("slot not reused: %v vs %v", e2.VID, old)
	}
	if e2.VID == old {
		t.Fatal("generation not bumped on reuse")
	}
	if _, err := tab.Resolve(old); err == nil {
		t.Fatal("stale vid resolved")
	}
}

func TestTableRebind(t *testing.T) {
	tab := NewTable()
	e, _ := tab.Add(mpi.KindDatatype, 100, Descriptor{Op: DescTypeContig, Ints: []int{4}}, StrategyReplay)
	if err := tab.Rebind(e.VID, 200); err != nil {
		t.Fatal(err)
	}
	if ph, _ := tab.PhysOf(e.VID); ph != 200 {
		t.Fatalf("phys after rebind %d", ph)
	}
	// Old physical mapping is gone; new one present.
	if _, ok := tab.VirtOf(mpi.KindDatatype, 100); ok {
		t.Fatal("stale reverse mapping survived rebind")
	}
	if v, ok := tab.VirtOf(mpi.KindDatatype, 200); !ok || v != e.VID {
		t.Fatal("new reverse mapping missing")
	}
}

func TestTableMarkFreedKeepsDescriptor(t *testing.T) {
	tab := NewTable()
	e, _ := tab.Add(mpi.KindComm, 7, Descriptor{Op: DescCommSplit, Ints: []int{1, 2}}, StrategyReplay)
	if err := tab.MarkFreed(e.VID); err != nil {
		t.Fatal(err)
	}
	got, err := tab.Resolve(e.VID)
	if err != nil {
		t.Fatalf("freed entry must stay resolvable for replay: %v", err)
	}
	if !got.Freed || got.Desc.Op != DescCommSplit {
		t.Fatalf("entry %+v", got)
	}
	if _, ok := tab.VirtOf(mpi.KindComm, 7); ok {
		t.Fatal("freed entry still reverse-mapped")
	}
}

func TestEntriesCreationOrder(t *testing.T) {
	tab := NewTable()
	a, _ := tab.Add(mpi.KindComm, 1, Descriptor{}, StrategyReplay)
	b, _ := tab.Add(mpi.KindDatatype, 2, Descriptor{}, StrategyReplay)
	c, _ := tab.Add(mpi.KindGroup, 3, Descriptor{}, StrategyReplay)
	_ = tab.Drop(b.VID)
	d, _ := tab.Add(mpi.KindOp, 4, Descriptor{}, StrategyReplay) // reuses b's slot
	es := tab.Entries()
	if len(es) != 3 {
		t.Fatalf("len %d", len(es))
	}
	if es[0].VID != a.VID || es[1].VID != c.VID || es[2].VID != d.VID {
		t.Fatalf("order %v %v %v", es[0].VID, es[1].VID, es[2].VID)
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	tab := NewTable()
	a, _ := tab.Add(mpi.KindComm, 11, Descriptor{Op: DescCommDup, Parent: 5}, StrategyReplay)
	a.GGID = 0xDEAD
	b, _ := tab.Add(mpi.KindDatatype, 22, Descriptor{Op: DescTypeVector, Ints: []int{3, 1, 2}}, StrategyDecode)
	_ = tab.MarkFreed(a.VID)
	mid, _ := tab.Add(mpi.KindGroup, 33, Descriptor{Op: DescGroupIncl, Ints: []int{0, 2}}, StrategyReplay)
	midVID := mid.VID    // Drop clears mid for the slot's next Add
	_ = tab.Drop(midVID) // leaves a hole

	snap := tab.Snapshot()
	restored, err := FromSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	// Identical VIDs, cleared physical bindings.
	ra, err := restored.Resolve(a.VID)
	if err != nil {
		t.Fatal(err)
	}
	if ra.GGID != 0xDEAD || !ra.Freed || ra.Phys != mpi.HandleNull {
		t.Fatalf("restored a: %+v", ra)
	}
	rb, err := restored.Resolve(b.VID)
	if err != nil {
		t.Fatal(err)
	}
	if rb.Strategy != StrategyDecode || rb.Desc.Ints[2] != 2 {
		t.Fatalf("restored b: %+v", rb)
	}
	// The hole stays allocatable with a distinct vid.
	c2, err := restored.Add(mpi.KindOp, 44, Descriptor{}, StrategyReplay)
	if err != nil {
		t.Fatal(err)
	}
	if c2.VID == midVID {
		t.Fatal("restored table reissued a dropped vid with same generation")
	}
}

// TestDropAddReusesClearedEntry: a dropped slot's next Add reuses the
// slot's Entry, which keeps nothing of its predecessor; the
// predecessor's VID still fails Resolve, and the holes FromSnapshot
// leaves (nil slots) are filled by Add.
func TestDropAddReusesClearedEntry(t *testing.T) {
	tab := NewTable()
	e, _ := tab.Add(mpi.KindOp, 0xA1, Descriptor{Op: DescOpCreate, Ints: []int{1, 2}, OpName: "sum", Commute: true}, StrategyDecode)
	e.GGID, e.Freed = 0xBEEF, true
	old := e.VID
	if err := tab.Drop(old); err != nil {
		t.Fatal(err)
	}
	if n := len(tab.Entries()); n != 0 {
		t.Fatalf("dropped entry still live: Entries %d", n)
	}
	if _, err := tab.Resolve(old); err == nil {
		t.Fatal("dropped vid resolved")
	}
	e2, err := tab.Add(mpi.KindRequest, 0xB2, Descriptor{Op: DescRequest}, StrategyReplay)
	if err != nil {
		t.Fatal(err)
	}
	if e2 != e || e2.VID.Index() != old.Index() {
		t.Fatalf("slot %d's entry not reused: got index %d", old.Index(), e2.VID.Index())
	}
	want := Entry{VID: e2.VID, Phys: 0xB2, Desc: Descriptor{Op: DescRequest}, Strategy: StrategyReplay, Seq: 2}
	if !reflect.DeepEqual(*e2, want) {
		t.Fatalf("reused entry %+v, want %+v", *e2, want)
	}
	if _, ok := tab.VirtOf(mpi.KindOp, 0xA1); ok {
		t.Fatal("predecessor's physical handle still reverse-mapped")
	}
	if v, ok := tab.VirtOf(mpi.KindRequest, 0xB2); !ok || v != e2.VID {
		t.Fatalf("reverse map of reused slot: %v ok=%v", v, ok)
	}
	if _, err := tab.Resolve(old); err == nil {
		t.Fatal("predecessor's vid resolves to the reused slot")
	}
	if got, err := tab.Resolve(e2.VID); err != nil || got != e2 {
		t.Fatalf("Resolve(new vid) = %v, %v", got, err)
	}

	// FromSnapshot leaves a dropped slot nil; Add fills the hole.
	a, _ := tab.Add(mpi.KindComm, 1, Descriptor{}, StrategyReplay)
	b, _ := tab.Add(mpi.KindGroup, 2, Descriptor{}, StrategyReplay)
	hole := a.VID
	_ = tab.Drop(hole)
	restored, err := FromSnapshot(tab.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if restored.entries[hole.Index()] != nil {
		t.Fatal("snapshot hole restored as an entry")
	}
	c, err := restored.Add(mpi.KindDatatype, 3, Descriptor{}, StrategyReplay)
	if err != nil {
		t.Fatal(err)
	}
	if c.VID.Index() != hole.Index() || restored.entries[hole.Index()] != c {
		t.Fatalf("hole %d not filled: Add took index %d", hole.Index(), c.VID.Index())
	}
	if n := len(restored.Entries()); n != 3 {
		t.Fatalf("restored Entries %d, want 3", n)
	}
	for _, v := range []VID{e2.VID, b.VID, c.VID} {
		if _, err := restored.Resolve(v); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSnapshotDeepCopiesInts(t *testing.T) {
	tab := NewTable()
	e, _ := tab.Add(mpi.KindDatatype, 1, Descriptor{Op: DescTypeIndexed, Ints: []int{1, 2, 3}}, StrategyReplay)
	snap := tab.Snapshot()
	e.Desc.Ints[0] = 99
	if snap.Entries[0].Desc.Ints[0] != 1 {
		t.Fatal("snapshot aliases live descriptor ints")
	}
}

func TestGGIDOfDeterministicAndOrderSensitive(t *testing.T) {
	a := GGIDOf([]int{0, 1, 2, 3})
	b := GGIDOf([]int{0, 1, 2, 3})
	if a != b {
		t.Fatal("ggid not deterministic")
	}
	if GGIDOf([]int{3, 2, 1, 0}) == a {
		t.Fatal("ggid ignores member order (rank order is semantic in MPI)")
	}
	if GGIDOf([]int{0, 1, 2}) == a {
		t.Fatal("ggid ignores membership")
	}
	if GGIDOf(nil) == 0 {
		t.Fatal("ggid must never be 0 (reserved for 'not computed')")
	}
}

func TestGGIDNeverZeroProperty(t *testing.T) {
	f := func(ranks []int) bool { return GGIDOf(ranks) != 0 }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTableBijectionProperty(t *testing.T) {
	// Property: after a random interleaving of adds and drops, every
	// live entry's phys maps back to exactly its vid, and every vid
	// maps to its phys.
	f := func(ops []uint16) bool {
		tab := NewTable()
		live := map[VID]mpi.Handle{}
		physSeq := mpi.Handle(1)
		var order []VID
		for _, op := range ops {
			if op%3 != 0 || len(order) == 0 {
				kind := mpi.Kind(op%5 + 1)
				e, err := tab.Add(kind, physSeq, Descriptor{}, StrategyReplay)
				if err != nil {
					return false
				}
				live[e.VID] = physSeq
				order = append(order, e.VID)
				physSeq++
			} else {
				v := order[int(op)%len(order)]
				if _, ok := live[v]; !ok {
					continue
				}
				if err := tab.Drop(v); err != nil {
					return false
				}
				delete(live, v)
			}
		}
		if len(tab.Entries()) != len(live) {
			return false
		}
		for v, ph := range live {
			got, err := tab.PhysOf(v)
			if err != nil || got != ph {
				return false
			}
			back, ok := tab.VirtOf(v.Kind(), ph)
			if !ok || back != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStoreEmbeddingWidths(t *testing.T) {
	for _, tc := range []struct {
		bits    int
		uniform bool
		wantHi  bool // expect magic in upper 32 bits
	}{
		{32, false, false},
		{64, false, true},
		{32, true, true}, // uniform MANA header: always wide
	} {
		s := NewStore(tc.bits, tc.uniform)
		h, err := s.Add(mpi.KindComm, 0x77, Descriptor{}, StrategyReplay)
		if err != nil {
			t.Fatal(err)
		}
		hasHi := uint64(h)>>32 != 0
		if hasHi != tc.wantHi {
			t.Errorf("bits=%d uniform=%v: handle %#x", tc.bits, tc.uniform, uint64(h))
		}
		ph, err := s.Phys(mpi.KindComm, h)
		if err != nil || ph != 0x77 {
			t.Errorf("phys %v %v", ph, err)
		}
		// Wrong kind extraction fails.
		if _, err := s.Phys(mpi.KindGroup, h); err == nil {
			t.Error("kind check missing")
		}
	}
}

func TestStoreSnapshotRestore(t *testing.T) {
	s := NewStore(64, false)
	h1, _ := s.Add(mpi.KindComm, 1, Descriptor{Op: DescCommDup}, StrategyReplay)
	_ = s.SetGGID(mpi.KindComm, h1, 42)
	h2, _ := s.Add(mpi.KindDatatype, 2, Descriptor{Op: DescTypeContig, Ints: []int{8}}, StrategyDecode)
	snap := s.SnapshotStore()

	r, err := RestoreStore(snap, 64, false)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(r.Items()); n != 2 {
		t.Fatalf("count %d", n)
	}
	g, err := r.GGID(mpi.KindComm, h1)
	if err != nil || g != 42 {
		t.Fatalf("ggid %d %v", g, err)
	}
	// Physical bindings cleared until rebound.
	if ph, err := r.Phys(mpi.KindDatatype, h2); err != nil || ph != mpi.HandleNull {
		t.Fatalf("phys %v %v", ph, err)
	}
	if err := r.Rebind(mpi.KindDatatype, h2, 0xAB); err != nil {
		t.Fatal(err)
	}
	if ph, _ := r.Phys(mpi.KindDatatype, h2); ph != 0xAB {
		t.Fatalf("rebind lost: %v", ph)
	}
}

func TestRestoreStoreAcrossWidths(t *testing.T) {
	// A store snapshotted under a 32-bit header restores under a 64-bit
	// header: the VIDs are width-independent (this is what makes
	// cross-implementation restart possible with uniform handles).
	s := NewStore(32, true) // uniform: app-held handles are wide
	h, _ := s.Add(mpi.KindComm, 9, Descriptor{}, StrategyReplay)
	snap := s.SnapshotStore()
	r, err := RestoreStore(snap, 64, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Phys(mpi.KindComm, h); err != nil {
		t.Fatalf("handle invalid after width change: %v", err)
	}
}
