package vidlegacy

import (
	"testing"
	"testing/quick"

	"manasim/internal/mpi"
	"manasim/internal/vid"
)

func TestIncompatibleWithPointerHandles(t *testing.T) {
	s := New()
	if err := s.CompatibleWith(32); err != nil {
		t.Fatalf("must support the MPICH family: %v", err)
	}
	if err := s.CompatibleWith(64); err == nil {
		t.Fatal("legacy int ids must refuse 64-bit handle types (Section 4.1 problem 1)")
	}
}

func TestAddPhysVirt(t *testing.T) {
	s := New()
	h, err := s.Add(mpi.KindComm, 0x44000000, vid.Descriptor{Op: vid.DescConst}, vid.StrategyReplay)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(h)>>32 != 0 {
		t.Fatalf("legacy virtual handle %#x is not an int", uint64(h))
	}
	ph, err := s.Phys(mpi.KindComm, h)
	if err != nil || ph != 0x44000000 {
		t.Fatalf("phys %#x %v", uint64(ph), err)
	}
	v, ok := s.Virt(mpi.KindComm, 0x44000000)
	if !ok || v != h {
		t.Fatalf("virt %v ok=%v", v, ok)
	}
	// Namespaces are per kind: the same int id can exist for a group.
	hg, err := s.Add(mpi.KindGroup, 0x88000000, vid.Descriptor{}, vid.StrategyReplay)
	if err != nil {
		t.Fatal(err)
	}
	if hg != h {
		t.Fatalf("expected per-kind id namespaces (both start at 1): %v vs %v", hg, h)
	}
	if ph, _ := s.Phys(mpi.KindGroup, hg); ph != 0x88000000 {
		t.Fatal("group namespace collided with comm namespace")
	}
}

func TestSeparateMetadataMaps(t *testing.T) {
	s := New()
	h, _ := s.Add(mpi.KindComm, 5, vid.Descriptor{Op: vid.DescCommSplit, Ints: []int{1, 0}}, vid.StrategyReplay)
	if err := s.SetGGID(mpi.KindComm, h, 77); err != nil {
		t.Fatal(err)
	}
	g, err := s.GGID(mpi.KindComm, h)
	if err != nil || g != 77 {
		t.Fatalf("ggid %d %v", g, err)
	}
	if items := s.Items(); len(items) != 1 || items[0].Desc.Op != vid.DescCommSplit {
		t.Fatalf("items %+v", items)
	}
}

func TestFreedAndDrop(t *testing.T) {
	s := New()
	h, _ := s.Add(mpi.KindDatatype, 9, vid.Descriptor{}, vid.StrategyReplay)
	if err := s.MarkFreed(mpi.KindDatatype, h); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Phys(mpi.KindDatatype, h); err == nil {
		t.Fatal("freed id still resolves")
	}
	// Still present for replay.
	items := s.Items()
	if len(items) != 1 || !items[0].Freed {
		t.Fatalf("items %+v", items)
	}
	if err := s.Drop(mpi.KindDatatype, h); err != nil {
		t.Fatal(err)
	}
	if len(s.Items()) != 0 {
		t.Fatal("drop left residue")
	}
}

func TestSnapshotRestore(t *testing.T) {
	s := New()
	h1, _ := s.Add(mpi.KindComm, 1, vid.Descriptor{Op: vid.DescCommDup}, vid.StrategyReplay)
	_ = s.SetGGID(mpi.KindComm, h1, 5)
	h2, _ := s.Add(mpi.KindOp, 2, vid.Descriptor{Op: vid.DescOpCreate, OpName: "x"}, vid.StrategyReplay)
	snap := s.SnapshotStore()
	if snap.Design != "legacy" {
		t.Fatalf("design %q", snap.Design)
	}
	r, err := Restore(snap)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(r.Items()); n != 2 {
		t.Fatalf("count %d", n)
	}
	if g, _ := r.GGID(mpi.KindComm, h1); g != 5 {
		t.Fatalf("ggid %d", g)
	}
	if items := r.Items(); len(items) != 2 || items[1].Virt != h2 || items[1].Desc.OpName != "x" {
		t.Fatalf("restored items %+v", items)
	}
	// Ids keep counting above the restored maximum.
	h3, _ := r.Add(mpi.KindComm, 3, vid.Descriptor{}, vid.StrategyReplay)
	if h3 == h1 {
		t.Fatal("restored store reissued an existing id")
	}
}

func TestItemsCreationOrder(t *testing.T) {
	s := New()
	a, _ := s.Add(mpi.KindDatatype, 1, vid.Descriptor{}, vid.StrategyReplay)
	b, _ := s.Add(mpi.KindComm, 2, vid.Descriptor{}, vid.StrategyReplay)
	c, _ := s.Add(mpi.KindDatatype, 3, vid.Descriptor{}, vid.StrategyReplay)
	items := s.Items()
	if len(items) != 3 {
		t.Fatalf("len %d", len(items))
	}
	if items[0].Virt != a || items[0].Kind != mpi.KindDatatype {
		t.Fatalf("order[0] %+v", items[0])
	}
	if items[1].Virt != b || items[1].Kind != mpi.KindComm {
		t.Fatalf("order[1] %+v", items[1])
	}
	if items[2].Virt != c {
		t.Fatalf("order[2] %+v", items[2])
	}
}

func TestBijectionProperty(t *testing.T) {
	// Same bijection property as the new design — the legacy design is
	// slower, not wrong.
	f := func(physVals []uint16) bool {
		s := New()
		seen := map[mpi.Handle]mpi.Handle{} // phys -> virt
		for i, pv := range physVals {
			if len(seen) > 50 {
				break
			}
			ph := mpi.Handle(uint64(pv) + 1)
			if _, dup := seen[ph]; dup {
				continue
			}
			h, err := s.Add(mpi.KindRequest, ph, vid.Descriptor{}, vid.StrategyReplay)
			if err != nil {
				return false
			}
			seen[ph] = h
			_ = i
		}
		for ph, h := range seen {
			got, err := s.Phys(mpi.KindRequest, h)
			if err != nil || got != ph {
				return false
			}
			back, ok := s.Virt(mpi.KindRequest, ph)
			if !ok || back != h {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
