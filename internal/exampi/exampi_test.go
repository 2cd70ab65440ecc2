package exampi

import (
	"testing"

	"manasim/internal/mpi"
)

func TestEnumAliasByteChar(t *testing.T) {
	ev1, ok1 := enumOf(mpi.ConstByte)
	ev2, ok2 := enumOf(mpi.ConstChar)
	if !ok1 || !ok2 || ev1 != ev2 {
		t.Fatalf("MPI_BYTE/MPI_CHAR must share one enum value: %v %v", ev1, ev2)
	}
	if _, ok := enumOf(mpi.ConstCommWorld); ok {
		t.Fatal("communicators are not enum datatypes")
	}
}

func TestLazyConstantMaterialization(t *testing.T) {
	tab := newTable(3)
	// Nothing is resolved at construction (lazy, unlike Open MPI): the
	// first constant takes the first shared pointer.
	h, err := tab.ConstHandle(mpi.ConstOpSum, "sum")
	if err != nil {
		t.Fatal(err)
	}
	if first := mpi.Handle(0x5600_0000_0000 ^ 3<<20); h != first {
		t.Fatalf("first constant at %#x, want the first shared pointer %#x", uint64(h), uint64(first))
	}
	h2, _ := tab.ConstHandle(mpi.ConstOpSum, "other")
	if h != h2 {
		t.Fatal("lazy constant materialized twice")
	}
	if next := tab.Insert(mpi.KindOp, "user"); next != h+16 {
		t.Fatalf("next shared pointer %#x, want %#x: the constant took more than one", uint64(next), uint64(h+16))
	}
	if err := tab.Remove(h); err == nil {
		t.Fatal("freed a predefined constant")
	}
}

func TestEnumDatatypesNotFreeable(t *testing.T) {
	tab := newTable(1)
	h, err := tab.ConstHandle(mpi.ConstFloat64, "f64")
	if err != nil {
		t.Fatal(err)
	}
	if uint64(h)>>16 != 0 {
		t.Fatalf("enum handle %#x is not a small value", uint64(h))
	}
	if err := tab.Remove(h); err == nil {
		t.Fatal("freed an enum datatype")
	}
	got, err := tab.Lookup(mpi.KindDatatype, h)
	if err != nil || got != any("f64") {
		t.Fatalf("enum lookup %v %v", got, err)
	}
}

func TestSubsetCapabilities(t *testing.T) {
	caps := Caps()
	for _, missing := range []mpi.Feature{
		mpi.FeatTypeVector, mpi.FeatTypeIndexed, mpi.FeatGatherScatter, mpi.FeatAllgather,
	} {
		if caps.Has(missing) {
			t.Errorf("ExaMPI must lack %v (paper: experimental subset)", missing)
		}
	}
	for _, present := range []mpi.Feature{mpi.FeatCommCreate, mpi.FeatUserOps} {
		if !caps.Has(present) {
			t.Errorf("ExaMPI should support %v", present)
		}
	}
}

func TestSharedPointersDifferAcrossSessions(t *testing.T) {
	s1, s2 := newTable(11), newTable(22)
	h1, _ := s1.ConstHandle(mpi.ConstCommWorld, 1)
	h2, _ := s2.ConstHandle(mpi.ConstCommWorld, 2)
	if h1 == h2 {
		t.Fatal("shared-pointer constants identical across library instances")
	}
}
