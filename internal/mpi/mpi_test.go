package mpi

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestConstNameKinds(t *testing.T) {
	for name := ConstName(0); name < NumConstNames; name++ {
		if name.Kind() == KindNone {
			t.Errorf("constant %v has no kind", name)
		}
		if name.String() == "" {
			t.Errorf("constant %d has no spelling", int(name))
		}
	}
	if ConstCommWorld.Kind() != KindComm || ConstFloat64.Kind() != KindDatatype || ConstOpSum.Kind() != KindOp {
		t.Fatal("kind mapping broken")
	}
	if ConstCommWorld.String() != "MPI_COMM_WORLD" {
		t.Fatalf("spelling %q", ConstCommWorld.String())
	}
}

func TestKindStrings(t *testing.T) {
	want := map[Kind]string{
		KindComm: "MPI_Comm", KindGroup: "MPI_Group", KindRequest: "MPI_Request",
		KindOp: "MPI_Op", KindDatatype: "MPI_Datatype",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%v != %s", k, s)
		}
	}
}

func TestStatusCount(t *testing.T) {
	st := Status{Bytes: 24}
	if st.Count(8) != 3 {
		t.Fatalf("count %d", st.Count(8))
	}
	if st.Count(7) != Undefined {
		t.Fatal("partial element not Undefined")
	}
	if st.Count(0) != Undefined {
		t.Fatal("zero element size not Undefined")
	}
}

func TestCapSet(t *testing.T) {
	var s CapSet
	if s.Has(FeatTypeVector) {
		t.Fatal("empty set has features")
	}
	s = s.With(FeatTypeVector).With(FeatUserOps)
	if !s.Has(FeatTypeVector) || !s.Has(FeatUserOps) || s.Has(FeatAllgather) {
		t.Fatal("capset membership broken")
	}
	full := AllFeatures()
	for _, f := range []Feature{FeatTypeVector, FeatTypeIndexed, FeatGatherScatter,
		FeatAllgather, FeatCommCreate, FeatUserOps} {
		if !full.Has(f) {
			t.Errorf("AllFeatures lacks %v", f)
		}
	}
}

func TestBufferRoundTrips(t *testing.T) {
	f64 := []float64{1.5, -2.25, 0, 1e300}
	if got := Float64s(Float64Bytes(f64)); len(got) != 4 || got[3] != 1e300 {
		t.Fatalf("float64 round trip %v", got)
	}
	i64 := []int64{-1, 0, 1 << 62}
	if got := Int64s(Int64Bytes(i64)); got[0] != -1 || got[2] != 1<<62 {
		t.Fatalf("int64 round trip %v", got)
	}
	i32 := []int32{-7, 42}
	if got := Int32s(Int32Bytes(i32)); got[0] != -7 || got[1] != 42 {
		t.Fatalf("int32 round trip %v", got)
	}
}

func TestBufferRoundTripProperty(t *testing.T) {
	f := func(v []float64) bool {
		b := Float64Bytes(v)
		back := Float64s(b)
		return bytes.Equal(b, Float64Bytes(back))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPutGetFloat64s(t *testing.T) {
	buf := make([]byte, 16)
	PutFloat64s(buf, []float64{7, -8})
	out := make([]float64, 2)
	GetFloat64s(buf, out)
	if out[0] != 7 || out[1] != -8 {
		t.Fatalf("put/get %v", out)
	}
}

func TestOpRegistry(t *testing.T) {
	fn := func(in, inout []byte, count, elemSize int) {}
	if err := RegisterOp("", fn); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := RegisterOp("x.test", nil); err == nil {
		t.Fatal("nil function accepted")
	}
	if err := RegisterOp("x.test", fn); err != nil {
		t.Fatal(err)
	}
	// Idempotent re-registration of the same function.
	if err := RegisterOp("x.test", fn); err != nil {
		t.Fatalf("re-registration: %v", err)
	}
	// Conflicting registration fails.
	other := func(in, inout []byte, count, elemSize int) { _ = in }
	if err := RegisterOp("x.test", other); err == nil {
		t.Fatal("conflicting registration accepted")
	}
	name, ok := OpNameOf(fn)
	if !ok || name != "x.test" {
		t.Fatalf("OpNameOf %q %v", name, ok)
	}
	if _, ok := OpNameOf(nil); ok {
		t.Fatal("nil function has a name")
	}
	got, ok := OpByName("x.test")
	if !ok || got == nil {
		t.Fatal("OpByName miss")
	}
	if _, ok := OpByName("nosuch"); ok {
		t.Fatal("unknown op resolved")
	}
}

// classOf extracts the MPI error class from err, or ErrOther if err is
// not an *Error. ok reports whether err wraps an *Error.
func classOf(err error) (class ErrClass, ok bool) {
	var me *Error
	if errors.As(err, &me) {
		return me.Class, true
	}
	return ErrOther, false
}

func TestErrorClassOf(t *testing.T) {
	err := Errorf(ErrTruncate, "too big: %d", 5)
	if err.Error() == "" || err.Class != ErrTruncate {
		t.Fatalf("error %v", err)
	}
	cls, ok := classOf(err)
	if !ok || cls != ErrTruncate {
		t.Fatalf("ClassOf %v %v", cls, ok)
	}
	if _, ok := classOf(nil); ok {
		t.Fatal("nil error has a class")
	}
	for c := ErrOther; c <= ErrInStatus; c++ {
		if c.String() == "" {
			t.Errorf("class %d unnamed", int(c))
		}
	}
}

func TestCombinerAndStrategyStrings(t *testing.T) {
	if CombinerVector.String() != "MPI_COMBINER_VECTOR" {
		t.Fatal("combiner name")
	}
	if CombinerNamed.String() != "MPI_COMBINER_NAMED" {
		t.Fatal("combiner name")
	}
}
