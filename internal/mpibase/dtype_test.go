package mpibase

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"manasim/internal/mpi"
	"manasim/internal/simtime"
	"manasim/internal/transport"
)

// testEngine builds a single-rank engine for local object tests.
func testEngine(t *testing.T) *Engine {
	t.Helper()
	fab := transport.NewFabric(1)
	t.Cleanup(fab.Close)
	return NewEngine(fab, 0, simtime.NewClock(), simtime.NetModel{})
}

// pack packs count elements of buf into a fresh dense payload.
func pack(d *Dtype, buf []byte, count int) []byte {
	return d.PackInto(make([]byte, count*d.SizeB), buf, count)
}

func TestPrimitiveSizes(t *testing.T) {
	cases := map[mpi.ConstName]int{
		mpi.ConstByte:    1,
		mpi.ConstChar:    1,
		mpi.ConstInt32:   4,
		mpi.ConstInt64:   8,
		mpi.ConstUint64:  8,
		mpi.ConstFloat32: 4,
		mpi.ConstFloat64: 8,
	}
	for name, want := range cases {
		d := predefDtypes[name]
		if d == nil {
			t.Fatalf("missing predefined %v", name)
		}
		if d.SizeB != want || d.ExtentB != want {
			t.Errorf("%v: size=%d extent=%d want %d", name, d.SizeB, d.ExtentB, want)
		}
		if !d.contiguous() {
			t.Errorf("%v not contiguous", name)
		}
	}
}

// TestPredefinedTablesCoverEveryConstant: LookupConst hands the shared
// table's entry for every datatype and op constant to the handle table
// unchecked, so each such constant must have one.
func TestPredefinedTablesCoverEveryConstant(t *testing.T) {
	for name := mpi.ConstName(0); name < mpi.NumConstNames; name++ {
		hasDt, hasOp := predefDtypes[name] != nil, predefOps[name] != nil
		if hasDt != (name.Kind() == mpi.KindDatatype) || hasOp != (name.Kind() == mpi.KindOp) {
			t.Errorf("%v (kind %v): datatype entry %v, op entry %v", name, name.Kind(), hasDt, hasOp)
		}
	}
}

func TestContiguousPackUnpack(t *testing.T) {
	e := testEngine(t)
	f64 := predefDtypes[mpi.ConstFloat64]
	d, err := e.TypeContiguous(4, f64)
	if err != nil {
		t.Fatal(err)
	}
	if d.SizeB != 32 || d.ExtentB != 32 || !d.contiguous() {
		t.Fatalf("contiguous: %+v", d)
	}
	src := mpi.Float64Bytes([]float64{1, 2, 3, 4, 5, 6, 7, 8})
	packed := pack(d, src, 2)
	if !bytes.Equal(packed, src) {
		t.Fatal("contiguous pack must be identity")
	}
	dst := make([]byte, len(src))
	d.Unpack(packed, dst, 2)
	if !bytes.Equal(dst, src) {
		t.Fatal("contiguous unpack must be identity")
	}
}

func TestVectorPackUnpack(t *testing.T) {
	e := testEngine(t)
	f64 := predefDtypes[mpi.ConstFloat64]
	// 3 blocks of 2 elements, stride 4: picks [0,1], [4,5], [8,9].
	d, err := e.TypeVector(3, 2, 4, f64)
	if err != nil {
		t.Fatal(err)
	}
	if d.SizeB != 48 {
		t.Fatalf("vector size %d", d.SizeB)
	}
	if d.ExtentB != ((3-1)*4+2)*8 {
		t.Fatalf("vector extent %d", d.ExtentB)
	}
	vals := make([]float64, 10)
	for i := range vals {
		vals[i] = float64(i)
	}
	packed := pack(d, mpi.Float64Bytes(vals), 1)
	got := mpi.Float64s(packed)
	want := []float64{0, 1, 4, 5, 8, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("packed %v want %v", got, want)
		}
	}
	// Unpack into a zeroed strided buffer: holes stay zero.
	dst := make([]byte, d.BufLen(1))
	d.Unpack(packed, dst, 1)
	back := mpi.Float64s(dst)
	for i, w := range []float64{0, 1, 0, 0, 4, 5, 0, 0, 8, 9} {
		if back[i] != w {
			t.Fatalf("unpacked %v", back)
		}
	}
}

func TestIndexedPackUnpack(t *testing.T) {
	e := testEngine(t)
	i32 := predefDtypes[mpi.ConstInt32]
	// Blocks: 2 elements at displacement 1, 1 element at displacement 5.
	d, err := e.TypeIndexed([]int{2, 1}, []int{1, 5}, i32)
	if err != nil {
		t.Fatal(err)
	}
	if d.SizeB != 12 {
		t.Fatalf("indexed size %d", d.SizeB)
	}
	vals := []int32{100, 101, 102, 103, 104, 105}
	packed := pack(d, mpi.Int32Bytes(vals), 1)
	got := mpi.Int32s(packed)
	want := []int32{101, 102, 105}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("indexed packed %v want %v", got, want)
		}
	}
}

func TestNestedDatatypes(t *testing.T) {
	e := testEngine(t)
	f64 := predefDtypes[mpi.ConstFloat64]
	inner, err := e.TypeVector(2, 1, 2, f64) // elements 0 and 2 of a 3-slot span
	if err != nil {
		t.Fatal(err)
	}
	outer, err := e.TypeContiguous(2, inner)
	if err != nil {
		t.Fatal(err)
	}
	if outer.SizeB != 2*inner.SizeB {
		t.Fatalf("nested size %d", outer.SizeB)
	}
	vals := make([]float64, 8)
	for i := range vals {
		vals[i] = float64(10 + i)
	}
	packed := pack(outer, mpi.Float64Bytes(vals), 1)
	got := mpi.Float64s(packed)
	// inner extent = 3 slots; contiguous x2 places second element at slot 3.
	want := []float64{10, 12, 13, 15}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("nested packed %v want %v", got, want)
		}
	}
}

func TestPackUnpackRoundTripProperty(t *testing.T) {
	e := testEngine(t)
	f64 := predefDtypes[mpi.ConstFloat64]
	// Property: Unpack(Pack(x)) restores exactly the bytes Pack selected,
	// for arbitrary vector shapes.
	f := func(countU, blockU, strideU uint8, count2U uint8) bool {
		count := int(countU%4) + 1
		block := int(blockU%3) + 1
		stride := block + int(strideU%3) // stride >= blocklen keeps blocks disjoint
		d, err := e.TypeVector(count, block, stride, f64)
		if err != nil {
			return false
		}
		n := int(count2U%3) + 1
		src := make([]byte, d.BufLen(n))
		for i := range src {
			src[i] = byte(i * 31)
		}
		packed := pack(d, src, n)
		if len(packed) != n*d.SizeB {
			return false
		}
		dst := make([]byte, len(src))
		d.Unpack(packed, dst, n)
		repacked := pack(d, dst, n)
		return bytes.Equal(packed, repacked)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBufLenProperty(t *testing.T) {
	e := testEngine(t)
	i32 := predefDtypes[mpi.ConstInt32]
	// Property: Pack never reads past BufLen(count).
	f := func(countU, blockU, strideU, nU uint8) bool {
		count := int(countU%5) + 1
		block := int(blockU%4) + 1
		stride := block + int(strideU%4)
		d, err := e.TypeVector(count, block, stride, i32)
		if err != nil {
			return false
		}
		n := int(nU%4) + 1
		buf := make([]byte, d.BufLen(n)) // exactly the minimum
		defer func() { recover() }()
		_ = pack(d, buf, n)
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGroupMath(t *testing.T) {
	g := &Group{Ranks: []int{4, 2, 7}}
	if g.Size() != 3 {
		t.Fatal("size")
	}
	if g.RankOf(2) != 1 || g.RankOf(9) != mpi.Undefined {
		t.Fatal("RankOf")
	}
	if c := g.Clone(); !slices.Equal(c.Ranks, g.Ranks) || c.Predefined {
		t.Fatalf("Clone has members %v predefined %v", c.Ranks, c.Predefined)
	}
	// Every group and communicator derived from the world reports the
	// world's members; a subgroup's communicator reports the subgroup's.
	e := testEngine(t)
	world := &e.worldComm
	dup, err := e.CommDup(world)
	if err != nil || !slices.Equal(dup.Group.Ranks, world.Group.Ranks) || dup.MyRank != world.MyRank {
		t.Fatalf("CommDup: %v, members %v rank %d", err, dup.Group.Ranks, dup.MyRank)
	}
	if wg := world.Group.Clone(); !slices.Equal(wg.Ranks, world.Group.Ranks) || wg.Predefined {
		t.Fatalf("world group clone has members %v predefined %v", wg.Ranks, wg.Predefined)
	}
	sub, err := e.GroupIncl(world.Group, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	created, err := e.CommCreate(dup, sub)
	if err != nil || !slices.Equal(created.Group.Ranks, sub.Ranks) || created.MyRank != 0 {
		t.Fatalf("CommCreate: %v, members %v rank %d", err, created.Group.Ranks, created.MyRank)
	}
}

func TestCombinePredefinedOps(t *testing.T) {
	// SUM/MAX/MIN/PROD on float64.
	acc := mpi.Float64Bytes([]float64{1, 5, -2})
	in := mpi.Float64Bytes([]float64{3, 2, -7})
	combine(mpi.ConstOpSum, mpi.ConstFloat64, in, acc, 3)
	got := mpi.Float64s(acc)
	if got[0] != 4 || got[1] != 7 || got[2] != -9 {
		t.Fatalf("sum %v", got)
	}
	acc = mpi.Float64Bytes([]float64{1, 5}) // max
	in = mpi.Float64Bytes([]float64{3, 2})
	combine(mpi.ConstOpMax, mpi.ConstFloat64, in, acc, 2)
	if got := mpi.Float64s(acc); got[0] != 3 || got[1] != 5 {
		t.Fatalf("max %v", got)
	}
	// Integer bitwise.
	acc = mpi.Int32Bytes([]int32{0b1100})
	in = mpi.Int32Bytes([]int32{0b1010})
	combine(mpi.ConstOpBand, mpi.ConstInt32, in, acc, 1)
	if got := mpi.Int32s(acc)[0]; got != 0b1000 {
		t.Fatalf("band %b", got)
	}
	combine(mpi.ConstOpBor, mpi.ConstInt32, mpi.Int32Bytes([]int32{0b0011}), acc, 1)
	if got := mpi.Int32s(acc)[0]; got != 0b1011 {
		t.Fatalf("bor %b", got)
	}
	// Logical on int64.
	acc = mpi.Int64Bytes([]int64{5, 0})
	in = mpi.Int64Bytes([]int64{0, 0})
	combine(mpi.ConstOpLand, mpi.ConstInt64, in, acc, 2)
	if got := mpi.Int64s(acc); got[0] != 0 || got[1] != 0 {
		t.Fatalf("land %v", got)
	}
}

func TestCombineSumCommutesProperty(t *testing.T) {
	f := func(a, b []int64) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		a, b = a[:n], b[:n]
		x := mpi.Int64Bytes(a)
		y := mpi.Int64Bytes(b)
		combine(mpi.ConstOpSum, mpi.ConstInt64, y, x, n) // x += y
		x2 := mpi.Int64Bytes(b)
		y2 := mpi.Int64Bytes(a)
		combine(mpi.ConstOpSum, mpi.ConstInt64, y2, x2, n) // x2 += y2
		return bytes.Equal(x, x2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPrimElemUnwrapsContiguous(t *testing.T) {
	e := testEngine(t)
	f64 := predefDtypes[mpi.ConstFloat64]
	c1, _ := e.TypeContiguous(3, f64)
	c2, _ := e.TypeContiguous(2, c1)
	name, ok := primElem(c2)
	if !ok || name != mpi.ConstFloat64 {
		t.Fatalf("primElem = %v ok=%v", name, ok)
	}
	v, _ := e.TypeVector(2, 1, 2, f64)
	if _, ok := primElem(v); ok {
		t.Fatal("vector must not unwrap to a primitive")
	}
}

// appendCoalesce is the reference layout reproduces: every segment
// appended one by one, then adjacent ones merged by coalesce.
func appendCoalesce(base *Dtype, blocks int, block func(i int) (displ, n int)) []seg {
	var segs []seg
	for i := 0; i < blocks; i++ {
		displ, n := block(i)
		for j := 0; j < n; j++ {
			off := (displ + j) * base.ExtentB
			for _, s := range base.segs {
				segs = append(segs, seg{off + s.off, s.n})
			}
		}
	}
	return coalesce(segs)
}

// coalesce merges adjacent segments.
func coalesce(in []seg) []seg {
	if len(in) == 0 {
		return in
	}
	out := in[:1]
	for _, s := range in[1:] {
		last := &out[len(out)-1]
		if last.off+last.n == s.off {
			last.n += s.n
			continue
		}
		out = append(out, s)
	}
	return out
}

// TestLayoutMatchesAppendCoalesce builds contiguous, vector and indexed
// datatypes over dense and strided bases — overlapping, touching,
// negative and empty blocks included — and requires each segment list
// to equal the append-then-coalesce reference and to be allocated once:
// a derived datatype costs its Dtype, Ints, Bases and segment list.
func TestLayoutMatchesAppendCoalesce(t *testing.T) {
	e := testEngine(t)
	f64, u8 := predefDtypes[mpi.ConstFloat64], predefDtypes[mpi.ConstByte]
	strided, _ := e.TypeVector(2, 1, 3, f64) // two 8 B pieces 24 B apart
	holey, _ := e.TypeIndexed([]int{2, 1}, []int{1, 4}, u8)
	type tcase struct {
		name   string
		build  func() (*Dtype, error)
		base   *Dtype
		blocks int
		block  func(i int) (int, int)
	}
	contig := func(count int, base *Dtype) tcase {
		return tcase{fmt.Sprintf("contiguous %d", count),
			func() (*Dtype, error) { return e.TypeContiguous(count, base) },
			base, 1, func(int) (int, int) { return 0, count }}
	}
	vector := func(count, bl, stride int, base *Dtype) tcase {
		return tcase{fmt.Sprintf("vector %d %d %d", count, bl, stride),
			func() (*Dtype, error) { return e.TypeVector(count, bl, stride, base) },
			base, count, func(b int) (int, int) { return b * stride, bl }}
	}
	indexed := func(bls, displs []int, base *Dtype) tcase {
		return tcase{fmt.Sprintf("indexed %v %v", bls, displs),
			func() (*Dtype, error) { return e.TypeIndexed(bls, displs, base) },
			base, len(bls), func(i int) (int, int) { return displs[i], bls[i] }}
	}
	var cases []tcase
	for _, base := range []*Dtype{f64, u8, strided, holey} {
		cases = append(cases,
			contig(0, base), contig(1, base), contig(7, base),
			vector(0, 3, 5, base), vector(4, 3, 5, base), vector(4, 3, 3, base),
			vector(4, 3, 2, base), vector(3, 2, -4, base), vector(5, 0, 2, base),
			vector(100, 3, 7, base),
			indexed(nil, nil, base), indexed([]int{2, 3, 1}, []int{0, 2, 9}, base),
			indexed([]int{1, 1, 1}, []int{5, 3, 4}, base), indexed([]int{2, 0, 2}, []int{-3, 7, -1}, base),
			indexed([]int{3, 3}, []int{1, 1}, base))
	}
	for _, c := range cases {
		d, err := c.build()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if want := appendCoalesce(c.base, c.blocks, c.block); !slices.Equal(d.segs, want) {
			t.Errorf("%s of %d-segment base: segments %v, want %v", c.name, len(c.base.segs), d.segs, want)
		}
		if allocs := testing.AllocsPerRun(10, func() { c.build() }); allocs > 4 {
			t.Errorf("%s of %d-segment base: %v allocations, want at most 4", c.name, len(c.base.segs), allocs)
		}
	}
}

func TestCoalesce(t *testing.T) {
	in := []seg{{0, 4}, {4, 4}, {12, 2}, {14, 2}, {20, 1}}
	out := coalesce(in)
	want := []seg{{0, 8}, {12, 4}, {20, 1}}
	if len(out) != len(want) {
		t.Fatalf("coalesce %v", out)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("coalesce %v want %v", out, want)
		}
	}
}

// TestRankOf covers the constant-time path (a member sitting at its own
// index, as in the world group and its duplicates) and the scan behind
// it, against a plain scan as the reference.
func TestRankOf(t *testing.T) {
	scan := func(g *Group, world int) int {
		for i, w := range g.Ranks {
			if w == world {
				return i
			}
		}
		return mpi.Undefined
	}
	groups := map[string][]int{
		"world":                {0, 1, 2, 3, 4, 5},
		"permuted":             {2, 0, 1},
		"permuted, fixed rank": {0, 2, 1, 3},
		"subset":               {4, 2, 7},
		"subset, own index":    {0, 1, 5},
		"empty":                {},
	}
	for name, ranks := range groups {
		g := &Group{Ranks: ranks}
		for world := -2; world < 10; world++ {
			if got, want := g.RankOf(world), scan(g, world); got != want {
				t.Errorf("%s %v: RankOf(%d) = %d, want %d", name, ranks, world, got, want)
			}
		}
	}
	g := &Group{Ranks: groups["permuted"]}
	if g.RankOf(0) != 1 || g.RankOf(1) != 2 || g.RankOf(2) != 0 {
		t.Fatal("permuted group")
	}
	g = &Group{Ranks: groups["subset, own index"]}
	if g.RankOf(5) != 2 || g.RankOf(2) != mpi.Undefined || g.RankOf(6) != mpi.Undefined {
		t.Fatal("subset group: world rank 2 is not a member though index 2 exists")
	}
}

// TestSendDoesNotAliasCallerBuffer: exactly one copy separates the
// caller's buffer from the mailbox, and it is a copy — rewriting the
// buffer after Send returns changes neither a contiguous nor a strided
// payload already on its way.
func TestSendDoesNotAliasCallerBuffer(t *testing.T) {
	e := testEngine(t)
	i64 := predefDtypes[mpi.ConstInt64]
	// Two blocks of one element, stride 2: elements 0 and 2.
	strided, err := e.TypeVector(2, 1, 2, i64)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		dt    *Dtype
		count int
		want  []int64
	}{
		{"contiguous", i64, 3, []int64{10, 11, 12}},
		{"strided", strided, 1, []int64{10, 12}},
	}
	for tag, tc := range cases {
		buf := mpi.Int64Bytes([]int64{10, 11, 12})
		if err := e.Send(&e.worldComm, buf, tc.count, tc.dt, 0, tag); err != nil {
			t.Fatal(err)
		}
		for i := range buf {
			buf[i] = 0xFF
		}
		got := make([]byte, 8*len(tc.want))
		st, err := e.Recv(&e.worldComm, got, len(tc.want), i64, 0, tag)
		if err != nil {
			t.Fatal(err)
		}
		if st.Bytes != len(got) || !bytes.Equal(got, mpi.Int64Bytes(tc.want)) {
			t.Errorf("%s: delivered %v (%d bytes), want %v", tc.name, mpi.Int64s(got), st.Bytes, tc.want)
		}
	}
}
