package drain

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"manasim/internal/ckpt"
	"manasim/internal/ckptimg"
)

func TestBuiltinsRegistered(t *testing.T) {
	names := ckpt.DrainNames()
	want := []string{"toposort", "twophase"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("registered %v, want %v", names, want)
	}
	for _, n := range names {
		s, err := ckpt.NewDrain(n)
		if err != nil {
			t.Fatal(err)
		}
		if s.Name() != n {
			t.Fatalf("strategy %q reports name %q", n, s.Name())
		}
	}
	// The empty name resolves to the default two-phase protocol.
	s, err := ckpt.NewDrain("")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != ckpt.DefaultDrain {
		t.Fatalf("default strategy %q", s.Name())
	}
}

// sparseOrder feeds the known rows of a dense matrix to a rows graph in
// the given arrival sequence and returns its order.
func sparseOrder(t *testing.T, matrix [][]int64, arrival []int) []int {
	t.Helper()
	g := newRows(len(matrix), 0)
	for _, p := range arrival {
		addDense(t, g, p, matrix[p])
	}
	return ints(g.order())
}

func addDense(t *testing.T, g *rows, p int, row []int64) {
	t.Helper()
	sent := make([]uint64, len(row))
	for q, c := range row {
		sent[q] = uint64(c)
	}
	if err := g.add(p, appendRow(nil, sentList(sent))); err != nil {
		t.Fatal(err)
	}
}

// sentList is the counter list of a rank whose send counts are the
// dense vector sent, built as the runtime builds it, one message at a
// time.
func sentList(sent []uint64) ckptimg.Counters {
	var c ckptimg.Counters
	for p, n := range sent {
		for range n {
			c.AddSent(p)
		}
	}
	return c
}

func ints(v []int32) []int {
	out := make([]int, len(v))
	for i, x := range v {
		out[i] = int(x)
	}
	return out
}

// knownRows lists the ranks whose row the matrix holds, ascending.
func knownRows(matrix [][]int64) []int {
	var out []int
	for p, row := range matrix {
		if row != nil {
			out = append(out, p)
		}
	}
	return out
}

func TestOrderOfAcyclicGraph(t *testing.T) {
	// 2 -> 0 -> 1; 3 isolated. Senders precede the ranks that depend on
	// their traffic, ties at the smallest rank.
	matrix := [][]int64{
		0: {0, 5, 0, 0},
		1: {0, 0, 0, 0},
		2: {7, 0, 0, 0},
		3: {0, 0, 0, 0},
	}
	want := []int{2, 0, 1, 3}
	if got := orderOf(matrix); !reflect.DeepEqual(got, want) {
		t.Fatalf("reference order %v, want %v", got, want)
	}
	if got := sparseOrder(t, matrix, knownRows(matrix)); !reflect.DeepEqual(got, want) {
		t.Fatalf("order %v, want %v", got, want)
	}
}

func TestOrderOfRingCycleIsDeterministic(t *testing.T) {
	// A 4-rank ring: one big cycle, broken at the smallest rank, then
	// unwound in send order.
	matrix := make([][]int64, 4)
	for p := range matrix {
		row := make([]int64, 4)
		row[(p+1)%4] = 1
		matrix[p] = row
	}
	want := []int{0, 1, 2, 3}
	if got := orderOf(matrix); !reflect.DeepEqual(got, want) {
		t.Fatalf("reference order %v, want %v", got, want)
	}
	// The arrival sequence of the rows must not matter.
	if got := sparseOrder(t, matrix, []int{2, 0, 3, 1}); !reflect.DeepEqual(got, want) {
		t.Fatalf("order %v, want %v", got, want)
	}
}

func TestOrderOfPartialMatrix(t *testing.T) {
	// Only rank 1's row is known; the order must still cover all ranks
	// exactly once.
	matrix := [][]int64{nil, {3, 0, 0}, nil}
	got := sparseOrder(t, matrix, knownRows(matrix))
	if ref := orderOf(matrix); !reflect.DeepEqual(got, ref) {
		t.Fatalf("order %v, reference %v", got, ref)
	}
	seen := make(map[int]bool)
	for _, r := range got {
		if seen[r] {
			t.Fatalf("rank %d twice in %v", r, got)
		}
		seen[r] = true
	}
	if len(got) != 3 {
		t.Fatalf("order %v", got)
	}
	// 1 sent to 0, so 1 precedes 0.
	pos := map[int]int{}
	for i, r := range got {
		pos[r] = i
	}
	if pos[1] > pos[0] {
		t.Fatalf("sender 1 ordered after dependent 0: %v", got)
	}
}

// TestOrderMatchesDenseReference is the property the byte-identical
// images rest on: over seeded random send graphs the sparse order is the
// dense reference's, sequence for sequence — with every row known, and
// after each single row as they arrive in a random sequence (the partial
// graphs the incremental drain orders by).
func TestOrderMatchesDenseReference(t *testing.T) {
	shapes := []struct {
		name string
		// edge reports whether p sends to q in an n-rank job.
		edge func(rng *rand.Rand, n, p, q int) bool
	}{
		{"acyclic", func(rng *rand.Rand, n, p, q int) bool { return p > q && rng.Intn(4) == 0 }},
		{"ring", func(_ *rand.Rand, n, p, q int) bool { return q == (p+1)%n }},
		{"halo", func(_ *rand.Rand, n, p, q int) bool {
			d := (q - p + n) % n
			return d == 1 || d == n-1 || d == 3 || d == n-3
		}},
		{"cyclic", func(*rand.Rand, int, int, int) bool { return true }},
		{"sparse-random", func(rng *rand.Rand, n, p, q int) bool { return rng.Intn(n) < 3 }},
		{"dense-random", func(rng *rand.Rand, n, p, q int) bool { return rng.Intn(2) == 0 }},
	}
	graphs := 0
	for _, sh := range shapes {
		for seed := int64(1); seed <= 120; seed++ {
			rng := rand.New(rand.NewSource(seed))
			n := 1 + rng.Intn(24)
			matrix := make([][]int64, n)
			for p := range matrix {
				matrix[p] = make([]int64, n)
				for q := range matrix[p] {
					if p == q {
						// Self-sends are counted but are no dependency.
						if rng.Intn(3) == 0 {
							matrix[p][q] = 1 + rng.Int63n(5)
						}
						continue
					}
					if sh.edge(rng, n, p, q) {
						matrix[p][q] = 1 + rng.Int63n(5)
					}
				}
			}
			arrival := rng.Perm(n)
			partial := make([][]int64, n)
			g := newRows(n, rng.Intn(n))
			for i, p := range arrival {
				partial[p] = matrix[p]
				addDense(t, g, p, matrix[p])
				graphs++
				if got, want := ints(g.order()), orderOf(partial); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s seed %d n=%d after %d rows (arrival %v):\n sparse %v\n dense  %v", sh.name, seed, n, i+1, arrival, got, want)
				}
			}
		}
	}
	if graphs < 3000 {
		t.Fatalf("only %d graphs checked", graphs)
	}
}

// TestRowRoundTrip pins the wire format and what add keeps of a row.
func TestRowRoundTrip(t *testing.T) {
	// Rank 3 only received: it has an entry, and no place in the row.
	c := sentList([]uint64{0, 4, 9, 0, 1})
	c.AddRecv(3)
	row := appendRow(nil, c)
	if want := []int64{3, 1, 4, 2, 9, 4, 1}; !reflect.DeepEqual(row, want) {
		t.Fatalf("row %v, want %v", row, want)
	}
	var quiet ckptimg.Counters
	quiet.AddRecv(2)
	if len(appendRow(nil, nil)) != 1 || len(appendRow(nil, quiet)) != 1 {
		t.Fatal("a rank that sent nothing announces more than [0]")
	}
	if got := len(appendRow(nil, sentList([]uint64{1, 1, 1}))); got != 1+2*3 {
		t.Fatalf("full row has %d values, want %d", got, 1+2*3)
	}
	// Rank 2 sent 9 messages to itself: counted for rank 2 alone, and no
	// edge of the graph.
	g := newRows(5, 2)
	if err := g.add(2, row); err != nil {
		t.Fatal(err)
	}
	if g.toMe[2] != 9 || g.have != 1 {
		t.Fatalf("toMe %v have %d", g.toMe, g.have)
	}
	if got := g.succ[g.off[2]:g.end[2]]; !reflect.DeepEqual(got, []int32{1, 4}) {
		t.Fatalf("successors %v, want [1 4]", got)
	}
}

// TestMalformedRowsRejected: a row is input from another rank. Every
// violation of the format is an error naming the sender, leaves the
// graph as it was, and never indexes out of range.
func TestMalformedRowsRejected(t *testing.T) {
	const n, sender = 4, 3
	cases := []struct {
		name string
		row  []int64
		want string
	}{
		{"empty", []int64{}, "empty"},
		{"odd length", []int64{1, 2}, "values for"},
		{"short for k", []int64{2, 0, 1}, "values for"},
		{"long for k", []int64{1, 0, 1, 2, 1}, "values for"},
		{"k above n", []int64{5, 0, 1, 1, 1, 2, 1, 3, 1, 3, 1}, "entries announced"},
		{"negative k", []int64{-1}, "entries announced"},
		{"peer too large", []int64{1, n, 1}, "outside"},
		{"peer negative", []int64{1, -1, 1}, "outside"},
		{"peers unsorted", []int64{2, 2, 1, 0, 1}, "ascending"},
		{"peer duplicated", []int64{2, 1, 1, 1, 1}, "ascending"},
		{"zero count", []int64{1, 0, 0}, "count"},
		{"negative count", []int64{2, 0, 1, 1, -7}, "count"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := newRows(n, 0)
			if err := g.add(1, []int64{1, 2, 6}); err != nil {
				t.Fatal(err)
			}
			err := g.add(sender, tc.row)
			var re *RowError
			if !errors.As(err, &re) {
				t.Fatalf("row %v: error %v, want *RowError", tc.row, err)
			}
			if re.Sender != sender || !strings.Contains(err.Error(), "rank 3") {
				t.Fatalf("error does not name the sender: %v", err)
			}
			if !strings.Contains(re.Reason, tc.want) {
				t.Fatalf("reason %q, want mention of %q", re.Reason, tc.want)
			}
			if g.have != 1 || g.known[sender] || len(g.succ) != 1 {
				t.Fatalf("rejected row changed the graph: have=%d known=%v succ=%v", g.have, g.known, g.succ)
			}
			// The sender may still announce properly afterwards.
			if err := g.add(sender, []int64{1, 0, 2}); err != nil {
				t.Fatal(err)
			}
		})
	}
	g := newRows(n, 0)
	if err := g.add(sender, []int64{0}); err != nil {
		t.Fatal(err)
	}
	var re *RowError
	if err := g.add(sender, []int64{0}); !errors.As(err, &re) || re.Sender != sender {
		t.Fatalf("second announcement: %v", err)
	}
}

// TestAbsorbAllocatesNoRowStorage: absorbing a row costs no allocation
// of its own — the successor lists share one arena, sized at the first
// row for every row to come — and the rows' per-peer arrays are carved
// from three backing arrays. One slice per row was measured to push the
// 256-rank drain's allocation count above the parent's; eight per-peer
// slices and an arena doubling a dozen times made the rows ≈ 15 heap
// objects per rank of a 256-rank toposort drain.
func TestAbsorbAllocatesNoRowStorage(t *testing.T) {
	const n = 256
	rowsIn := make([][]int64, n)
	for p := range rowsIn {
		sent := make([]uint64, n)
		for _, d := range []int{1, 2, 3, n - 3, n - 2, n - 1} {
			sent[(p+d)%n] = 2
		}
		rowsIn[p] = appendRow(nil, sentList(sent))
	}
	if allocs := testing.AllocsPerRun(5, func() { rowsSink = newRows(n, 0) }); allocs > 4 {
		t.Errorf("newRows allocates %v objects for %d ranks, want <= 4", allocs, n)
	}
	allocs := testing.AllocsPerRun(5, func() {
		g := newRows(n, 0)
		for p, row := range rowsIn {
			if err := g.add(p, row); err != nil {
				t.Fatal(err)
			}
		}
		g.order()
		g.order()
		rowsSink = g
	})
	// newRows makes 4; the arena is allocated once, at the first row,
	// for n rows of its length.
	if allocs > 5 {
		t.Fatalf("%v allocations to absorb and order %d rows, want <= 5", allocs, n)
	}
}

// rowsSink keeps the rows an allocation count builds reachable, so the
// compiler cannot place them on the stack.
var rowsSink *rows

// orderOf is the reference the sparse order is checked against: the
// O(n²) topological sort over the dense (possibly partial) n×n send
// matrix that rows.order replaced. It sorts the ranks of the matrix: an edge p→q exists when p sent q at least one message, so
// senders come before the ranks that depend on their traffic. Cycles —
// a ring pipeline is one big cycle — are broken at the smallest
// remaining rank, making the order deterministic and identical on every
// rank once the matrix is complete.
func orderOf(matrix [][]int64) []int {
	n := len(matrix)
	indeg := make([]int, n)
	for p, row := range matrix {
		if row == nil {
			continue
		}
		for q, cnt := range row {
			if q != p && cnt > 0 {
				indeg[q]++
			}
		}
	}
	done := make([]bool, n)
	order := make([]int, 0, n)
	for len(order) < n {
		pick := -1
		for r := 0; r < n; r++ {
			if !done[r] && indeg[r] == 0 {
				pick = r
				break
			}
		}
		if pick < 0 {
			// Cycle: break it at the smallest remaining rank.
			for r := 0; r < n; r++ {
				if !done[r] {
					pick = r
					break
				}
			}
		}
		done[pick] = true
		order = append(order, pick)
		if row := matrix[pick]; row != nil {
			for q, cnt := range row {
				if q != pick && cnt > 0 && indeg[q] > 0 {
					indeg[q]--
				}
			}
		}
	}
	return order
}
