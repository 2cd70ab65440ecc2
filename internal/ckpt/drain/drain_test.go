package drain

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"

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
// the given arrival sequence and returns its order, as world ranks.
func sparseOrder(t *testing.T, matrix [][]int64, arrival []int) []int {
	t.Helper()
	g := newRows(len(matrix), 0, len(arrival))
	for _, p := range arrival {
		addDense(t, g, p, matrix[p])
	}
	return holderIDs(g, g.order())
}

func addDense(t *testing.T, g *rows, p int, row []int64) {
	t.Helper()
	sent := make([]uint64, len(row))
	for q, c := range row {
		sent[q] = uint64(c)
	}
	if _, err := g.add(p, appendRow(nil, sentList(sent))); err != nil {
		t.Fatal(err)
	}
}

// holderIDs maps holder indexes to the world ranks they stand for.
func holderIDs(g *rows, idx []int32) []int {
	out := make([]int, len(idx))
	for i, x := range idx {
		out[i] = int(g.holders[x].id)
	}
	return out
}

// filtered keeps the ranks of order whose row the matrix holds: what
// the dense reference says of the holders alone.
func filtered(order []int, matrix [][]int64) []int {
	out := []int{}
	for _, r := range order {
		if matrix[r] != nil {
			out = append(out, r)
		}
	}
	return out
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
	// Only ranks 1 and 2 announced: the order covers exactly those two,
	// as the dense reference orders them.
	matrix := [][]int64{nil, {3, 0, 0}, {0, 2, 0}, nil}
	got := sparseOrder(t, matrix, knownRows(matrix))
	if ref := filtered(orderOf(matrix), matrix); !reflect.DeepEqual(got, ref) {
		t.Fatalf("order %v, reference %v", got, ref)
	}
	// 2 sent to 1, so 2 precedes 1.
	if want := []int{2, 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("order %v, want %v", got, want)
	}
}

// TestOrderMatchesDenseReference is the property the drain order rests
// on: over seeded random send graphs the order of the rows a rank holds
// is the dense reference's order of the (partial) matrix of those rows
// filtered to the holders, sequence for sequence — after each single
// row as they arrive in a random sequence (the partial graphs the
// incremental drain orders by), with every row known, where the
// filter drops nothing, and with the rows a drain actually holds: those
// of the ranks that sent to it, and its own.
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
			g := newRows(n, rng.Intn(n), rng.Intn(n+1))
			for i, p := range arrival {
				partial[p] = matrix[p]
				addDense(t, g, p, matrix[p])
				graphs++
				got := holderIDs(g, g.order())
				if want := filtered(orderOf(partial), partial); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s seed %d n=%d after %d rows (arrival %v):\n sparse %v\n dense  %v", sh.name, seed, n, i+1, arrival, got, want)
				}
			}

			// What a drain holds: the rows of me's senders, and its own.
			me := rng.Intn(n)
			senders := make([][]int64, n)
			g = newRows(n, me, 1)
			for _, p := range arrival {
				if p == me || matrix[p][me] > 0 {
					senders[p] = matrix[p]
					addDense(t, g, p, matrix[p])
				}
			}
			graphs++
			if got, want := holderIDs(g, g.order()), filtered(orderOf(senders), senders); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s seed %d n=%d rank %d's senders:\n sparse %v\n dense  %v", sh.name, seed, n, me, got, want)
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
	g := newRows(5, 2, 1)
	i, err := g.add(2, row)
	if err != nil {
		t.Fatal(err)
	}
	if h := g.holders[i]; h.id != 2 || h.toMe != 9 || len(g.holders) != 1 {
		t.Fatalf("holder %+v of %d", h, len(g.holders))
	}
	if h := g.holders[i]; !reflect.DeepEqual(g.succ[h.off:h.end], []int32{1, 4}) {
		t.Fatalf("successors %v, want [1 4]", g.succ[h.off:h.end])
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
			g := newRows(n, 0, 2)
			if _, err := g.add(1, []int64{1, 2, 6}); err != nil {
				t.Fatal(err)
			}
			_, err := g.add(sender, tc.row)
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
			if len(g.holders) != 1 || g.holders[0].id != 1 || len(g.succ) != 1 {
				t.Fatalf("rejected row changed the graph: holders=%+v succ=%v", g.holders, g.succ)
			}
			// The sender may still announce properly afterwards.
			if _, err := g.add(sender, []int64{1, 0, 2}); err != nil {
				t.Fatal(err)
			}
		})
	}
	g := newRows(n, 0, 1)
	if _, err := g.add(sender, []int64{0}); err != nil {
		t.Fatal(err)
	}
	var re *RowError
	if _, err := g.add(sender, []int64{0}); !errors.As(err, &re) || re.Sender != sender {
		t.Fatalf("second announcement: %v", err)
	}
}

// TestAbsorbAllocatesNoRowStorage: a rank's rows grow with its senders,
// not with the job. Absorbing the rows a halo rank receives — from its
// six senders, and its own — and ordering them twice costs the same
// heap objects and holds the same bytes at 256 and at 4096 ranks: the
// rows themselves, the holders, the order's scratch and the successor
// arena, each allocated once from the hint. Any per-peer array of n
// entries, or an arena sized for n rows, would differ.
func TestAbsorbAllocatesNoRowStorage(t *testing.T) {
	halo := []int{1, 2, 3, -3, -2, -1}
	// absorb builds rank me's rows in an n-rank halo job, where every
	// rank sent two messages to each of its six neighbours.
	absorb := func(t *testing.T, n int, in [][]int64) *rows {
		g := newRows(n, 0, len(halo)+1)
		for _, row := range in {
			if _, err := g.add(int(row[len(row)-1]), row[:len(row)-1]); err != nil {
				t.Fatal(err)
			}
		}
		g.order()
		g.order()
		return g
	}
	measure := func(n int) (allocs float64, bytes int) {
		// The rows rank 0 receives, each with its sender appended.
		var in [][]int64
		for _, d := range append([]int{0}, halo...) {
			p := (n + d) % n
			sent := make([]uint64, n)
			for _, e := range halo {
				sent[(p+e+n)%n] = 2
			}
			in = append(in, append(appendRow(nil, sentList(sent)), int64(p)))
		}
		allocs = testing.AllocsPerRun(5, func() { rowsSink = absorb(t, n, in) })
		g := absorb(t, n, in)
		if len(g.holders) != len(halo)+1 {
			t.Fatalf("%d holders, want %d", len(g.holders), len(halo)+1)
		}
		bytes = int(unsafe.Sizeof(*g)) + cap(g.holders)*int(unsafe.Sizeof(holder{})) + 4*cap(g.succ) + 4*cap(g.scratch)
		return allocs, bytes
	}
	smallA, smallB := measure(256)
	largeA, largeB := measure(4096)
	t.Logf("rows of a 7-row rank: %v objects, %d bytes at 256 ranks; %v objects, %d bytes at 4096", smallA, smallB, largeA, largeB)
	if smallA != largeA || smallB != largeB {
		t.Fatalf("rows cost %v objects / %d bytes at 256 ranks but %v / %d at 4096", smallA, smallB, largeA, largeB)
	}
	// The rows, the holders and the scratch from newRows, and the arena
	// at the first row.
	if smallA > 4 {
		t.Fatalf("%v allocations to absorb and order 7 rows, want <= 4", smallA)
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

// scriptEnv is one rank's drain environment whose control inbox is a
// script: the messages other ranks sent it, in arrival order, each
// arriving once the rank has sent after messages itself. Nothing was
// sent to the rank on an application communicator.
type scriptEnv struct {
	ckpt.DrainEnv // unused methods panic
	me, n         int
	counters      ckptimg.Counters
	inbox         []scripted
	sent          []scripted
	phase         string
}

type scripted struct {
	peer  int
	vals  []int64
	after int
}

func (e *scriptEnv) Rank() int                        { return e.me }
func (e *scriptEnv) Size() int                        { return e.n }
func (e *scriptEnv) Counters() ckptimg.Counters       { return e.counters }
func (e *scriptEnv) RecvFrom(p int) uint64            { return e.counters.Recv(p) }
func (e *scriptEnv) Comms() ([]ckpt.DrainComm, error) { return nil, nil }
func (e *scriptEnv) SetPhase(phase string)            { e.phase = phase }

func (e *scriptEnv) CtlSend(dest, tag int, vals []int64) error {
	e.sent = append(e.sent, scripted{dest, slices.Clone(vals), 0})
	return nil
}

func (e *scriptEnv) CtlIprobe(src, tag int) (bool, int, int, error) {
	if len(e.inbox) == 0 || e.inbox[0].after > len(e.sent) {
		return false, 0, 0, nil
	}
	return true, e.inbox[0].peer, len(e.inbox[0].vals), nil
}

func (e *scriptEnv) CtlWait(src, tag int) error {
	return errors.New("scriptEnv: would block")
}

func (e *scriptEnv) CtlRecv(src, tag, count int) ([]int64, error) {
	m := e.inbox[0]
	e.inbox = e.inbox[1:]
	return m.vals, nil
}

// TestCloseTree drives one rank of the close through scripted inboxes:
// rank 2 of 7 has child 3 and parent 0, sends its row only to the peer
// it sent to, reports once its child has, and forwards the release; a
// token from the wrong rank, a second release or a row with another
// negative header is an error naming the sender, and a rank left waiting
// names the rank it waits on.
func TestCloseTree(t *testing.T) {
	var c ckptimg.Counters
	c.AddSent(5)
	c.AddSent(2) // a self-send: no announcement
	c.AddRecv(2)
	row := appendRow(nil, c)
	run := func(inbox ...scripted) (*scriptEnv, error) {
		e := &scriptEnv{me: 2, n: 7, counters: c, inbox: inbox}
		return e, (&TopoSort{}).Drain(e)
	}
	e, err := run(scripted{3, tokenAnnounced, 0}, scripted{0, tokenRelease, 2})
	if err != nil {
		t.Fatal(err)
	}
	want := []scripted{{5, row, 0}, {0, tokenAnnounced, 0}, {3, tokenRelease, 0}}
	if !reflect.DeepEqual(e.sent, want) || e.phase != "done" {
		t.Fatalf("sent %v (phase %q), want %v", e.sent, e.phase, want)
	}
	for _, tc := range []struct {
		name  string
		inbox []scripted
		want  string
	}{
		{"report from a non-child", []scripted{{1, tokenAnnounced, 0}}, "close report from rank 1"},
		{"report twice", []scripted{{3, tokenAnnounced, 0}, {3, tokenAnnounced, 0}}, "close report from rank 3"},
		{"release from a non-parent", []scripted{{3, tokenAnnounced, 0}, {1, tokenRelease, 2}}, "release from rank 1"},
		{"release before the report", []scripted{{0, tokenRelease, 0}}, "release from rank 0"},
		{"second release", []scripted{{3, tokenAnnounced, 0}, {0, tokenRelease, 2}, {0, tokenRelease, 2}}, "release from rank 0"},
		{"other negative header", []scripted{{4, []int64{-3}, 0}}, "rank 4"},
		{"waiting on the child", nil, "would block"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := run(tc.inbox...)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want mention of %q", err, tc.want)
			}
			if tc.inbox == nil && e.phase != "toposort:close awaiting rank 3" {
				t.Fatalf("phase %q", e.phase)
			}
		})
	}
	if e, err := run(scripted{3, tokenAnnounced, 0}); err == nil || e.phase != "toposort:close awaiting rank 0" {
		t.Fatalf("reported rank with no release: error %v, phase %q, want the parent named", err, e.phase)
	}
}

// Compile-time check: scriptEnv stands in for a rank.
var _ ckpt.DrainEnv = (*scriptEnv)(nil)
