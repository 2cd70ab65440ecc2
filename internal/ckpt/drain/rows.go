package drain

import (
	"fmt"

	"manasim/internal/ckptimg"
)

// RowError reports a counter announcement that violates the wire format
// (see the package documentation). The row is input from another rank,
// so it is rejected with the sender's name instead of being indexed.
type RowError struct {
	// Sender is the world rank the row came from.
	Sender int
	// Reason says which rule the row broke.
	Reason string
}

func (e *RowError) Error() string {
	return fmt.Sprintf("malformed counter announcement from rank %d: %s", e.Sender, e.Reason)
}

// appendRow appends the announcement of one rank's cumulative send
// counters to dst: [k, peer₁, count₁, …, peer_k, count_k] over the
// entries with a nonzero send count, peers ascending as in the list.
func appendRow(dst []int64, c ckptimg.Counters) []int64 {
	at := len(dst)
	dst = append(dst, 0)
	for _, e := range c {
		if e.Sent > 0 {
			dst = append(dst, int64(e.Peer), int64(e.Sent))
		}
	}
	dst[at] = int64((len(dst) - at - 1) / 2)
	return dst
}

// rows is what one rank knows of the job's send-dependency graph: the
// announcements absorbed so far, reduced to the count each sender
// addressed to this rank and the sender's successor list (the peers it
// sent to). Successor lists live back to back in one arena in arrival
// order, so absorbing a row allocates nothing once the arena has grown
// to the job's edge count, and a rank holds O(n+E) words instead of the
// n×n counter matrix.
type rows struct {
	n, me int
	have  int
	known []bool
	// toMe[p] is the number of messages p has sent this rank, as its
	// row announced it (TopoSort turns it into the count still to pull).
	toMe []int64
	// succ[off[p]:end[p]] are the ranks p sent to, ascending, p itself
	// left out.
	off, end []int32
	succ     []int32

	// scratch of order, reused across recomputations.
	indeg []int32
	done  []bool
	ready []int32
	seq   []int32
}

// newRows carves the per-peer arrays out of three backing arrays, one
// per element type, so a rank's rows cost four heap objects however
// many ranks the job has.
func newRows(n, me int) *rows {
	i32 := make([]int32, 5*n)
	flags := make([]bool, 2*n)
	return &rows{
		n: n, me: me,
		known: flags[:n:n],
		toMe:  make([]int64, n),
		off:   i32[:n:n],
		end:   i32[n : 2*n : 2*n],
		indeg: i32[2*n : 3*n : 3*n],
		done:  flags[n:],
		ready: i32[3*n : 3*n : 4*n],
		seq:   i32[4*n : 4*n],
	}
}

// add validates src's announcement and records it. A row that breaks
// the format leaves the graph untouched.
func (g *rows) add(src int, row []int64) error {
	start := len(g.succ)
	bad := func(format string, args ...any) error {
		g.succ = g.succ[:start]
		return &RowError{Sender: src, Reason: fmt.Sprintf(format, args...)}
	}
	if g.known[src] {
		return bad("announced twice")
	}
	if len(row) == 0 {
		return bad("empty row")
	}
	k := row[0]
	if k < 0 || k > int64(g.n) {
		return bad("%d entries announced in a %d-rank job", k, g.n)
	}
	if int64(len(row)) != 1+2*k {
		return bad("%d values for %d entries, want %d", len(row), k, 1+2*k)
	}
	g.reserve(int(k))
	toMe, prev := int64(0), int64(-1)
	for i := 1; i < len(row); i += 2 {
		p, c := row[i], row[i+1]
		if p < 0 || p >= int64(g.n) {
			return bad("peer %d outside [0,%d)", p, g.n)
		}
		if p <= prev {
			return bad("peer %d after peer %d: not strictly ascending", p, prev)
		}
		if c <= 0 {
			return bad("count %d for peer %d, want > 0", c, p)
		}
		prev = p
		if int(p) == g.me {
			toMe = c
		}
		if int(p) != src {
			g.succ = append(g.succ, int32(p))
		}
	}
	g.off[src], g.end[src] = int32(start), int32(len(g.succ))
	g.toMe[src] = toMe
	g.known[src] = true
	g.have++
	return nil
}

// reserve makes room in the arena for a row of k successors. It sizes
// the arena for every row still to come at this row's length, so a job
// whose ranks send to about as many peers each, a halo exchange or a
// ring, grows it once or twice, not a logarithmic number of times.
func (g *rows) reserve(k int) {
	if cap(g.succ)-len(g.succ) >= k {
		return
	}
	want := max(len(g.succ)+k*(g.n-g.have), 2*cap(g.succ))
	succ := make([]int32, len(g.succ), want)
	copy(succ, g.succ)
	g.succ = succ
}

// order topologically sorts the ranks over the announcements absorbed so
// far: an edge p→q exists when p sent q at least one message, so senders
// come before the ranks that depend on their traffic. Among the ranks
// with no unsorted predecessor the smallest goes first; a cycle — a ring
// pipeline is one big cycle — is broken at the smallest remaining rank.
// The order is therefore deterministic, and identical on every rank once
// all rows are in. Ranks whose row is unknown have no out-edges yet.
//
// Kahn's algorithm with a min-heap of ready ranks and a monotone cursor
// for the cycle break: O((n+E) log n). The returned slice is reused by
// the next call.
func (g *rows) order() []int32 {
	clear(g.indeg)
	clear(g.done)
	for p := 0; p < g.n; p++ {
		for _, q := range g.succ[g.off[p]:g.end[p]] {
			g.indeg[q]++
		}
	}
	// Ascending, hence already a min-heap.
	ready := g.ready[:0]
	for r := 0; r < g.n; r++ {
		if g.indeg[r] == 0 {
			ready = append(ready, int32(r))
		}
	}
	seq := g.seq[:0]
	cursor := int32(0)
	for len(seq) < g.n {
		var pick int32
		if len(ready) > 0 {
			pick, ready = popMin(ready)
		} else {
			for g.done[cursor] {
				cursor++
			}
			pick = cursor
		}
		g.done[pick] = true
		seq = append(seq, pick)
		for _, q := range g.succ[g.off[pick]:g.end[pick]] {
			g.indeg[q]--
			if g.indeg[q] == 0 && !g.done[q] {
				ready = pushMin(ready, q)
			}
		}
	}
	g.ready, g.seq = ready, seq
	return seq
}

// pushMin and popMin keep h a binary min-heap.
func pushMin(h []int32, v int32) []int32 {
	h = append(h, v)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent] <= h[i] {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	return h
}

func popMin(h []int32) (int32, []int32) {
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		small := i
		if l := 2*i + 1; l < last && h[l] < h[small] {
			small = l
		}
		if r := 2*i + 2; r < last && h[r] < h[small] {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	return top, h
}
