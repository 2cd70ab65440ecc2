package drain

import (
	"cmp"
	"fmt"
	"slices"

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
// announcements absorbed so far. Only the ranks that sent to this rank
// announce to it, so the graph holds those rows (and the rank's own)
// and nothing per rank of the job: each holder is one entry, sorted by
// world rank and found by binary search, keeping the count it addressed
// to this rank and its successor list (the peers it sent to). Successor
// lists live back to back in one arena in arrival order.
type rows struct {
	n, me int
	// holders are the ranks whose row arrived, ascending by id.
	holders []holder
	succ    []int32
	// hint is the number of rows the rank expects; the arena is sized
	// for that many rows of the first row's length.
	hint int
	// scratch of order, reused across recomputations: the ready heap
	// and the sequence, len(holders) each.
	scratch []int32
}

// holder is one announced rank.
type holder struct {
	id int32
	// succ[off:end] are the ranks id sent to, ascending, id itself left
	// out.
	off, end int32
	// toMe is the number of messages id has sent this rank, as its row
	// announced it (TopoSort turns it into the count still to pull).
	toMe int64
	// indeg and done are order's state.
	indeg int32
	done  bool
}

// newRows sizes the rows for hint announcements. With the arena, which
// the first row allocates, a rank's rows cost four heap objects however
// many ranks the job has; more only when more rows arrive than the hint
// promised.
func newRows(n, me, hint int) *rows {
	return &rows{n: n, me: me, hint: hint, holders: make([]holder, 0, hint), scratch: make([]int32, 2*hint)}
}

// find returns the index of id among the holders, or where it would be
// inserted.
func (g *rows) find(id int32) (int, bool) {
	return slices.BinarySearchFunc(g.holders, id, func(h holder, id int32) int { return cmp.Compare(h.id, id) })
}

// add validates src's announcement and records it, returning its holder
// index (valid until the next add). A row that breaks the format leaves
// the graph untouched.
func (g *rows) add(src int, row []int64) (int, error) {
	start := len(g.succ)
	bad := func(format string, args ...any) (int, error) {
		g.succ = g.succ[:start]
		return 0, &RowError{Sender: src, Reason: fmt.Sprintf(format, args...)}
	}
	at, known := g.find(int32(src))
	if known {
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
	g.holders = slices.Insert(g.holders, at, holder{id: int32(src), off: int32(start), end: int32(len(g.succ)), toMe: toMe})
	return at, nil
}

// reserve makes room in the arena for a row of k successors. It sizes
// the arena for every row the hint still expects at this row's length,
// so a job whose ranks send to about as many peers each, a halo
// exchange or a ring, grows it once.
func (g *rows) reserve(k int) {
	if cap(g.succ)-len(g.succ) >= k {
		return
	}
	want := max(len(g.succ)+k*(g.hint-len(g.holders)), 2*cap(g.succ), len(g.succ)+k)
	succ := make([]int32, len(g.succ), want)
	copy(succ, g.succ)
	g.succ = succ
}

// order topologically sorts the holders: an edge p→q exists when p sent
// q at least one message, so senders come before the ranks that depend
// on their traffic. Among the holders with no unsorted predecessor the
// smallest goes first; a cycle — a ring pipeline is one big cycle — is
// broken at the smallest remaining holder. A rank without a row has no
// out-edges, so leaving it out does not change the holders' relative
// order: the sequence is the order of the whole graph filtered to the
// holders, and it is deterministic.
//
// Kahn's algorithm with a min-heap of ready holders and a monotone
// cursor for the cycle break: O((h+E) log h) over h holders whose rows
// list E successors. It returns holder indexes, in a slice reused by
// the next call.
func (g *rows) order() []int32 {
	h := g.holders
	if cap(g.scratch) < 2*len(h) {
		g.scratch = make([]int32, 2*len(h))
	}
	for i := range h {
		h[i].indeg, h[i].done = 0, false
	}
	for i := range h {
		for _, q := range g.succ[h[i].off:h[i].end] {
			if j, ok := g.find(q); ok {
				h[j].indeg++
			}
		}
	}
	// Ascending, hence already a min-heap.
	ready := g.scratch[:0:len(h)]
	for i := range h {
		if h[i].indeg == 0 {
			ready = append(ready, int32(i))
		}
	}
	seq := g.scratch[len(h) : len(h) : 2*len(h)]
	cursor := int32(0)
	for len(seq) < len(h) {
		var pick int32
		if len(ready) > 0 {
			pick, ready = popMin(ready)
		} else {
			for h[cursor].done {
				cursor++
			}
			pick = cursor
		}
		h[pick].done = true
		seq = append(seq, pick)
		for _, q := range g.succ[h[pick].off:h[pick].end] {
			j, ok := g.find(q)
			if !ok {
				continue
			}
			h[j].indeg--
			if h[j].indeg == 0 && !h[j].done {
				ready = pushMin(ready, int32(j))
			}
		}
	}
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
