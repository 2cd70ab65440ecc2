package transport

import (
	"encoding/binary"
	"math/rand/v2"
	"testing"
	"time"
)

// The mailbox's context and source lists, its context slice, the
// fabric's source index and the fabric-wide entry pool are checked
// against a reference model that has none of them: one arrival-ordered
// list per mailbox, where a receive or probe selects the first matching
// message in arrival order. After every operation, checkLinks also
// checks the lists' links and the index themselves. Operations come
// from a byte string, two bytes per operation, so one decoder serves the
// seeded differential test and FuzzMailbox.
//
// The receivers are ranks 0 and 1 of a 4-rank fabric; every rank, each
// receiver included, sends to either on 3 contexts with 3 tags, so an
// entry one receiver consumed carries the next message to either. Each
// sender's clock only moves forward, as a rank's virtual clock does,
// and the receivers' clock advances one millisecond per probe.
const (
	diffSrcs = 4
	diffDsts = 2
	diffCtxs = 3
	diffTags = 3
)

// refMsg is a queued message of the reference model; id is the value its
// payload carries.
type refMsg struct {
	src, tag int
	ctx      uint32
	vt       time.Duration
	id       uint64
}

func (r refMsg) matches(m Match) bool {
	return r.ctx == m.Context &&
		(m.Src == AnySource || r.src == m.Src) &&
		(m.Tag == AnyTag || r.tag == m.Tag)
}

// refBox is the reference mailbox: one list in arrival order.
type refBox struct {
	q []refMsg
	// refills counts sends into a context the model had emptied.
	refills int
	emptied [diffCtxs]bool
}

// first returns the index of the earliest-arrived message m selects (and
// that is visible at now, if visible), or -1.
func (r *refBox) first(m Match, visible bool, now time.Duration) int {
	for i, msg := range r.q {
		if msg.matches(m) && (!visible || msg.vt <= now) {
			return i
		}
	}
	return -1
}

func (r *refBox) earliest(m Match) (time.Duration, bool) {
	best, ok := time.Duration(0), false
	for _, msg := range r.q {
		if msg.matches(m) && (!ok || msg.vt < best) {
			best, ok = msg.vt, true
		}
	}
	return best, ok
}

func (r *refBox) ctxLen(ctx uint32) int {
	n := 0
	for _, msg := range r.q {
		if msg.ctx == ctx {
			n++
		}
	}
	return n
}

// diffMatch decodes a match specification from b; mode selects which of
// source and tag are wildcards (0: neither).
func diffMatch(b byte, mode int) Match {
	m := Match{
		Context: uint32(16 + (b>>2)%diffCtxs),
		Src:     int(b % diffSrcs),
		Tag:     int((b >> 4) % diffTags),
	}
	if mode&1 != 0 {
		m.Src = AnySource
	}
	if mode&2 != 0 {
		m.Tag = AnyTag
	}
	return m
}

// diffRun is what runMailboxOps observed: the receivers' models, how
// many queue entries carried messages to both receivers, and the most
// (destination, source) lists live at once and the source index's
// final number of slots.
type diffRun struct {
	refs     [diffDsts]refBox
	shared   int
	peakLive int
	slots    int
}

// refills counts the sends, over both receivers, into a context the
// model had emptied.
func (d *diffRun) refills() int {
	n := 0
	for i := range d.refs {
		n += d.refs[i].refills
	}
	return n
}

// runMailboxOps replays ops against a fresh fabric and the reference
// model, failing at the first disagreement. The top bit of an
// operation's first byte picks its receiver.
func runMailboxOps(t testing.TB, ops []byte) *diffRun {
	f := NewFabric(diffSrcs)
	defer f.Close()
	run := &diffRun{}
	var eps [diffSrcs]*Endpoint
	for r := range eps {
		eps[r] = f.Endpoint(r)
	}
	var clocks [diffSrcs]time.Duration
	var now time.Duration
	var nextID uint64
	// seen records, per queue entry, the receivers it carried messages to.
	seen := map[*qent]int{}

	// check compares a message the fabric handed over with the model's.
	check := func(op int, what string, got *Message, want refMsg) {
		t.Helper()
		if len(got.Payload) != 8 {
			t.Fatalf("op %d %s: payload of %d bytes", op, what, len(got.Payload))
		}
		id := binary.LittleEndian.Uint64(got.Payload)
		if got.Src != want.src || got.Tag != want.tag || got.Context != want.ctx ||
			got.SendVT != want.vt || id != want.id {
			t.Fatalf("op %d %s: got src %d tag %d ctx %d vt %v id %d, want src %d tag %d ctx %d vt %v id %d",
				op, what, got.Src, got.Tag, got.Context, got.SendVT, id,
				want.src, want.tag, want.ctx, want.vt, want.id)
		}
	}
	recv := func(op, d int, m Match) bool {
		t.Helper()
		ref := &run.refs[d]
		msg, ok, err := eps[d].TryRecv(m)
		if err != nil {
			t.Fatalf("op %d: TryRecv(%+v): %v", op, m, err)
		}
		i := ref.first(m, false, 0)
		if ok != (i >= 0) {
			t.Fatalf("op %d: TryRecv(%+v) ok=%v, model has index %d", op, m, ok, i)
		}
		if !ok {
			return false
		}
		want := ref.q[i]
		check(op, "TryRecv", &msg, want)
		ref.q = append(ref.q[:i], ref.q[i+1:]...)
		if ref.ctxLen(want.ctx) == 0 {
			ref.emptied[want.ctx-16] = true
		}
		// Most receivers hand the payload back; the rest keep it.
		if want.id%4 != 0 {
			f.Free(msg.Payload)
		}
		return true
	}

	for i := 0; i+1 < len(ops); i += 2 {
		op, b0, b1 := i/2, ops[i], ops[i+1]
		d := int(b0 >> 7)
		ref, dst := &run.refs[d], eps[d]
		switch b0 % 8 {
		case 0, 1, 2: // send
			m := diffMatch(b1, 0)
			clocks[m.Src] += time.Duration((b0>>3)%4) * time.Millisecond
			nextID++
			payload := f.Buf(8)
			binary.LittleEndian.PutUint64(payload, nextID)
			if err := eps[m.Src].SendOwned(d, m.Context, m.Tag, payload, clocks[m.Src]); err != nil {
				t.Fatalf("op %d: send: %v", op, err)
			}
			// The entry just queued is its source's tail.
			seen[f.srcs[f.slot(d, m.Src)].tail] |= 1 << d
			if c := m.Context - 16; ref.emptied[c] {
				ref.emptied[c] = false
				ref.refills++
			}
			ref.q = append(ref.q, refMsg{src: m.Src, tag: m.Tag, ctx: m.Context, vt: clocks[m.Src], id: nextID})
		case 3: // exact receive
			recv(op, d, diffMatch(b1, 0))
		case 4: // wildcard receive
			recv(op, d, diffMatch(b1, 1+int(b0>>3)%3))
		case 5: // probe in the receiver's virtual present
			now += time.Millisecond
			m := diffMatch(b1, int(b0>>3)%4)
			msg, ok := dst.ProbeVisible(m, now)
			j := ref.first(m, true, now)
			if ok != (j >= 0) {
				t.Fatalf("op %d: ProbeVisible(%+v, %v) ok=%v, model has index %d", op, m, now, ok, j)
			}
			if ok {
				check(op, "ProbeVisible", msg, ref.q[j])
			}
		case 6: // earliest matching send time
			m := diffMatch(b1, int(b0>>3)%4)
			vt, ok := dst.EarliestMatchVT(m)
			wvt, wok := ref.earliest(m)
			if ok != wok || vt != wvt {
				t.Fatalf("op %d: EarliestMatchVT(%+v) = %v,%v, model %v,%v", op, m, vt, ok, wvt, wok)
			}
		case 7: // drain one context through wildcard receives
			m := diffMatch(b1, 3)
			for recv(op, d, m) {
			}
		}
		checkLinks(t, f, op)
		run.peakLive = max(run.peakLive, f.live)
		if got := pending(dst); got != len(ref.q) ||
			inFlight(f) != len(run.refs[0].q)+len(run.refs[1].q) {
			t.Fatalf("op %d: %d pending at rank %d and %d in flight, model holds %d there and %d in all",
				op, got, d, inFlight(f), len(ref.q), len(run.refs[0].q)+len(run.refs[1].q))
		}
	}
	// Whatever is left drains in arrival order.
	for d := range eps[:diffDsts] {
		for recv(len(ops)/2, d, Match{Context: 16, Src: AnySource, Tag: AnyTag}) ||
			recv(len(ops)/2, d, Match{Context: 17, Src: AnySource, Tag: AnyTag}) ||
			recv(len(ops)/2, d, Match{Context: 18, Src: AnySource, Tag: AnyTag}) {
		}
		if pending(eps[d]) != 0 || len(run.refs[d].q) != 0 {
			t.Fatalf("after the final drain: %d pending at rank %d, model holds %d", pending(eps[d]), d, len(run.refs[d].q))
		}
	}
	for _, to := range seen {
		if to == 3 {
			run.shared++
		}
	}
	run.slots = len(f.srcs)
	return run
}

// checkLinks fails unless the lists of every mailbox of f and the
// fabric's source index are intact: each context in ctxs is listed once
// and holds a message; each list's prev/next (context) or sprev/snext
// (source) links are mutual and end at its head and tail; every
// occupied slot of the index holds a non-empty list of its own
// (destination, source), each entry of it also on its context's list,
// and is reached by probing from its home slot without crossing an empty
// slot or another slot of the same pair, so no backward shift stranded
// it; every empty slot is cleared; the index counts as live as many
// slots as are occupied; the context lists of each mailbox hold as many
// entries as its source lists — so both hold the same ones — and no
// entry in the fabric's pool is linked. A pooled entry is cleared, so
// one still reachable from a list fails the list's checks.
func checkLinks(t testing.TB, f *Fabric, op int) {
	t.Helper()
	queued := make([]int, len(f.boxes))
	for r := range f.boxes {
		b := &f.boxes[r]
		for i, c := range b.ctxs {
			for _, d := range b.ctxs[:i] {
				if d.ctx == c.ctx {
					t.Fatalf("op %d: rank %d lists context %d twice", op, r, c.ctx)
				}
			}
			if c.head == nil {
				t.Fatalf("op %d: rank %d lists context %d empty", op, r, c.ctx)
			}
			var prev *qent
			for e := c.head; e != nil; prev, e = e, e.next {
				if e.prev != prev || e.m.Context != c.ctx {
					t.Fatalf("op %d: rank %d context %d: broken list at src %d ctx %d tag %d", op, r, c.ctx, e.m.Src, e.m.Context, e.m.Tag)
				}
				queued[r]++
			}
			if c.tail != prev {
				t.Fatalf("op %d: rank %d context %d: tail is not the last entry", op, r, c.ctx)
			}
		}
	}
	occupied, mask := 0, len(f.srcs)-1
	for i, q := range f.srcs {
		if q.head == nil {
			if q != (srcq{}) {
				t.Fatalf("op %d: empty slot %d is not cleared", op, i)
			}
			continue
		}
		occupied++
		dst, src := int(q.dst), int(q.src)
		if dst < 0 || dst >= len(f.boxes) || src < 0 || src >= len(f.boxes) {
			t.Fatalf("op %d: slot %d holds pair (%d, %d) out of range", op, i, dst, src)
		}
		for j := f.home(dst, src); j != i; j = (j + 1) & mask {
			if p := f.srcs[j]; p.head == nil || int(p.dst) == dst && int(p.src) == src {
				t.Fatalf("op %d: slot %d of (%d, %d) is not the first of its pair reached from home slot %d: slot %d is empty or holds the same pair", op, i, dst, src, f.home(dst, src), j)
			}
		}
		b := &f.boxes[dst]
		var prev *qent
		for e := q.head; e != nil; prev, e = e, e.snext {
			// On its context's list, e is the head or its
			// predecessor's successor.
			c := b.ctx(e.m.Context)
			onCtx := c != nil && (e.prev == nil && c.head == e || e.prev != nil && e.prev.next == e)
			if e.sprev != prev || e.m.Src != src || !onCtx {
				t.Fatalf("op %d: rank %d source %d: broken list at src %d ctx %d tag %d", op, dst, src, e.m.Src, e.m.Context, e.m.Tag)
			}
			queued[dst]--
		}
		if q.tail != prev {
			t.Fatalf("op %d: rank %d source %d: tail is not the last entry", op, dst, src)
		}
	}
	if occupied != f.live {
		t.Fatalf("op %d: the source index counts %d live lists, %d slots are occupied", op, f.live, occupied)
	}
	for r, n := range queued {
		if n != 0 {
			t.Fatalf("op %d: rank %d: the context lists hold %d entries more than the source lists", op, r, n)
		}
	}
	for _, e := range f.ents {
		if e.prev != nil || e.next != nil || e.sprev != nil || e.snext != nil {
			t.Fatalf("op %d: a pooled entry is still linked", op)
		}
	}
}

// diffOps draws n operations from a seeded generator in phases of
// random length, mostly short. A filling phase is mostly sends. A
// draining phase is receives, probes and queries; every other one
// receives only by source and never from one source, so the messages
// around that source's consume from inside the context lists. Queues
// build up — now and then to hundreds of messages, so that a receive
// unlinks entries deep inside long lists — and drain, so contexts empty
// and refill over and over.
func diffOps(seed uint64, n int) []byte {
	r := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	ops := make([]byte, 0, 2*n)
	phase, left, skip := 0, 0, 0
	for len(ops) < 2*n {
		if left == 0 {
			phase, left, skip = (phase+1)%4, 4+r.IntN(1+r.IntN(600)), r.IntN(diffSrcs)
		}
		left--
		hi, lo := byte(r.IntN(32))<<3, byte(r.IntN(256))
		var kind byte
		switch {
		case phase%2 == 0 && r.IntN(4) != 0:
			kind = byte(r.IntN(3)) // send
		case phase%2 == 0:
			kind = 3 + 2*byte(r.IntN(2)) // exact receive or probe
		case phase == 1:
			kind = 3 + byte(r.IntN(5)) // receive, probe, query or drain
		default:
			// Exact or AnyTag receives from every source but skip.
			kind = 3 + byte(r.IntN(2))
			hi = byte(3*r.IntN(10)+1) << 3
			lo = lo&^3 | byte((skip+1+r.IntN(diffSrcs-1))%diffSrcs)
		}
		ops = append(ops, hi|kind, lo)
	}
	return ops
}

// growthOps is a differential sequence whose live (destination, source)
// lists outgrow the source index's initial size: each round sends one
// message on every pair of the 2 receivers × 4 sources, 8 live lists
// where the 4-rank fabric's first table holds 4, then consumes them
// through exact receives in an order that differs by round.
func growthOps() []byte {
	var ops []byte
	for round := range 4 {
		for p := range 2 * diffSrcs {
			d, src := byte(p/diffSrcs), byte((p+round)%diffSrcs)
			ops = append(ops, d<<7|byte(round)<<3, src)
		}
		for p := range 2 * diffSrcs {
			q := (p*3 + round) % (2 * diffSrcs)
			d, src := byte(q/diffSrcs), byte((q+round)%diffSrcs)
			ops = append(ops, d<<7|3, src)
		}
	}
	return ops
}

// TestMailboxMatchesReferenceModel replays seeded random operation
// sequences — sends, exact and wildcard receives, visible probes and
// earliest-send queries over 2 receivers × 3 contexts × 4 sources × 3
// tags — against the single-list model, and growthOps last. Every
// answer, and the pending counts after every operation, must agree, the
// lists and the source index must stay intact, the seeded sequences
// must both churn the lists and carry messages to both receivers in one
// entry, and every sequence's live lists must outgrow the index's first
// table, so that it doubles with lists in it.
func TestMailboxMatchesReferenceModel(t *testing.T) {
	initial := 2 * diffSrcs // the smallest power of two of at least 2n
	run := runMailboxOps(t, growthOps())
	if run.peakLive != 2*diffSrcs || run.slots <= initial {
		t.Fatalf("growthOps: %d lists live at most and %d slots, want %d live in a table grown past %d", run.peakLive, run.slots, 2*diffSrcs, initial)
	}
	for seed := uint64(1); seed <= 8; seed++ {
		run := runMailboxOps(t, diffOps(seed, 20000))
		if run.slots <= initial {
			t.Fatalf("seed %d: at most %d lists live; the source index never outgrew its %d slots", seed, run.peakLive, initial)
		}
		if run.refills() < 50 {
			t.Fatalf("seed %d: contexts refilled only %d times; the sequence does not churn the index", seed, run.refills())
		}
		if run.shared < 50 {
			t.Fatalf("seed %d: only %d entries carried messages to both receivers; the pool is not shared", seed, run.shared)
		}
	}
}

// FuzzMailbox runs the differential check on arbitrary operation
// strings. Its corpus, in testdata/fuzz/FuzzMailbox, holds diffOps
// sequences of 64 to 4000 operations, and growthOps seeds it too.
func FuzzMailbox(f *testing.F) {
	f.Add(growthOps())
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 1<<14 {
			ops = ops[:1<<14]
		}
		runMailboxOps(t, ops)
	})
}

// TestSourceIndexCollisionsAndWraparound plants nine lists whose home
// slots collide at the last two slots of the source index and its first,
// so that their probe runs wrap around the table's end, then consumes
// them, some two messages deep, in 200 seeded orders: every freed slot
// shifts its run back, across the wrap too, and after each operation
// checkLinks must find every remaining list reachable from its home.
func TestSourceIndexCollisionsAndWraparound(t *testing.T) {
	const n = 16
	f := NewFabric(n)
	defer f.Close()
	recv := func(dst, src int) bool {
		t.Helper()
		msg, ok, err := f.Endpoint(dst).TryRecv(Match{Context: 16, Src: src, Tag: AnyTag})
		if err != nil || ok && msg.Src != src {
			t.Fatalf("receive (%d, %d): src %d, %v", dst, src, msg.Src, err)
		}
		return ok
	}
	send := func(dst, src, tag int) {
		t.Helper()
		if err := f.Endpoint(src).Send(dst, 16, tag, nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	// A first message allocates the index; consuming it empties it.
	send(0, 0, 0)
	recv(0, 0)
	last := len(f.srcs) - 1
	want := map[int]int{last - 1: 2, last: 4, 0: 3}
	var pairs [][2]int
	for dst := range n {
		for src := range n {
			if h := f.home(dst, src); want[h] > 0 {
				want[h]--
				pairs = append(pairs, [2]int{dst, src})
			}
		}
	}
	if len(pairs) != 9 {
		t.Fatalf("found %d pairs homed at slots %d, %d and 0 of %d, want 9", len(pairs), last-1, last, last+1)
	}
	r := rand.New(rand.NewPCG(1, 2))
	op := 0
	for range 200 {
		for _, i := range r.Perm(len(pairs)) {
			dst, src := pairs[i][0], pairs[i][1]
			for range 1 + r.IntN(2) {
				send(dst, src, r.IntN(3))
			}
			op++
			checkLinks(t, f, op)
		}
		if f.live != len(pairs) || len(f.srcs) != last+1 || f.srcs[last].head == nil || f.srcs[0].head == nil || f.srcs[1].head == nil {
			t.Fatalf("op %d: %d lists live in %d slots, want %d in %d wrapping past the end", op, f.live, len(f.srcs), len(pairs), last+1)
		}
		for _, i := range r.Perm(len(pairs)) {
			for recv(pairs[i][0], pairs[i][1]) {
				op++
				checkLinks(t, f, op)
			}
		}
		if f.live != 0 {
			t.Fatalf("op %d: %d lists live after every message was consumed", op, f.live)
		}
	}
}
