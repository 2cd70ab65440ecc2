package transport

import (
	"encoding/binary"
	"math/rand/v2"
	"testing"
	"time"
)

// The mailbox's two indexes, its context recycling and its entry free
// list are checked against a reference model that has none of them: one
// arrival-ordered list per mailbox, where a receive or probe selects the
// first matching message in arrival order. Operations come from a byte
// string, two bytes per operation, so one decoder serves the seeded
// differential test and FuzzMailbox.
//
// The receiver is rank 0 of a 4-rank fabric; every rank, itself
// included, sends to it on 3 contexts with 3 tags. Each sender's clock
// only moves forward, as a rank's virtual clock does, and the receiver's
// clock advances one millisecond per probe.
const (
	diffSrcs = 4
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

// runMailboxOps replays ops against a fresh fabric and the reference
// model, failing at the first disagreement, and returns the model.
func runMailboxOps(t testing.TB, ops []byte) *refBox {
	f := NewFabric(diffSrcs)
	defer f.Close()
	dst := f.Endpoint(0)
	ref := &refBox{}
	var clocks [diffSrcs]time.Duration
	var now time.Duration
	var nextID uint64

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
	recv := func(op int, m Match) bool {
		t.Helper()
		msg, ok, err := dst.TryRecv(m)
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
		switch b0 % 8 {
		case 0, 1, 2: // send
			m := diffMatch(b1, 0)
			clocks[m.Src] += time.Duration((b0>>3)%4) * time.Millisecond
			nextID++
			payload := f.Buf(8)
			binary.LittleEndian.PutUint64(payload, nextID)
			if err := f.Endpoint(m.Src).SendOwned(0, m.Context, m.Tag, payload, clocks[m.Src]); err != nil {
				t.Fatalf("op %d: send: %v", op, err)
			}
			if c := m.Context - 16; ref.emptied[c] {
				ref.emptied[c] = false
				ref.refills++
			}
			ref.q = append(ref.q, refMsg{src: m.Src, tag: m.Tag, ctx: m.Context, vt: clocks[m.Src], id: nextID})
		case 3: // exact receive
			recv(op, diffMatch(b1, 0))
		case 4: // wildcard receive
			recv(op, diffMatch(b1, 1+int(b0>>3)%3))
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
			for recv(op, m) {
			}
		}
		if got := pending(dst); got != len(ref.q) || inFlight(f) != got {
			t.Fatalf("op %d: %d pending at rank 0 and %d in flight, model holds %d at rank 0",
				op, got, inFlight(f), len(ref.q))
		}
	}
	// Whatever is left drains in arrival order.
	for recv(len(ops)/2, Match{Context: 16, Src: AnySource, Tag: AnyTag}) ||
		recv(len(ops)/2, Match{Context: 17, Src: AnySource, Tag: AnyTag}) ||
		recv(len(ops)/2, Match{Context: 18, Src: AnySource, Tag: AnyTag}) {
	}
	if pending(dst) != 0 || len(ref.q) != 0 {
		t.Fatalf("after the final drain: %d pending, model holds %d", pending(dst), len(ref.q))
	}
	return ref
}

// diffOps draws n operations from a seeded generator in phases of
// random length, mostly short. A filling phase is mostly sends. A
// draining phase is receives, probes and queries; every other one
// receives only by source and never from one source, so the messages
// around that source's consume from inside the arrival lists. Queues
// build up — now and then to hundreds of messages, enough for the
// arrival lists to compact — and drain, so contexts empty and refill
// over and over.
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

// TestMailboxMatchesReferenceModel replays seeded random operation
// sequences — sends, exact and wildcard receives, visible probes and
// earliest-send queries over 3 contexts × 4 sources × 3 tags — against
// the single-list model. Every answer, and the pending count after every
// operation, must agree.
func TestMailboxMatchesReferenceModel(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		ref := runMailboxOps(t, diffOps(seed, 20000))
		if ref.refills < 50 {
			t.Fatalf("seed %d: contexts refilled only %d times; the sequence does not churn the index", seed, ref.refills)
		}
	}
}

// FuzzMailbox runs the differential check on arbitrary operation
// strings. Its corpus, in testdata/fuzz/FuzzMailbox, holds diffOps
// sequences of 64 to 4000 operations.
func FuzzMailbox(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 1<<14 {
			ops = ops[:1<<14]
		}
		runMailboxOps(t, ops)
	})
}
