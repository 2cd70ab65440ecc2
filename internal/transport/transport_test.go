package transport

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"manasim/internal/kernel"
)

func TestSendRecvBasic(t *testing.T) {
	f := NewFabric(2)
	defer f.Close()
	a, b := f.Endpoint(0), f.Endpoint(1)

	if err := a.Send(1, 1, 7, []byte("hello"), time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := f.InFlight(); got != 1 {
		t.Fatalf("in flight %d", got)
	}
	msg, err := b.Recv(Match{Context: 1, Src: 0, Tag: 7})
	if err != nil {
		t.Fatal(err)
	}
	if string(msg.Payload) != "hello" || msg.Src != 0 || msg.Tag != 7 || msg.SendVT != time.Millisecond {
		t.Fatalf("bad message %+v", msg)
	}
	if f.InFlight() != 0 {
		t.Fatalf("in flight %d after recv", f.InFlight())
	}
}

func TestPayloadCopiedOnSend(t *testing.T) {
	f := NewFabric(1)
	defer f.Close()
	e := f.Endpoint(0)
	buf := []byte{1, 2, 3}
	if err := e.Send(0, 1, 0, buf, 0); err != nil {
		t.Fatal(err)
	}
	buf[0] = 99 // sender reuses the buffer immediately
	msg, err := e.Recv(Match{Context: 1, Src: AnySource, Tag: AnyTag})
	if err != nil {
		t.Fatal(err)
	}
	if msg.Payload[0] != 1 {
		t.Fatal("transport aliased the sender's buffer")
	}
}

func TestMatchingWildcardsAndContext(t *testing.T) {
	f := NewFabric(2)
	defer f.Close()
	a, b := f.Endpoint(0), f.Endpoint(1)

	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(a.Send(1, 10, 1, []byte{1}, 0))
	must(a.Send(1, 20, 2, []byte{2}, 0))
	must(a.Send(1, 10, 3, []byte{3}, 0))

	// Context filter: only ctx-20 messages match.
	msg, ok, err := b.TryRecv(Match{Context: 20, Src: AnySource, Tag: AnyTag})
	must(err)
	if !ok || msg.Payload[0] != 2 {
		t.Fatalf("ctx filter failed: %+v ok=%v", msg, ok)
	}
	// Tag filter skips the tag-1 message.
	msg, ok, err = b.TryRecv(Match{Context: 10, Src: AnySource, Tag: 3})
	must(err)
	if !ok || msg.Payload[0] != 3 {
		t.Fatalf("tag filter failed: %+v ok=%v", msg, ok)
	}
	// Remaining message.
	msg, ok, err = b.TryRecv(Match{Context: 10, Src: 0, Tag: AnyTag})
	must(err)
	if !ok || msg.Payload[0] != 1 {
		t.Fatalf("last message: %+v ok=%v", msg, ok)
	}
	// Mailbox now empty.
	_, ok, err = b.TryRecv(Match{Context: 10, Src: AnySource, Tag: AnyTag})
	must(err)
	if ok {
		t.Fatal("unexpected message")
	}
}

func TestFIFOPerSourceTag(t *testing.T) {
	f := NewFabric(2)
	defer f.Close()
	a, b := f.Endpoint(0), f.Endpoint(1)
	for i := 0; i < 100; i++ {
		if err := a.Send(1, 1, 5, []byte{byte(i)}, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		msg, err := b.Recv(Match{Context: 1, Src: 0, Tag: 5})
		if err != nil {
			t.Fatal(err)
		}
		if msg.Payload[0] != byte(i) {
			t.Fatalf("position %d got %d", i, msg.Payload[0])
		}
	}
}

// TestWildcardTakesEarliestArrival pins the matching-order contract the
// indexed mailbox must preserve from the old linear scan: a wildcard
// receive returns the earliest-deposited matching message across ALL
// (source, tag) triples, not merely FIFO within one triple. Deposits are
// interleaved across three senders and two tags so a per-triple-only
// implementation would reorder them.
func TestWildcardTakesEarliestArrival(t *testing.T) {
	f := NewFabric(4)
	defer f.Close()
	dst := f.Endpoint(3)

	// Global deposit order, interleaved across (src, tag) triples.
	deposits := []struct {
		src, tag int
		val      byte
	}{
		{0, 5, 0}, {1, 5, 1}, {0, 9, 2}, {2, 5, 3}, {1, 9, 4}, {0, 5, 5}, {2, 9, 6},
	}
	for _, d := range deposits {
		if err := f.Endpoint(d.src).Send(3, 1, d.tag, []byte{d.val}, 0); err != nil {
			t.Fatal(err)
		}
	}

	// Fully wildcarded receives drain in exact deposit order.
	for i, d := range deposits {
		msg, err := dst.Recv(Match{Context: 1, Src: AnySource, Tag: AnyTag})
		if err != nil {
			t.Fatal(err)
		}
		if msg.Payload[0] != d.val || msg.Src != d.src || msg.Tag != d.tag {
			t.Fatalf("wildcard position %d: got src=%d tag=%d val=%d, want %+v",
				i, msg.Src, msg.Tag, msg.Payload[0], d)
		}
	}
}

// TestHalfWildcardOrdering pins arrival order under partially specified
// matches: AnyTag with a fixed source drains that source's triples in
// deposit order, and AnySource with a fixed tag drains that tag's
// triples in deposit order.
func TestHalfWildcardOrdering(t *testing.T) {
	f := NewFabric(3)
	defer f.Close()
	dst := f.Endpoint(2)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	// src 0 alternates tags; src 1 interleaves.
	must(f.Endpoint(0).Send(2, 1, 7, []byte{10}, 0))
	must(f.Endpoint(1).Send(2, 1, 7, []byte{20}, 0))
	must(f.Endpoint(0).Send(2, 1, 8, []byte{11}, 0))
	must(f.Endpoint(1).Send(2, 1, 8, []byte{21}, 0))
	must(f.Endpoint(0).Send(2, 1, 7, []byte{12}, 0))

	// Fixed source 0, any tag: 10, 11, 12 (deposit order across tags).
	for _, want := range []byte{10, 11, 12} {
		msg, err := dst.Recv(Match{Context: 1, Src: 0, Tag: AnyTag})
		if err != nil {
			t.Fatal(err)
		}
		if msg.Payload[0] != want {
			t.Fatalf("src-fixed: got %d want %d", msg.Payload[0], want)
		}
	}
	// Fixed tag 7, any source: only src 1's 20 is left under tag 7.
	msg, err := dst.Recv(Match{Context: 1, Src: AnySource, Tag: 7})
	if err != nil {
		t.Fatal(err)
	}
	if msg.Payload[0] != 20 || msg.Src != 1 {
		t.Fatalf("tag-fixed: got src=%d val=%d", msg.Src, msg.Payload[0])
	}
}

// TestIndexedQueueCompaction pushes enough traffic through one triple
// for its FIFO's head and tail to chase each other and for the arrival
// list to compact repeatedly.
func TestIndexedQueueCompaction(t *testing.T) {
	f := NewFabric(2)
	defer f.Close()
	a, b := f.Endpoint(0), f.Endpoint(1)
	const total = 500
	for i := 0; i < total; i++ {
		if err := a.Send(1, 1, 4, []byte{byte(i)}, 0); err != nil {
			t.Fatal(err)
		}
		// Drain every other message so head and tail chase each other.
		if i%2 == 1 {
			for j := 0; j < 2; j++ {
				msg, err := b.Recv(Match{Context: 1, Src: 0, Tag: 4})
				if err != nil {
					t.Fatal(err)
				}
				if msg.Payload[0] != byte(i-1+j) {
					t.Fatalf("compaction reordered: got %d want %d", msg.Payload[0], byte(i-1+j))
				}
			}
		}
	}
	if b.Pending() != 0 {
		t.Fatalf("pending %d after drain", b.Pending())
	}
}

func TestProbeDoesNotConsume(t *testing.T) {
	f := NewFabric(1)
	defer f.Close()
	e := f.Endpoint(0)
	if err := e.Send(0, 1, 3, []byte{7}, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		msg, ok := e.Probe(Match{Context: 1, Src: AnySource, Tag: AnyTag})
		if !ok || msg.Payload[0] != 7 {
			t.Fatalf("probe %d failed", i)
		}
	}
	if e.Pending() != 1 {
		t.Fatalf("pending %d", e.Pending())
	}
}

// TestProbeVisibleGatesOnSendVT pins the virtual-time visibility rule:
// ProbeVisible only reports messages whose send timestamp is at or
// before the receiver's clock, for both exact and wildcard matches,
// while EarliestMatchVT exposes the instant the earliest matching
// envelope becomes visible so a blocking probe can wait in virtual time.
func TestProbeVisibleGatesOnSendVT(t *testing.T) {
	f := NewFabric(3)
	defer f.Close()
	dst := f.Endpoint(2)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(f.Endpoint(0).Send(2, 1, 5, []byte{1}, 4*time.Second))
	must(f.Endpoint(1).Send(2, 1, 5, []byte{2}, 2*time.Second))

	exact := Match{Context: 1, Src: 0, Tag: 5}
	wild := Match{Context: 1, Src: AnySource, Tag: AnyTag}

	// Both sends are in the receiver's future at t=1s.
	if _, ok := dst.ProbeVisible(exact, time.Second); ok {
		t.Fatal("exact probe saw a future message")
	}
	if _, ok := dst.ProbeVisible(wild, time.Second); ok {
		t.Fatal("wildcard probe saw a future message")
	}
	// The earliest matching arrival is rank 1's 2s send under the
	// wildcard, rank 0's 4s send under the exact match.
	if at, ok := dst.EarliestMatchVT(wild); !ok || at != 2*time.Second {
		t.Fatalf("wildcard earliest = %v ok=%v, want 2s", at, ok)
	}
	if at, ok := dst.EarliestMatchVT(exact); !ok || at != 4*time.Second {
		t.Fatalf("exact earliest = %v ok=%v, want 4s", at, ok)
	}
	// At t=2s only rank 1's message is visible; at t=4s both are, and the
	// wildcard returns the earlier-deposited one (rank 0's, sent at 4s).
	if msg, ok := dst.ProbeVisible(wild, 2*time.Second); !ok || msg.Src != 1 {
		t.Fatalf("at 2s: msg=%+v ok=%v, want src 1", msg, ok)
	}
	if _, ok := dst.ProbeVisible(exact, 2*time.Second); ok {
		t.Fatal("exact probe saw rank 0's 4s send at t=2s")
	}
	if msg, ok := dst.ProbeVisible(wild, 4*time.Second); !ok || msg.Src != 0 {
		t.Fatalf("at 4s: msg=%+v ok=%v, want src 0 (deposit order)", msg, ok)
	}
	// Visibility gating never consumes.
	if dst.Pending() != 2 {
		t.Fatalf("pending %d, probes must not consume", dst.Pending())
	}
	// No matching envelope at all: EarliestMatchVT reports none.
	if _, ok := dst.EarliestMatchVT(Match{Context: 9, Src: AnySource, Tag: AnyTag}); ok {
		t.Fatal("EarliestMatchVT invented a match")
	}
}

// runRanks attaches a kernel to f and runs one body per rank on it,
// rank r's body as rank r, until every body returns.
func runRanks(f *Fabric, bodies ...func()) {
	k := kernel.New(len(bodies))
	f.SetScheduler(k, func(int) time.Duration { return 0 })
	for r, body := range bodies {
		k.Go(r, body)
	}
	k.Start()
	k.Wait()
}

func TestBlockingRecvWakesOnSend(t *testing.T) {
	f := NewFabric(2)
	defer f.Close()
	var got *Message
	var err error
	runRanks(f,
		func() { got, err = f.Endpoint(0).Recv(Match{Context: 9, Src: 1, Tag: 1}) },
		func() {
			// Rank 0 ran first and parked in its receive.
			if e := f.Endpoint(1).Send(0, 9, 1, []byte{42}, 0); e != nil {
				t.Error(e)
			}
		})
	if err != nil || got == nil || got.Payload[0] != 42 {
		t.Fatalf("bad wakeup %+v, %v", got, err)
	}
}

func TestCloseWakesBlockedReceivers(t *testing.T) {
	f := NewFabric(2)
	var err error
	runRanks(f,
		func() { _, err = f.Endpoint(0).Recv(Match{Context: 1, Src: AnySource, Tag: AnyTag}) },
		func() { f.Close() })
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("got %v, want ErrClosed", err)
	}
	// Idempotent close and post-close send.
	f.Close()
	if err := f.Endpoint(0).Send(0, 1, 0, nil, 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close: %v", err)
	}
}

func TestWaitMatch(t *testing.T) {
	f := NewFabric(2)
	defer f.Close()
	b := f.Endpoint(0)
	var err error
	pending := -1
	runRanks(f,
		func() {
			err = b.WaitMatch(Match{Context: 1, Src: 1, Tag: 2})
			pending = b.Pending()
		},
		func() {
			// A non-matching message must not wake it: send the wrong
			// tag first, then the right one.
			if e := f.Endpoint(1).Send(0, 1, 1, []byte{0}, 0); e != nil {
				t.Error(e)
			}
			if e := f.Endpoint(1).Send(0, 1, 2, []byte{1}, 0); e != nil {
				t.Error(e)
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	if pending != 2 {
		t.Fatalf("WaitMatch consumed messages: pending=%d", pending)
	}
}

// TestRecvWithoutSchedulerFails: on a fabric with no scheduler nothing
// could wake a blocked receiver, so a blocking receive or wait that
// finds no match fails with ErrNoScheduler instead of hanging, while one
// that finds its message still succeeds.
func TestRecvWithoutSchedulerFails(t *testing.T) {
	f := NewFabric(2)
	defer f.Close()
	e := f.Endpoint(1)
	m := Match{Context: 1, Src: 0, Tag: 3}
	if _, err := e.Recv(m); !errors.Is(err, ErrNoScheduler) {
		t.Fatalf("Recv: %v, want ErrNoScheduler", err)
	}
	if err := e.WaitMatch(m); !errors.Is(err, ErrNoScheduler) {
		t.Fatalf("WaitMatch: %v, want ErrNoScheduler", err)
	}
	if err := e.SleepUntil(time.Millisecond); !errors.Is(err, ErrNoScheduler) {
		t.Fatalf("SleepUntil: %v, want ErrNoScheduler", err)
	}
	if err := f.Endpoint(0).Send(1, 1, 3, []byte{7}, 0); err != nil {
		t.Fatal(err)
	}
	if msg, err := e.Recv(m); err != nil || msg.Payload[0] != 7 {
		t.Fatalf("Recv of a present message: %+v, %v", msg, err)
	}
}

func TestSessionsDistinct(t *testing.T) {
	a, b := NewFabric(1), NewFabric(1)
	defer a.Close()
	defer b.Close()
	if a.Session() == b.Session() {
		t.Fatal("fabric sessions must be unique")
	}
}

func TestContextAllocation(t *testing.T) {
	f := NewFabric(1)
	defer f.Close()
	c1 := f.AllocContext()
	c2 := f.AllocContext()
	if c1 == c2 || c1 < 16 {
		t.Fatalf("contexts %d %d", c1, c2)
	}
	base := f.AllocContextRange(5)
	next := f.AllocContext()
	if next < base+5 {
		t.Fatalf("range not reserved: base=%d next=%d", base, next)
	}
}

func TestConcurrentSenders(t *testing.T) {
	const senders, each = 8, 50
	f := NewFabric(senders + 1)
	defer f.Close()
	// Rank 0 receives with wildcards, parking whenever its mailbox runs
	// dry; ranks 1..senders each send a numbered stream.
	bodies := []func(){func() {
		dst := f.Endpoint(0)
		next := make([]byte, senders+1)
		for i := 0; i < senders*each; i++ {
			msg, err := dst.Recv(Match{Context: 1, Src: AnySource, Tag: AnyTag})
			if err != nil {
				t.Error(err)
				return
			}
			// Per-sender FIFO must hold across interleaved senders.
			if msg.Payload[0] != next[msg.Src] {
				t.Errorf("sender %d: got %d want %d", msg.Src, msg.Payload[0], next[msg.Src])
				return
			}
			next[msg.Src]++
		}
	}}
	for s := 1; s <= senders; s++ {
		e := f.Endpoint(s)
		bodies = append(bodies, func() {
			for i := 0; i < each; i++ {
				if err := e.Send(0, 1, s, []byte{byte(i)}, 0); err != nil {
					t.Error(err)
					return
				}
			}
		})
	}
	runRanks(f, bodies...)
}

func TestMatchProperty(t *testing.T) {
	// Property: a fully wildcarded match accepts any message with its
	// context, and a fully specified match accepts exactly its triple.
	f := func(ctx uint32, src uint8, tag uint8) bool {
		msg := &Message{Src: int(src), Context: ctx, Tag: int(tag)}
		wild := Match{Context: ctx, Src: AnySource, Tag: AnyTag}
		exact := Match{Context: ctx, Src: int(src), Tag: int(tag)}
		wrongSrc := Match{Context: ctx, Src: int(src) + 1, Tag: int(tag)}
		wrongCtx := Match{Context: ctx + 1, Src: AnySource, Tag: AnyTag}
		return wild.Matches(msg) && exact.Matches(msg) &&
			!wrongSrc.Matches(msg) && !wrongCtx.Matches(msg)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEndpointRangeChecks(t *testing.T) {
	f := NewFabric(2)
	defer f.Close()
	if err := f.Endpoint(0).Send(5, 1, 0, nil, 0); err == nil {
		t.Fatal("send to out-of-range rank succeeded")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Endpoint(9) did not panic")
		}
	}()
	f.Endpoint(9)
}

// TestTripleFIFOSurvivesWildcardTakes consumes one triple's messages
// alternately through the exact-match index and through wildcard scans
// of the arrival list, with a second triple interleaved: the FIFO
// threaded through the entries must keep per-triple order and drop its
// index entry exactly when it empties.
func TestTripleFIFOSurvivesWildcardTakes(t *testing.T) {
	f := NewFabric(2)
	defer f.Close()
	a, b := f.Endpoint(0), f.Endpoint(1)
	for i := 0; i < 6; i++ {
		if err := a.Send(1, 1, 4, []byte{byte(i)}, 0); err != nil {
			t.Fatal(err)
		}
		if err := a.Send(1, 1, 9, []byte{byte(100 + i)}, 0); err != nil {
			t.Fatal(err)
		}
	}
	takes := []struct {
		m    Match
		want byte
	}{
		{Match{Context: 1, Src: 0, Tag: 4}, 0},
		{Match{Context: 1, Src: AnySource, Tag: AnyTag}, 100},
		{Match{Context: 1, Src: AnySource, Tag: 4}, 1},
		{Match{Context: 1, Src: 0, Tag: AnyTag}, 101},
		{Match{Context: 1, Src: 0, Tag: 9}, 102},
		{Match{Context: 1, Src: AnySource, Tag: AnyTag}, 2},
		{Match{Context: 1, Src: 0, Tag: 4}, 3},
		{Match{Context: 1, Src: 0, Tag: 4}, 4},
		{Match{Context: 1, Src: 0, Tag: 4}, 5},
		{Match{Context: 1, Src: 0, Tag: 9}, 103},
	}
	for i, tk := range takes {
		msg, ok, err := b.TryRecv(tk.m)
		if err != nil || !ok {
			t.Fatalf("take %d %+v: ok=%v err=%v", i, tk.m, ok, err)
		}
		if msg.Payload[0] != tk.want {
			t.Fatalf("take %d %+v: payload %d, want %d", i, tk.m, msg.Payload[0], tk.want)
		}
	}
	if _, ok, _ := b.TryRecv(Match{Context: 1, Src: 0, Tag: 4}); ok {
		t.Fatal("emptied triple still matches")
	}
	// The emptied triple starts over as a fresh FIFO.
	if err := a.Send(1, 1, 4, []byte{42}, 0); err != nil {
		t.Fatal(err)
	}
	if msg, ok, _ := b.TryRecv(Match{Context: 1, Src: 0, Tag: 4}); !ok || msg.Payload[0] != 42 {
		t.Fatal("triple not reusable after it emptied")
	}
	if b.Pending() != 2 {
		t.Fatalf("pending %d, want the two tag-9 messages left", b.Pending())
	}
}

// TestQueuedMessageCostsTwoAllocations: a message queued under a
// (source, tag) triple of its own — every drain control message is one —
// costs its payload copy and one entry holding the envelope and the
// queue links, nothing per triple.
func TestQueuedMessageCostsTwoAllocations(t *testing.T) {
	f := NewFabric(2)
	defer f.Close()
	a, b := f.Endpoint(0), f.Endpoint(1)
	// A resident message keeps the context's index alive, as a mailbox
	// mid-drain is never empty.
	if err := a.Send(1, 1, 0, []byte{0}, 0); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 64)
	tag := 0
	allocs := testing.AllocsPerRun(1000, func() {
		tag++
		if err := a.Send(1, 1, tag, payload, 0); err != nil {
			t.Error(err)
		}
		if _, ok, err := b.TryRecv(Match{Context: 1, Src: 0, Tag: tag}); err != nil || !ok {
			t.Errorf("tag %d: ok=%v err=%v", tag, ok, err)
		}
	})
	if allocs > 2 {
		t.Fatalf("%v allocations per queued message, want 2 (payload, entry)", allocs)
	}
}
