// Package transport is the in-process interconnect of the MANA simulator.
//
// It plays the role that TCP, InfiniBand, or HPE Slingshot plays under a
// real MPI library: an unreliable-ordering-free byte mover is simulated as
// a set of per-rank mailboxes with MPI-compatible matching semantics
// (FIFO per (source, context, tag) triple, wildcard source/tag receives).
//
// Two properties matter to MANA and are modeled explicitly:
//
//  1. Messages can be *in flight* at checkpoint time: an eager send
//     deposits the message in the destination mailbox, where it stays
//     until the receiver consumes it. MANA's drain protocol discovers
//     such messages with Iprobe and drains them with Recv — the same
//     code path a real network forces.
//
//  2. Handles into the network layer are meaningless after restart: a
//     fresh Fabric models the fresh lower half, and nothing from the old
//     Fabric survives.
//
// The transport moves real bytes. Latency and bandwidth are accounted in
// virtual time by the MPI engine above, using the sender timestamp each
// Message carries.
//
// Matching is indexed: each mailbox keeps one FIFO per (source, context,
// tag) triple plus an arrival-ordered list per context, sharing entries.
// An entry is the message's envelope and its queue links in one object,
// and a triple's FIFO is a list threaded through the entries. A fully
// specified receive is a map lookup; a wildcard receive walks its
// context's arrival list front-to-back and takes the first live match —
// exactly the message the old single-queue linear scan found, but
// without visiting other contexts, and an AnySource probe against a
// mailbox holding thousands of per-source triples stops at the first
// match instead of ranking every triple.
//
// # Recycling
//
// A real MPI library's network layer sends and receives through buffers
// it registers once and reuses; so does this one, and a steady-state
// message costs no heap object. A context's index outlives its last
// message, a consumed entry returns to its mailbox's free list once
// both indexes have dropped it, and payloads come from the fabric's
// size-class pool. The payload follows one ownership chain:
//
//   - Buf hands out a payload buffer of the requested length;
//   - SendOwned takes the payload over, and the caller must not touch it
//     again (Send copies the caller's bytes into a Buf first);
//   - Recv and TryRecv hand the Message to the caller by value, and with
//     it the payload;
//   - Free returns a payload the caller is done with to the pool. A
//     payload that is never freed — dropped by a fault filter, kept by
//     its receiver, or still queued when the fabric closes — is simply
//     garbage.
//
// The *Message that ProbeVisible returns points into the
// queued entry and is valid only until that message is consumed.
//
// # Blocking and ownership
//
// A blocking receive parks its rank through the Scheduler attached with
// SetScheduler (the cluster attaches the event kernel), and a delivery
// posts a wakeup event at the message's arrival virtual time. A mailbox
// has at most one waiter — only the owner rank receives from it — so
// wakeups are point-to-point and deterministic. A fabric with no
// scheduler never blocks: a receive that finds no match returns
// ErrNoScheduler instead of waiting for a delivery nothing could make.
//
// Nothing in a fabric or its mailboxes carries a lock or an atomic. The
// kernel runs one rank at a time, and a fabric is touched only by the
// rank holding the execution token — a mailbox's owner receiving or
// probing, a peer depositing, whichever rank packs or frees a payload —
// or, while no rank runs, by the goroutine that owns the job and runs
// the kernel's loop and stall teardown (Fabric.Close). Ranks are the
// loop's coroutines, and each switch orders one access after the last.
// A fabric without a scheduler must be driven by one goroutine. Pooled
// entries and buffers die with their fabric, and fabrics share no state,
// so nothing from an old fabric survives a restart or moves a later job.
package transport

import (
	"errors"
	"fmt"
	"math/bits"
	"time"
)

// Wildcards for matching. They deliberately mirror MPI_ANY_SOURCE and
// MPI_ANY_TAG.
const (
	AnySource = -1
	AnyTag    = -1
)

// ErrClosed is returned by operations on a fabric that has been shut down.
var ErrClosed = errors.New("transport: fabric closed")

// ErrNoScheduler is returned by a receive or sleep that would have to
// block on a fabric with no Scheduler attached: nothing could ever wake
// it, so it fails instead of hanging.
var ErrNoScheduler = errors.New("transport: blocking operation on a fabric with no scheduler")

// Message is one point-to-point message in flight or delivered.
type Message struct {
	// Src is the sender's world rank.
	Src int
	// Context is the communicator context id (lower-half concept): a
	// message only matches receives posted on the same context.
	Context uint32
	// Tag is the user tag.
	Tag int
	// Payload is the message body. The transport owns it while the
	// message is queued and hands it to the receiver with the message
	// (see the package comment, "Recycling").
	Payload []byte
	// SendVT is the sender's virtual time at send, used by the receiver
	// to account transfer cost.
	SendVT time.Duration
}

// Match is a receive-side match specification.
type Match struct {
	Context uint32
	Src     int // world rank or AnySource
	Tag     int // tag or AnyTag
}

// Matches reports whether m selects msg.
func (m Match) Matches(msg *Message) bool {
	if msg.Context != m.Context {
		return false
	}
	if m.Src != AnySource && msg.Src != m.Src {
		return false
	}
	if m.Tag != AnyTag && msg.Tag != m.Tag {
		return false
	}
	return true
}

// Scheduler is the kernel hook: when attached to a fabric, blocked
// receivers park their rank activity and message delivery wakes the
// destination rank at the message's arrival virtual time.
// internal/kernel implements it; internal/cluster wires it up.
type Scheduler interface {
	// Park blocks the calling rank activity until a Wake.
	Park(rank int)
	// Wake schedules rank to resume at virtual time at.
	Wake(rank int, at time.Duration)
}

// FaultFilter inspects an outgoing message before it is deposited. It
// returns drop=true to discard the message entirely, or a positive
// delay to push its effective send timestamp later in virtual time
// (modeling a slow control path). The filter runs on the sender's rank
// activity and must be deterministic.
type FaultFilter func(m *Message) (drop bool, delay time.Duration)

// Fabric is one interconnect instance serving one simulated job. All
// ranks of the job share the fabric; a restart builds a brand-new one.
type Fabric struct {
	ranks   []int  // 0..n-1 (Ranks)
	session uint64 // lower-half session (SetSession)
	nextCtx uint32
	boxes   []*mailbox
	closed  bool
	filter  FaultFilter

	// bufs holds freed payload buffers by size class: bufs[k] are
	// buffers of capacity 1<<(k+minBufShift). Only the token holder
	// touches it (see the package comment).
	bufs [maxBufShift - minBufShift + 1][][]byte
}

// Pool bounds. A payload class holds buffers of one power-of-two
// capacity from 1<<minBufShift to 1<<maxBufShift bytes; larger payloads
// are plain allocations. A class keeps at most bufClassBytes of idle
// buffers and never more than maxClassBufs of them, and a mailbox keeps
// at most maxFreeEntries idle queue entries, so an idle fabric holds a
// bounded amount of pooled memory however large a burst was.
const (
	minBufShift    = 3  // 8 B
	maxBufShift    = 16 // 64 KB
	bufClassBytes  = 1 << 20
	maxClassBufs   = 1024
	maxFreeEntries = 256
)

// NewFabric creates an interconnect for n ranks. Context ids below
// firstCtx are reserved for predefined communicators.
func NewFabric(n int) *Fabric {
	if n <= 0 {
		panic(fmt.Sprintf("transport: invalid rank count %d", n))
	}
	f := &Fabric{
		ranks:   make([]int, n),
		nextCtx: 16, // contexts 0..15 reserved for predefined comms
		boxes:   make([]*mailbox, n),
	}
	for i := range f.boxes {
		f.ranks[i] = i
		f.boxes[i] = newMailbox(i)
	}
	return f
}

// SetScheduler attaches the kernel's scheduler: blocked receives park
// their rank through s, and deliveries wake the destination rank at
// SendVT + cost(len(payload)). Must be called before any endpoint
// operation; the cluster attaches it right after NewFabric.
func (f *Fabric) SetScheduler(s Scheduler, cost func(bytes int) time.Duration) {
	for _, b := range f.boxes {
		b.sched = s
		b.cost = cost
	}
}

// SetFaultFilter installs a fault filter applied to every Send. Like
// SetScheduler it must be called before any endpoint operation; the
// fault injector attaches it when control-message faults are armed.
// Passing nil removes the filter.
func (f *Fabric) SetFaultFilter(fn FaultFilter) { f.filter = fn }

// Size returns the number of ranks served by the fabric.
func (f *Fabric) Size() int { return len(f.ranks) }

// Ranks returns 0..Size()-1, the world group every rank's MPI engine
// shares: the caller must not write it.
func (f *Fabric) Ranks() []int { return f.ranks }

// SetSession sets the lower-half session Session reports (0 from
// NewFabric: a fresh launch; a restart derives one from its source).
// Like SetScheduler it must precede any endpoint operation.
func (f *Fabric) SetSession(s uint64) { f.session = s }

// Session returns the fabric's lower-half session. MPI implementations
// that hand out pointer-valued handles mix it into their simulated
// addresses so that addresses differ across restarts, exactly as a
// re-executed lower half would.
func (f *Fabric) Session() uint64 { return f.session }

// AllocContextRange reserves n consecutive context ids, unique within
// the fabric, and returns the first. Real implementations agree on
// context ids with a collective over the parent communicator; the
// fabric-global counter models the result of that agreement (all
// members obtain the same ids because the allocation is performed once
// by the collective algorithm, not once per member). Communicator split
// uses one id per color.
func (f *Fabric) AllocContextRange(n int) uint32 {
	if n < 1 {
		n = 1
	}
	f.nextCtx += uint32(n)
	return f.nextCtx - uint32(n) + 1
}

// Buf returns a payload buffer of length n, recycled from the fabric's
// pool when one of its size class is free. Its contents are unspecified:
// the caller overwrites all n bytes before sending it with SendOwned.
func (f *Fabric) Buf(n int) []byte {
	if n == 0 {
		return nil
	}
	k := max(bits.Len(uint(n-1)), minBufShift)
	if k > maxBufShift {
		return make([]byte, n)
	}
	free := &f.bufs[k-minBufShift]
	if i := len(*free) - 1; i >= 0 {
		b := (*free)[i]
		(*free)[i] = nil
		*free = (*free)[:i]
		return b[:n]
	}
	return make([]byte, n, 1<<k)
}

// Free returns a payload the caller is done with — one Recv or TryRecv
// handed over — to the pool. The caller must not touch b again. A slice
// whose capacity is not one of the pool's classes, or one arriving when
// its class is full, is left to the garbage collector.
func (f *Fabric) Free(b []byte) {
	c := cap(b)
	k := bits.TrailingZeros(uint(c))
	if c == 0 || c != 1<<k || k < minBufShift || k > maxBufShift {
		return
	}
	free := &f.bufs[k-minBufShift]
	if len(*free) >= min(maxClassBufs, bufClassBytes>>k) {
		return
	}
	*free = append(*free, b[:c])
}

// Endpoint returns rank r's attachment point.
func (f *Fabric) Endpoint(r int) *Endpoint {
	if r < 0 || r >= len(f.ranks) {
		panic(fmt.Sprintf("transport: endpoint rank %d out of range [0,%d)", r, len(f.ranks)))
	}
	return &Endpoint{fabric: f, rank: r}
}

// Close shuts the fabric down, waking all blocked receivers with
// ErrClosed. Close is idempotent.
func (f *Fabric) Close() {
	if !f.closed {
		f.closed = true
		for _, b := range f.boxes {
			b.close()
		}
	}
}

// Endpoint is one rank's view of the fabric.
type Endpoint struct {
	fabric *Fabric
	rank   int
}

// Send deposits a message in dst's mailbox (eager protocol). The payload
// is copied into a pooled buffer; the caller may reuse buf immediately.
// Send never blocks.
func (e *Endpoint) Send(dst int, ctx uint32, tag int, buf []byte, sendVT time.Duration) error {
	payload := e.fabric.Buf(len(buf))
	copy(payload, buf)
	return e.SendOwned(dst, ctx, tag, payload, sendVT)
}

// SendOwned is Send without the copy: payload becomes the transport's,
// and the caller must not touch it again. It is for a caller that has
// just built the payload itself — the MPI engine packs the user buffer
// into a Buf — so that one copy, not two, separates the sender's buffer
// from the mailbox.
func (e *Endpoint) SendOwned(dst int, ctx uint32, tag int, payload []byte, sendVT time.Duration) error {
	if e.fabric.closed {
		return ErrClosed
	}
	if dst < 0 || dst >= len(e.fabric.ranks) {
		return fmt.Errorf("transport: send to rank %d out of range [0,%d)", dst, len(e.fabric.ranks))
	}
	box := e.fabric.boxes[dst]
	ent := box.entry()
	ent.m = Message{
		Src:     e.rank,
		Context: ctx,
		Tag:     tag,
		Payload: payload,
		SendVT:  sendVT,
	}
	if fn := e.fabric.filter; fn != nil {
		drop, delay := fn(&ent.m)
		if drop {
			// The bytes left the sender and vanished on the wire: the
			// send itself still succeeded. The entry was never linked,
			// so it goes straight back.
			box.recycle(ent)
			return nil
		}
		if delay > 0 {
			ent.m.SendVT += delay
		}
	}
	return box.put(ent)
}

// SleepUntil parks the calling rank's activity until virtual time at.
// It requires an attached scheduler that supports timed parking (the
// kernel's ParkUntil) and returns ErrNoScheduler without one.
func (e *Endpoint) SleepUntil(at time.Duration) error {
	if e.fabric.closed {
		return ErrClosed
	}
	b := e.fabric.boxes[e.rank]
	type timedParker interface {
		ParkUntil(rank int, at time.Duration)
	}
	tp, ok := b.sched.(timedParker)
	if !ok {
		return ErrNoScheduler
	}
	tp.ParkUntil(e.rank, at)
	if e.fabric.closed {
		return ErrClosed
	}
	return nil
}

// Recv blocks until a message matching m arrives, removes it, and
// returns it; its payload is now the caller's (Free returns it to the
// pool). It returns ErrClosed if the fabric shuts down first, and
// ErrNoScheduler if it would have to block on a fabric with no
// scheduler.
func (e *Endpoint) Recv(m Match) (Message, error) {
	msg, err := e.fabric.boxes[e.rank].take(m, true)
	if err != nil {
		return Message{}, err
	}
	return msg, nil
}

// TryRecv removes and returns a matching message if one is already
// present; ok reports whether a message was found. It never blocks. The
// payload passes to the caller as with Recv.
func (e *Endpoint) TryRecv(m Match) (msg Message, ok bool, err error) {
	msg, err = e.fabric.boxes[e.rank].take(m, false)
	if err != nil {
		if errors.Is(err, errNoMatch) {
			return Message{}, false, nil
		}
		return Message{}, false, err
	}
	return msg, true, nil
}

// ProbeVisible reports whether a message matching m is waiting, without
// removing it, restricted to the receiver's virtual present: it only
// reports messages whose send timestamp is at or before now. The
// eager transport deposits a message the moment the sender issues it, so
// a rank whose clock lags the sender's would otherwise observe an
// envelope from its own virtual future — a causality leak that lets a
// nonblocking probe drag the receiver's clock forward when the message
// is then received. The returned message points into the queue: it
// must not be mutated, and it is valid only until the message is
// consumed.
func (e *Endpoint) ProbeVisible(m Match, now time.Duration) (msg *Message, ok bool) {
	return e.fabric.boxes[e.rank].peekVisible(m, now)
}

// EarliestMatchVT returns the smallest send timestamp among queued
// messages matching m. A blocking probe uses it to advance the waiting
// rank's clock to the instant the earliest matching envelope becomes
// visible.
func (e *Endpoint) EarliestMatchVT(m Match) (time.Duration, bool) {
	return e.fabric.boxes[e.rank].earliestMatch(m)
}

// WaitMatch blocks until a message matching m is present (without
// removing it) or the fabric closes. It lets polling loops avoid
// busy-waiting while preserving probe-then-receive semantics. Like
// Recv, it returns ErrNoScheduler rather than block without a
// scheduler.
func (e *Endpoint) WaitMatch(m Match) error {
	return e.fabric.boxes[e.rank].waitMatch(m)
}

// errNoMatch is an internal sentinel for non-blocking take.
var errNoMatch = errors.New("transport: no matching message")

// srcTag is the per-context index key of one matching FIFO.
type srcTag struct {
	src int
	tag int
}

// qent is one queued message: the envelope and its queue links,
// allocated together and recycled through the mailbox's free list. The
// same entry is linked from two indexes — its (source, tag) FIFO and its
// context's arrival list — so consuming it through either marks it
// taken and the other index skips it lazily.
type qent struct {
	m     Message
	taken bool
	// next is the following entry of the same (source, tag) FIFO.
	next *qent
}

// tripleq is one (source, context, tag) FIFO, threaded through its
// entries. It is held by value in the context's index, so a triple used
// for a single message costs nothing beyond that message's entry.
type tripleq struct {
	head, tail *qent
}

// front returns the earliest live entry, or nil.
func (q tripleq) front() *qent {
	for e := q.head; e != nil; e = e.next {
		if !e.taken {
			return e
		}
	}
	return nil
}

// ctxq holds one context's messages under both indexes: triples for
// exact-match lookups, fifo for arrival-ordered wildcard scans. A
// context's ctxq, its map and its arrival array outlive its last
// message: contexts empty and refill on every ping-pong and every
// collective round.
type ctxq struct {
	triples map[srcTag]tripleq
	fifo    []*qent
	head    int
	live    int // untaken entries
	dead    int // taken entries still in fifo past head
}

// pruneFifo drops the consumed prefix of the arrival list and compacts
// the list in place once interior consumed entries (taken through an
// exact-match receive) dominate it, so wildcard scans stay
// amortized-linear in live messages. A dropped entry has left both
// indexes — remove unlinks a consumed entry from its triple before
// anything prunes — so it goes back to b's free list.
func (c *ctxq) pruneFifo(b *mailbox) {
	for c.head < len(c.fifo) && c.fifo[c.head].taken {
		b.recycle(c.fifo[c.head])
		c.fifo[c.head] = nil
		c.head++
		if c.dead > 0 {
			c.dead--
		}
	}
	n := len(c.fifo)
	if c.dead > 32 && c.dead*2 >= n-c.head {
		kept := c.fifo[:0]
		for _, e := range c.fifo[c.head:] {
			if e.taken {
				b.recycle(e)
				continue
			}
			kept = append(kept, e)
		}
		clear(c.fifo[len(kept):n])
		c.fifo, c.head, c.dead = kept, 0, 0
	} else if c.head > 32 && c.head*2 >= n {
		c.fifo = append(c.fifo[:0], c.fifo[c.head:]...)
		clear(c.fifo[len(c.fifo):n])
		c.head = 0
	}
}

// empty recycles every entry of a context whose last live message was
// just consumed and resets its arrival list to the start of its array.
func (c *ctxq) empty(b *mailbox) {
	for i := c.head; i < len(c.fifo); i++ {
		b.recycle(c.fifo[i])
		c.fifo[i] = nil
	}
	c.fifo, c.head, c.dead = c.fifo[:0], 0, 0
}

// mailbox is an MPI-ordered message store indexed per (source, context,
// tag) triple. Each triple's FIFO preserves non-overtaking order; a
// wildcard receive walks its context's arrival list front-to-back and
// takes the first live match — the same message the single-queue linear
// scan used to return, found without visiting other contexts or, for
// exact matches, any scan at all.
type mailbox struct {
	rank int

	byCtx  map[uint32]*ctxq
	closed bool
	// free holds recycled entries; senders to this mailbox take theirs
	// from it.
	free []*qent

	// Scheduler hooks (nil on a bare fabric). waiting records the owner
	// rank's parked receive; there is at most one waiter per mailbox
	// because only the owner receives from it.
	sched   Scheduler
	cost    func(bytes int) time.Duration
	waiting bool
	wmatch  Match
}

func newMailbox(rank int) *mailbox {
	return &mailbox{rank: rank, byCtx: make(map[uint32]*ctxq)}
}

// entry returns a cleared queue entry, recycled when one is free.
func (b *mailbox) entry() *qent {
	if i := len(b.free) - 1; i >= 0 {
		e := b.free[i]
		b.free[i] = nil
		b.free = b.free[:i]
		return e
	}
	return &qent{}
}

// recycle clears e, dropping its payload reference, and keeps it for a
// later entry unless the free list is full. The caller guarantees that
// neither index still reaches e.
func (b *mailbox) recycle(e *qent) {
	*e = qent{}
	if len(b.free) < maxFreeEntries {
		b.free = append(b.free, e)
	}
}

func (b *mailbox) put(e *qent) error {
	m := &e.m
	if b.closed {
		return ErrClosed
	}
	c := b.byCtx[m.Context]
	if c == nil {
		c = &ctxq{triples: make(map[srcTag]tripleq)}
		b.byCtx[m.Context] = c
	}
	k := srcTag{src: m.Src, tag: m.Tag}
	q := c.triples[k]
	if q.tail == nil {
		q.head = e
	} else {
		q.tail.next = e
	}
	q.tail = e
	c.triples[k] = q
	c.fifo = append(c.fifo, e)
	c.live++
	if b.waiting && b.wmatch.Matches(m) {
		b.waiting = false
		b.sched.Wake(b.rank, m.SendVT+b.cost(len(m.Payload)))
	}
	return nil
}

// liveCtx returns the index of context ctx if it holds a live message,
// and nil for a context never used or emptied: a poll of an idle
// context costs one map lookup.
func (b *mailbox) liveCtx(ctx uint32) *ctxq {
	if c := b.byCtx[ctx]; c != nil && c.live > 0 {
		return c
	}
	return nil
}

// find returns the entry m selects, or nil. An exact match is an index
// lookup; a match with a wildcard walks the context's arrival list
// front-to-back and returns the first live match, which is the earliest
// arrival among all matching triples.
func (b *mailbox) find(m Match) *qent {
	c := b.liveCtx(m.Context)
	if c == nil {
		return nil
	}
	if m.Src != AnySource && m.Tag != AnyTag {
		return c.triples[srcTag{src: m.Src, tag: m.Tag}].front()
	}
	c.pruneFifo(b)
	for i := c.head; i < len(c.fifo); i++ {
		e := c.fifo[i]
		if e.taken || !m.Matches(&e.m) {
			continue
		}
		return e
	}
	return nil
}

// findVisible is find restricted to entries with SendVT <= now. A
// sender's clock is monotone, so each (source, tag) FIFO is send-time
// ordered and the exact-match case only needs its head; a wildcard
// match scans the arrival list for the first live visible entry, since
// interleaved senders' timestamps are not ordered by arrival.
func (b *mailbox) findVisible(m Match, now time.Duration) *qent {
	c := b.liveCtx(m.Context)
	if c == nil {
		return nil
	}
	if m.Src != AnySource && m.Tag != AnyTag {
		e := c.triples[srcTag{src: m.Src, tag: m.Tag}].front()
		if e == nil || e.m.SendVT > now {
			return nil
		}
		return e
	}
	c.pruneFifo(b)
	for i := c.head; i < len(c.fifo); i++ {
		e := c.fifo[i]
		if e.taken || !m.Matches(&e.m) || e.m.SendVT > now {
			continue
		}
		return e
	}
	return nil
}

// earliestMatch returns the smallest SendVT among live entries matching
// m.
func (b *mailbox) earliestMatch(m Match) (time.Duration, bool) {
	c := b.liveCtx(m.Context)
	if c == nil {
		return 0, false
	}
	if m.Src != AnySource && m.Tag != AnyTag {
		e := c.triples[srcTag{src: m.Src, tag: m.Tag}].front()
		if e == nil {
			return 0, false
		}
		return e.m.SendVT, true
	}
	c.pruneFifo(b)
	best, ok := time.Duration(0), false
	for i := c.head; i < len(c.fifo); i++ {
		e := c.fifo[i]
		if e.taken || !m.Matches(&e.m) {
			continue
		}
		if !ok || e.m.SendVT < best {
			best, ok = e.m.SendVT, true
		}
	}
	return best, ok
}

// remove consumes e and returns its message. The entry is unlinked
// from its triple first; only then may the arrival list drop and
// recycle it, so a recycled entry is never still a triple's head.
func (b *mailbox) remove(e *qent) Message {
	msg := e.m
	e.taken = true
	c := b.byCtx[msg.Context]
	c.live--
	c.dead++
	k := srcTag{src: msg.Src, tag: msg.Tag}
	q := c.triples[k]
	for q.head != nil && q.head.taken {
		done := q.head
		q.head, done.next = done.next, nil
	}
	if q.head == nil {
		delete(c.triples, k)
	} else {
		c.triples[k] = q
	}
	if c.live == 0 {
		c.empty(b)
	} else {
		c.pruneFifo(b)
	}
	return msg
}

// take removes the first matching message. If block is true it waits for
// one; otherwise it returns errNoMatch immediately.
func (b *mailbox) take(m Match, block bool) (Message, error) {
	for {
		if b.closed {
			return Message{}, ErrClosed
		}
		if e := b.find(m); e != nil {
			return b.remove(e), nil
		}
		if !block {
			return Message{}, errNoMatch
		}
		if err := b.wait(m); err != nil {
			return Message{}, err
		}
	}
}

func (b *mailbox) peekVisible(m Match, now time.Duration) (*Message, bool) {
	if e := b.findVisible(m, now); e != nil {
		return &e.m, true
	}
	return nil, false
}

func (b *mailbox) waitMatch(m Match) error {
	for {
		if b.closed {
			return ErrClosed
		}
		if b.find(m) != nil {
			return nil
		}
		if err := b.wait(m); err != nil {
			return err
		}
	}
}

// wait parks the owner rank until a delivery matching m (or close)
// wakes it. Without a scheduler nothing could, so it fails instead.
func (b *mailbox) wait(m Match) error {
	if b.sched == nil {
		return fmt.Errorf("%w: rank %d receiving context %d source %d tag %d",
			ErrNoScheduler, b.rank, m.Context, m.Src, m.Tag)
	}
	b.waiting = true
	b.wmatch = m
	b.sched.Park(b.rank)
	return nil
}

func (b *mailbox) close() {
	b.closed = true
	if b.waiting {
		b.waiting = false
		b.sched.Wake(b.rank, 0)
	}
}
