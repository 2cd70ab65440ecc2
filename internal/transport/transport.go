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
// and a triple's FIFO is a list threaded through the entries, so a
// queued message costs two allocations: the entry and the payload.
// A fully specified receive is a map lookup; a wildcard receive walks
// its context's arrival list front-to-back and takes the first live
// match — exactly the message the old single-queue linear scan found,
// but without visiting other contexts, and an AnySource probe against a
// mailbox holding thousands of per-source triples stops at the first
// match instead of ranking every triple.
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
// Mailboxes carry no lock. The kernel runs one rank at a time, and a
// mailbox is touched only by the rank holding the execution token — its
// owner receiving or probing, or a peer depositing. The one exception
// is the stall teardown, Fabric.Close on the scheduler goroutine while
// every rank is parked, and the kernel's channel handoff orders it
// before the next rank resumes. A fabric without a scheduler must be
// driven by a single goroutine.
package transport

import (
	"errors"
	"fmt"
	"sync/atomic"
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
	// Src and Dst are world ranks.
	Src, Dst int
	// Context is the communicator context id (lower-half concept): a
	// message only matches receives posted on the same context.
	Context uint32
	// Tag is the user tag.
	Tag int
	// Payload is the message body. The transport owns this copy.
	Payload []byte
	// SendVT is the sender's virtual time at send, used by the receiver
	// to account transfer cost.
	SendVT time.Duration
	// Seq is a fabric-global sequence number fixing arrival order.
	Seq uint64
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
	n       int
	session uint64 // distinguishes fabric instances (lower-half sessions)
	seq     atomic.Uint64
	nextCtx atomic.Uint32
	boxes   []*mailbox
	closed  atomic.Bool
	filter  FaultFilter
}

var sessionCounter atomic.Uint64

// NewFabric creates an interconnect for n ranks. Context ids below
// firstCtx are reserved for predefined communicators.
func NewFabric(n int) *Fabric {
	if n <= 0 {
		panic(fmt.Sprintf("transport: invalid rank count %d", n))
	}
	f := &Fabric{
		n:       n,
		session: sessionCounter.Add(1),
		boxes:   make([]*mailbox, n),
	}
	f.nextCtx.Store(16) // contexts 0..15 reserved for predefined comms
	for i := range f.boxes {
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
func (f *Fabric) Size() int { return f.n }

// Session returns a number unique to this fabric instance. MPI
// implementations that hand out pointer-valued handles mix it into their
// simulated addresses so that addresses differ across restarts, exactly
// as a re-executed lower half would.
func (f *Fabric) Session() uint64 { return f.session }

// AllocContext returns a fresh communicator context id, unique within
// the fabric. Real implementations agree on context ids with a collective
// over the parent communicator; the fabric-global counter models the
// result of that agreement (all members obtain the same id because the
// allocation is performed once by the collective algorithm, not once per
// member).
func (f *Fabric) AllocContext() uint32 { return f.nextCtx.Add(1) }

// AllocContextRange reserves n consecutive context ids and returns the
// first. Communicator split uses one id per color.
func (f *Fabric) AllocContextRange(n int) uint32 {
	if n < 1 {
		n = 1
	}
	end := f.nextCtx.Add(uint32(n))
	return end - uint32(n) + 1
}

// Endpoint returns rank r's attachment point.
func (f *Fabric) Endpoint(r int) *Endpoint {
	if r < 0 || r >= f.n {
		panic(fmt.Sprintf("transport: endpoint rank %d out of range [0,%d)", r, f.n))
	}
	return &Endpoint{fabric: f, rank: r}
}

// Close shuts the fabric down, waking all blocked receivers with
// ErrClosed. Close is idempotent.
func (f *Fabric) Close() {
	if f.closed.Swap(true) {
		return
	}
	for _, b := range f.boxes {
		b.close()
	}
}

// InFlight returns the total number of undelivered messages across all
// mailboxes. Used by tests and by diagnostics; MANA itself counts
// messages in the upper half as a real network would force it to.
func (f *Fabric) InFlight() int {
	total := 0
	for _, b := range f.boxes {
		total += b.len()
	}
	return total
}

// Endpoint is one rank's view of the fabric.
type Endpoint struct {
	fabric *Fabric
	rank   int

	// Stats are transport-level counters, readable by tests.
	sent atomic.Uint64
	recv atomic.Uint64
}

// Rank returns the endpoint's world rank.
func (e *Endpoint) Rank() int { return e.rank }

// Sent returns the number of messages sent through this endpoint.
func (e *Endpoint) Sent() uint64 { return e.sent.Load() }

// Received returns the number of messages received through this endpoint.
func (e *Endpoint) Received() uint64 { return e.recv.Load() }

// Send deposits a message in dst's mailbox (eager protocol). The payload
// is copied; the caller may reuse buf immediately. Send never blocks.
func (e *Endpoint) Send(dst int, ctx uint32, tag int, buf []byte, sendVT time.Duration) error {
	return e.SendOwned(dst, ctx, tag, append([]byte(nil), buf...), sendVT)
}

// SendOwned is Send without the copy: payload becomes the transport's,
// and the caller must not touch it again. It is for a caller that has
// just built the payload itself — the MPI engine packs the user buffer
// into a fresh slice — so that one copy, not two, separates the
// sender's buffer from the mailbox.
func (e *Endpoint) SendOwned(dst int, ctx uint32, tag int, payload []byte, sendVT time.Duration) error {
	if e.fabric.closed.Load() {
		return ErrClosed
	}
	if dst < 0 || dst >= e.fabric.n {
		return fmt.Errorf("transport: send to rank %d out of range [0,%d)", dst, e.fabric.n)
	}
	ent := &qent{m: Message{
		Src:     e.rank,
		Dst:     dst,
		Context: ctx,
		Tag:     tag,
		Payload: payload,
		SendVT:  sendVT,
		Seq:     e.fabric.seq.Add(1),
	}}
	if fn := e.fabric.filter; fn != nil {
		drop, delay := fn(&ent.m)
		if drop {
			// The bytes left the sender and vanished on the wire: the
			// send itself still succeeded and is counted.
			e.sent.Add(1)
			return nil
		}
		if delay > 0 {
			ent.m.SendVT += delay
		}
	}
	e.sent.Add(1)
	return e.fabric.boxes[dst].put(ent)
}

// SleepUntil parks the calling rank's activity until virtual time at.
// It requires an attached scheduler that supports timed parking (the
// kernel's ParkUntil) and returns ErrNoScheduler without one.
func (e *Endpoint) SleepUntil(at time.Duration) error {
	if e.fabric.closed.Load() {
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
	if e.fabric.closed.Load() {
		return ErrClosed
	}
	return nil
}

// Recv blocks until a message matching m arrives, removes it, and
// returns it. It returns ErrClosed if the fabric shuts down first, and
// ErrNoScheduler if it would have to block on a fabric with no
// scheduler.
func (e *Endpoint) Recv(m Match) (*Message, error) {
	msg, err := e.fabric.boxes[e.rank].take(m, true)
	if err != nil {
		return nil, err
	}
	e.recv.Add(1)
	return msg, nil
}

// TryRecv removes and returns a matching message if one is already
// present; ok reports whether a message was found. It never blocks.
func (e *Endpoint) TryRecv(m Match) (msg *Message, ok bool, err error) {
	msg, err = e.fabric.boxes[e.rank].take(m, false)
	if err != nil {
		if errors.Is(err, errNoMatch) {
			return nil, false, nil
		}
		return nil, false, err
	}
	e.recv.Add(1)
	return msg, true, nil
}

// Probe reports whether a message matching m is waiting, without
// removing it. The returned message must not be mutated.
func (e *Endpoint) Probe(m Match) (msg *Message, ok bool) {
	return e.fabric.boxes[e.rank].peek(m)
}

// ProbeVisible is Probe restricted to the receiver's virtual present: it
// only reports messages whose send timestamp is at or before now. The
// eager transport deposits a message the moment the sender issues it, so
// a rank whose clock lags the sender's would otherwise observe an
// envelope from its own virtual future — a causality leak that lets a
// nonblocking probe drag the receiver's clock forward when the message
// is then received.
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

// Pending returns the number of undelivered messages waiting in this
// endpoint's mailbox.
func (e *Endpoint) Pending() int { return e.fabric.boxes[e.rank].len() }

// errNoMatch is an internal sentinel for non-blocking take.
var errNoMatch = errors.New("transport: no matching message")

// srcTag is the per-context index key of one matching FIFO.
type srcTag struct {
	src int
	tag int
}

// qent is one queued message: the envelope and its queue links,
// allocated together. The same entry is linked from two indexes — its
// (source, tag) FIFO and its context's arrival list — so consuming it
// through either marks it taken and the other index skips it lazily.
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
// exact-match lookups, fifo for arrival-ordered wildcard scans.
type ctxq struct {
	triples map[srcTag]tripleq
	fifo    []*qent
	head    int
	live    int // untaken entries
	dead    int // taken entries still in fifo past head
}

// pruneFifo drops the consumed prefix of the arrival list and rebuilds
// the list once interior consumed entries (taken through an exact-match
// receive) dominate it, so wildcard scans stay amortized-linear in live
// messages.
func (c *ctxq) pruneFifo() {
	for c.head < len(c.fifo) && c.fifo[c.head].taken {
		c.fifo[c.head] = nil
		c.head++
		if c.dead > 0 {
			c.dead--
		}
	}
	if c.dead > 32 && c.dead*2 >= len(c.fifo)-c.head {
		kept := make([]*qent, 0, c.live)
		for _, e := range c.fifo[c.head:] {
			if !e.taken {
				kept = append(kept, e)
			}
		}
		c.fifo, c.head, c.dead = kept, 0, 0
	} else if c.head > 32 && c.head*2 >= len(c.fifo) {
		c.fifo = append(c.fifo[:0], c.fifo[c.head:]...)
		c.head = 0
	}
}

// mailbox is an MPI-ordered message store indexed per (source, context,
// tag) triple. Each triple's FIFO preserves non-overtaking order; a
// wildcard receive walks its context's arrival list front-to-back and
// takes the first live match — the same message the single-queue linear
// scan used to return, found without visiting other contexts or, for
// exact matches, any scan at all.
//
// A mailbox has no lock: only the rank holding the kernel's execution
// token touches it (see the package comment, "Blocking and ownership").
type mailbox struct {
	rank int

	byCtx  map[uint32]*ctxq
	count  int
	closed bool

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
	b.count++
	if b.waiting && b.wmatch.Matches(m) {
		b.waiting = false
		b.sched.Wake(b.rank, m.SendVT+b.cost(len(m.Payload)))
	}
	return nil
}

func (b *mailbox) len() int { return b.count }

// find returns the entry m selects, or nil. An exact match is an index
// lookup; a match with a wildcard walks the context's arrival list
// front-to-back and returns the first live match, which is the earliest
// arrival among all matching triples.
func (b *mailbox) find(m Match) *qent {
	c := b.byCtx[m.Context]
	if c == nil {
		return nil
	}
	if m.Src != AnySource && m.Tag != AnyTag {
		return c.triples[srcTag{src: m.Src, tag: m.Tag}].front()
	}
	c.pruneFifo()
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
	c := b.byCtx[m.Context]
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
	c.pruneFifo()
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
	c := b.byCtx[m.Context]
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
	c.pruneFifo()
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

// remove consumes e and drops emptied index entries.
func (b *mailbox) remove(e *qent) *Message {
	msg := &e.m
	e.taken = true
	b.count--
	c := b.byCtx[msg.Context]
	c.live--
	c.dead++
	c.pruneFifo()
	k := srcTag{src: msg.Src, tag: msg.Tag}
	q := c.triples[k]
	for q.head != nil && q.head.taken {
		// Unlink, so a consumed message its receiver still holds does
		// not keep the entries queued behind it reachable.
		done := q.head
		q.head, done.next = done.next, nil
	}
	if q.head == nil {
		delete(c.triples, k)
	} else {
		c.triples[k] = q
	}
	if c.live == 0 {
		delete(b.byCtx, msg.Context)
	}
	return msg
}

// take removes the first matching message. If block is true it waits for
// one; otherwise it returns errNoMatch immediately.
func (b *mailbox) take(m Match, block bool) (*Message, error) {
	for {
		if b.closed {
			return nil, ErrClosed
		}
		if e := b.find(m); e != nil {
			return b.remove(e), nil
		}
		if !block {
			return nil, errNoMatch
		}
		if err := b.wait(m); err != nil {
			return nil, err
		}
	}
}

func (b *mailbox) peek(m Match) (*Message, bool) {
	if e := b.find(m); e != nil {
		return &e.m, true
	}
	return nil, false
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
