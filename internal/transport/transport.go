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
// Matching walks arrival lists. A queued message is one entry, its
// envelope and its links, on two doubly linked lists, both in arrival
// order: its context's list in its mailbox, and its (destination,
// source) list, which spans all of that source's contexts and tags. A
// receive or probe that names its source walks only that source's live
// messages and takes the first whose context and tag match — for an
// exact match, the head of its (source, context, tag) FIFO, as MPI's
// non-overtaking rule requires. An AnySource match walks its context's
// list the same way. Either first match is the earliest arrival among
// all the messages the match selects, exactly the message a
// single-queue linear scan returns. A mailbox keeps only the contexts
// holding a message, in a short slice searched linearly. The fabric
// keeps only the source lists holding a message, in one open-addressed
// table over all of its mailboxes (linear probing, deletion by backward
// shift, no tombstones), allocated at the first delivery with at least
// 2n slots and doubled when half full. So the source index costs what
// is in flight, not n slots per receiving rank, and no receive, probe
// or steady-state message grows a table.
//
// # Recycling
//
// A real MPI library's network layer sends and receives through buffers
// it registers once and reuses; so does this one, and a steady-state
// message costs no heap object. Consuming a message unlinks its entry
// from both lists at once and returns it to the fabric-wide entry pool,
// and payloads come from the fabric's size-class pool. Both pools are
// refilled n at a time, n being the fabric's rank count — one slab of n
// entries, or one backing array cut into n buffers of a class of at
// most 256 B — so a burst of n² small messages, every rank announcing
// itself to every other at a drain, costs O(n) heap objects, on a fresh
// fabric too. A slab stays reachable while anything cut from it is, and
// all of it dies with the fabric. The fabric's per-rank state is slabs
// as well — its mailboxes, its endpoints, and every mailbox's first
// four context slots, cut at the first delivery — so a fabric costs a
// fixed number of heap objects whatever n. The payload follows one
// ownership chain:
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

// Fabric is one interconnect instance serving one simulated job. All
// ranks of the job share the fabric; a restart builds a brand-new one.
type Fabric struct {
	ranks   []int  // 0..n-1 (Ranks)
	session uint64 // lower-half session (SetSession)
	nextCtx uint32
	boxes   []mailbox  // by rank
	eps     []Endpoint // by rank (Endpoint)
	closed  bool

	// Scheduler hooks (nil on a bare fabric; SetScheduler).
	sched Scheduler
	cost  func(bytes int) time.Duration

	// srcs is every mailbox's source index: an open-addressed table of
	// the (destination, source) lists holding a message, live of them,
	// nil until the first delivery (see srcq).
	srcs []srcq
	live int

	// ents holds free queue entries, taken by sends to any mailbox.
	// Only the token holder touches it or bufs (see the package comment).
	ents []*qent
	// bufs holds free payload buffers by size class: bufs[k] are
	// buffers of capacity 1<<(k+minBufShift).
	bufs [maxBufShift - minBufShift + 1][][]byte
}

// Pool bounds. A payload class holds buffers of one power-of-two
// capacity from 1<<minBufShift to 1<<maxBufShift bytes; larger payloads
// are plain allocations. A class keeps at most bufClassBytes of idle
// buffers and never more than maxClassBufs of them, and the entry pool
// keeps at most maxFreeEntries idle queue entries per rank, so an idle
// fabric holds a bounded amount of pooled memory however large a burst
// was. A class of at most 1<<maxSlabShift bytes is refilled a batch of
// buffers at a time, a larger one a buffer at a time.
const (
	minBufShift    = 3  // 8 B
	maxBufShift    = 16 // 64 KB
	maxSlabShift   = 8  // 256 B
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
		boxes:   make([]mailbox, n),
		eps:     make([]Endpoint, n),
	}
	for i := range f.boxes {
		f.ranks[i] = i
		f.boxes[i] = mailbox{rank: i, fab: f}
		f.eps[i] = Endpoint{fabric: f, rank: i}
	}
	return f
}

// SetScheduler attaches the kernel's scheduler: blocked receives park
// their rank through s, and deliveries wake the destination rank at
// SendVT + cost(len(payload)). Must be called before any endpoint
// operation; the cluster attaches it right after NewFabric.
func (f *Fabric) SetScheduler(s Scheduler, cost func(bytes int) time.Duration) {
	f.sched, f.cost = s, cost
}

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
	c := 1 << k
	if k > maxSlabShift {
		return make([]byte, n, c)
	}
	// Cut one backing array into Size() buffers (at most a class's
	// worth), each capped at the class size so Free takes it back.
	slab := make([]byte, min(len(f.ranks), maxClassBufs)*c)
	for off := c; off < len(slab); off += c {
		*free = append(*free, slab[off:off+c:off+c])
	}
	return slab[:n:c]
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
	return &f.eps[r]
}

// Close shuts the fabric down, waking all blocked receivers with
// ErrClosed. Close is idempotent.
func (f *Fabric) Close() {
	if !f.closed {
		f.closed = true
		for i := range f.boxes {
			if b := &f.boxes[i]; b.waiting {
				b.waiting = false
				f.sched.Wake(b.rank, 0)
			}
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
	box := &e.fabric.boxes[dst]
	ent := e.fabric.entry()
	ent.m = Message{
		Src:     e.rank,
		Context: ctx,
		Tag:     tag,
		Payload: payload,
		SendVT:  sendVT,
	}
	box.put(ent)
	return nil
}

// SleepUntil parks the calling rank's activity until virtual time at.
// It requires an attached scheduler that supports timed parking (the
// kernel's ParkUntil) and returns ErrNoScheduler without one.
func (e *Endpoint) SleepUntil(at time.Duration) error {
	if e.fabric.closed {
		return ErrClosed
	}
	type timedParker interface {
		ParkUntil(rank int, at time.Duration)
	}
	tp, ok := e.fabric.sched.(timedParker)
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

// anyTime is a send-time limit every message meets.
const anyTime = time.Duration(1<<63 - 1)

// qent is one queued message: the envelope and its links in two
// arrival-ordered lists of its mailbox, its context's (prev, next) and
// its source's (sprev, snext), allocated together and recycled through
// the fabric's entry pool.
type qent struct {
	m            Message
	prev, next   *qent
	sprev, snext *qent
}

// ctxq is one context's arrival list.
type ctxq struct {
	ctx        uint32
	head, tail *qent
}

// srcq is one slot of the fabric's source index: the arrival list of
// the messages from src queued at dst, across all of src's contexts and
// tags. A slot whose head is nil is empty. A slot is claimed when its
// list gets a first entry and freed when the list empties, so the table
// holds only non-empty lists.
type srcq struct {
	dst, src   int32
	head, tail *qent
}

// mailbox is an MPI-ordered message store. Every queued entry is on its
// context's list and on its (destination, source) list in the fabric's
// index, both in arrival order, so the first entry a match selects on
// either list is the earliest arrival among all the messages it
// selects.
type mailbox struct {
	rank int
	fab  *Fabric // owns the entry pool and the source index

	// ctxs holds the contexts with a queued message, searched linearly.
	// The first delivery to any mailbox carves every mailbox's first
	// four from one slab; an append past them reallocates privately.
	ctxs []ctxq

	// waiting records the owner rank's parked receive; there is at most
	// one waiter per mailbox because only the owner receives from it.
	waiting bool
	wmatch  Match
}

// entry returns a cleared queue entry for a send to any mailbox. An
// empty pool is refilled with one slab of Size() entries.
func (f *Fabric) entry() *qent {
	if len(f.ents) == 0 {
		slab := make([]qent, len(f.ranks))
		for i := len(slab) - 1; i > 0; i-- {
			f.ents = append(f.ents, &slab[i])
		}
		return &slab[0]
	}
	i := len(f.ents) - 1
	e := f.ents[i]
	f.ents[i] = nil
	f.ents = f.ents[:i]
	return e
}

// recycle clears e, dropping its payload reference and its links, and
// keeps it for a later send unless the pool already holds maxFreeEntries
// per rank. The caller guarantees that no list still reaches e.
func (f *Fabric) recycle(e *qent) {
	*e = qent{}
	if len(f.ents) < maxFreeEntries*len(f.ranks) {
		f.ents = append(f.ents, e)
	}
}

// ctx returns context id's arrival list, or nil when none of its
// messages is queued.
func (b *mailbox) ctx(id uint32) *ctxq {
	for i := range b.ctxs {
		if b.ctxs[i].ctx == id {
			return &b.ctxs[i]
		}
	}
	return nil
}

// home returns the slot (dst, src)'s probe starts from: a Fibonacci
// hash of the pair's index among the n² pairs, taken to the table's
// size, a power of two.
func (f *Fabric) home(dst, src int) int {
	k := uint64(dst)*uint64(len(f.ranks)) + uint64(src)
	return int(k * 0x9e3779b97f4a7c15 >> (64 - bits.TrailingZeros(uint(len(f.srcs)))))
}

// slot returns the index of (dst, src)'s slot in the source index: the
// one holding its list, or the empty slot that ends its probe. The
// table is never more than half full, so every probe ends.
func (f *Fabric) slot(dst, src int) int {
	mask := len(f.srcs) - 1
	for i := f.home(dst, src); ; i = (i + 1) & mask {
		if s := &f.srcs[i]; s.head == nil || int(s.dst) == dst && int(s.src) == src {
			return i
		}
	}
}

// claim returns the slot of (dst, src)'s list for a message about to
// join it, claiming an empty slot if the list is empty. The index is
// allocated here at the first delivery, with the smallest power of two
// of at least 2n slots, and doubled before a claim would fill more than
// half of it.
func (f *Fabric) claim(dst, src int) int {
	if f.srcs == nil {
		f.srcs = make([]srcq, 1<<bits.Len(uint(2*len(f.ranks)-1)))
	}
	i := f.slot(dst, src)
	if f.srcs[i].head != nil {
		return i
	}
	if 2*(f.live+1) > len(f.srcs) {
		old := f.srcs
		f.srcs = make([]srcq, 2*len(old))
		for _, s := range old {
			if s.head != nil {
				f.srcs[f.slot(int(s.dst), int(s.src))] = s
			}
		}
		i = f.slot(dst, src)
	}
	f.srcs[i].dst, f.srcs[i].src = int32(dst), int32(src)
	f.live++
	return i
}

// free empties slot i, whose list just emptied, and shifts back each
// later slot of its probe run whose home does not lie between the hole
// and itself, so that every live list stays reachable from its home
// with no tombstone.
func (f *Fabric) free(i int) {
	mask := len(f.srcs) - 1
	for j := (i + 1) & mask; f.srcs[j].head != nil; j = (j + 1) & mask {
		s := &f.srcs[j]
		if (j-f.home(int(s.dst), int(s.src)))&mask >= (j-i)&mask {
			f.srcs[i] = *s
			i = j
		}
	}
	f.srcs[i] = srcq{}
	f.live--
}

// put queues e, for an open fabric (SendOwned checks), on both of its
// lists and wakes the owner if its parked receive matches.
func (b *mailbox) put(e *qent) {
	m := &e.m
	f := b.fab
	if b.ctxs == nil {
		// The fabric's first delivery: room for two communicators'
		// point-to-point and collective contexts in every mailbox.
		slab := make([]ctxq, 4*len(f.boxes))
		for r := range f.boxes {
			f.boxes[r].ctxs = slab[4*r : 4*r : 4*r+4]
		}
	}
	c := b.ctx(m.Context)
	if c == nil {
		b.ctxs = append(b.ctxs, ctxq{ctx: m.Context})
		c = &b.ctxs[len(b.ctxs)-1]
	}
	if c.tail == nil {
		c.head = e
	} else {
		c.tail.next, e.prev = e, c.tail
	}
	c.tail = e
	s := &f.srcs[f.claim(b.rank, m.Src)]
	if s.tail == nil {
		s.head = e
	} else {
		s.tail.snext, e.sprev = e, s.tail
	}
	s.tail = e
	if b.waiting && b.wmatch.Matches(m) {
		b.waiting = false
		f.sched.Wake(b.rank, m.SendVT+f.cost(len(m.Payload)))
	}
}

// head returns the first entry of the list m walks: its source's list
// for a named source, its context's for AnySource.
func (b *mailbox) head(m Match) *qent {
	if m.Src != AnySource {
		if f := b.fab; f.srcs != nil && uint(m.Src) < uint(len(f.ranks)) {
			return f.srcs[f.slot(b.rank, m.Src)].head
		}
		return nil
	}
	if c := b.ctx(m.Context); c != nil {
		return c.head
	}
	return nil
}

// step returns the entry after e on the list head(m) starts.
func (m Match) step(e *qent) *qent {
	if m.Src != AnySource {
		return e.snext
	}
	return e.next
}

// find returns the earliest-arrived entry m selects among those sent at
// or before limit, or nil.
func (b *mailbox) find(m Match, limit time.Duration) *qent {
	for e := b.head(m); e != nil; e = m.step(e) {
		if m.Matches(&e.m) && e.m.SendVT <= limit {
			return e
		}
	}
	return nil
}

// findVisible is find restricted to entries with SendVT <= now. A
// sender's clock is monotone, so each (source, context, tag) FIFO is
// send-time ordered and an exact match looks only at its FIFO's first
// entry; a match with a wildcard takes the first visible entry it
// selects, since interleaved FIFOs' timestamps are not ordered by
// arrival.
func (b *mailbox) findVisible(m Match, now time.Duration) *qent {
	if m.Src != AnySource && m.Tag != AnyTag {
		if e := b.find(m, anyTime); e != nil && e.m.SendVT <= now {
			return e
		}
		return nil
	}
	return b.find(m, now)
}

// earliestMatch returns the smallest SendVT among entries matching m;
// for an exact match, that of its FIFO's first entry.
func (b *mailbox) earliestMatch(m Match) (time.Duration, bool) {
	if m.Src != AnySource && m.Tag != AnyTag {
		if e := b.find(m, anyTime); e != nil {
			return e.m.SendVT, true
		}
		return 0, false
	}
	best, ok := time.Duration(0), false
	for e := b.head(m); e != nil; e = m.step(e) {
		if m.Matches(&e.m) && (!ok || e.m.SendVT < best) {
			best, ok = e.m.SendVT, true
		}
	}
	return best, ok
}

// remove consumes e: it unlinks e from both of its lists, drops its
// context from ctxs and frees its source's slot if that emptied them,
// and recycles e.
func (b *mailbox) remove(e *qent) Message {
	msg := e.m
	c := b.ctx(msg.Context)
	if e.prev == nil {
		c.head = e.next
	} else {
		e.prev.next = e.next
	}
	if e.next == nil {
		c.tail = e.prev
	} else {
		e.next.prev = e.prev
	}
	if c.head == nil {
		last := len(b.ctxs) - 1
		*c, b.ctxs[last] = b.ctxs[last], ctxq{}
		b.ctxs = b.ctxs[:last]
	}
	f := b.fab
	i := f.slot(b.rank, msg.Src)
	s := &f.srcs[i]
	if e.sprev == nil {
		s.head = e.snext
	} else {
		e.sprev.snext = e.snext
	}
	if e.snext == nil {
		s.tail = e.sprev
	} else {
		e.snext.sprev = e.sprev
	}
	if s.head == nil {
		f.free(i)
	}
	f.recycle(e)
	return msg
}

// take removes the first matching message. If block is true it waits for
// one; otherwise it returns errNoMatch immediately.
func (b *mailbox) take(m Match, block bool) (Message, error) {
	for {
		if b.fab.closed {
			return Message{}, ErrClosed
		}
		if e := b.find(m, anyTime); e != nil {
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
		if b.fab.closed {
			return ErrClosed
		}
		if b.find(m, anyTime) != nil {
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
	if b.fab.sched == nil {
		return fmt.Errorf("%w: rank %d receiving context %d source %d tag %d",
			ErrNoScheduler, b.rank, m.Context, m.Src, m.Tag)
	}
	b.waiting = true
	b.wmatch = m
	b.fab.sched.Park(b.rank)
	return nil
}
