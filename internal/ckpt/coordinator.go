package ckpt

import (
	"fmt"
	"sync"
	"sync/atomic"

	"manasim/internal/ckptstore"
	"manasim/internal/fsim"
)

// TagAnnounce is the MANA-internal tag used on the internal
// communicator for checkpoint coordination messages (rank 0 announcing
// the agreed boundary).
const TagAnnounce = 1

// TagDrainCounters is the MANA-internal tag drain strategies use for
// counter announcements on the internal communicator.
const TagDrainCounters = 2

// TagDrainAck acknowledges a received counter announcement under the
// reliable drain protocol. Acks are never dropped by the fault
// injector: only the first transmission of a counter row is lossy, so
// the timeout-and-resend recovery terminates.
const TagDrainAck = 3

// TagDrainResend carries a retransmitted counter row after an ack
// timeout. Resends, like acks, are exempt from injected loss.
const TagDrainResend = 4

// DoubleDeliverError reports a rank delivering two images into the same
// checkpoint generation — a protocol violation that previously
// overwrote the first image silently.
type DoubleDeliverError struct {
	Rank int
	Gen  int // generation index (count of completed checkpoints)
}

func (e *DoubleDeliverError) Error() string {
	return fmt.Sprintf("ckpt: rank %d delivered twice into checkpoint generation %d", e.Rank, e.Gen)
}

// IncompleteSetError reports that no complete image set exists: either
// no checkpoint has finished, or a generation is still in flight.
type IncompleteSetError struct {
	Have, Want int
}

func (e *IncompleteSetError) Error() string {
	return fmt.Sprintf("ckpt: have %d/%d rank images", e.Have, e.Want)
}

// CtlLink is the rank-side transport for checkpoint coordination
// traffic: small int64 payloads over MANA's internal communicator,
// bracketed by the split-process boundary. internal/core implements it
// on top of the lower half.
type CtlLink interface {
	// CtlSend sends vals to dest under tag.
	CtlSend(dest, tag int, vals []int64) error
	// CtlIprobe polls for a pending control message from src (which may
	// be AnySource); on success it reports the actual source.
	CtlIprobe(src, tag int) (ok bool, source int, err error)
	// CtlWait blocks until a control message from src (which may be
	// AnySource) with tag is probeable, without receiving it. Drain
	// strategies that wait for peer announcements use it instead of
	// spin-polling CtlIprobe: under the rank-serial kernel a spinning
	// rank never yields.
	CtlWait(src, tag int) error
	// CtlRecv receives one message from src under tag and returns
	// exactly the values that arrived. count is the capacity posted for
	// it, not the length expected: a shorter message yields fewer
	// values, a longer one is an error. The slice is the link's staging
	// buffer and is valid until the next CtlRecv on the link.
	CtlRecv(src, tag, count int) ([]int64, error)
}

// Coordinator drives checkpoints across the ranks of one MANA job. It
// plays the role of the DMTCP coordinator in real MANA: an entity
// outside the ranks that requests checkpoints and collects images into
// the generation-chained checkpoint store.
type Coordinator struct {
	n       int
	fs      fsim.FS
	storage *fsim.Storage
	store   *ckptstore.Store
	lag     int

	// atStep is a preset checkpoint boundary (deterministic tests and
	// scheduled checkpoints); <0 means none.
	atStep atomic.Int64
	// asyncReq requests a checkpoint "now": rank 0 picks the boundary
	// at its next safe point and announces it (the signal path).
	asyncReq atomic.Bool
	// announced is set once rank 0 has broadcast the agreed boundary;
	// non-root ranks poll for the announcement while it is set.
	announced atomic.Bool

	mu sync.Mutex
	// gen stages the current generation's delivered images by rank; a
	// generation reaches the store only when every rank has delivered,
	// so the store never records a partial generation.
	gen map[int][]byte
	// taken counts checkpoint generations completed by THIS coordinator
	// (a restarted job reuses a store with earlier generations).
	taken int
}

// NewCoordinator builds a coordinator for an n-rank job with a fresh
// in-memory, full-image store (the compat path: callers that want delta
// images or durable backends use NewStoreCoordinator).
func NewCoordinator(n int, fs fsim.FS, storage *fsim.Storage, lag int) *Coordinator {
	return NewStoreCoordinator(n, fs, storage, nil, lag)
}

// NewStoreCoordinator builds a coordinator delivering into st; a nil st
// gets a fresh in-memory store.
func NewStoreCoordinator(n int, fs fsim.FS, storage *fsim.Storage, st *ckptstore.Store, lag int) *Coordinator {
	if storage == nil {
		storage = fsim.NewStorage()
	}
	if st == nil {
		st = ckptstore.MustOpen(n, ckptstore.Options{})
	}
	if lag <= 0 {
		lag = 8
	}
	c := &Coordinator{n: n, fs: fs, storage: storage, store: st, lag: lag, gen: make(map[int][]byte)}
	c.atStep.Store(-1)
	return c
}

// RequestCheckpointAtStep schedules a checkpoint at the given step
// boundary (before executing that step). All ranks observe the same
// target, so no agreement traffic is needed.
func (c *Coordinator) RequestCheckpointAtStep(s int) { c.atStep.Store(int64(s)) }

// RequestCheckpoint asks for a checkpoint as soon as possible: rank 0
// picks a boundary a few steps ahead at its next safe point and
// announces it to all ranks over MANA's internal communicator — the
// simulator's stand-in for the checkpoint signal.
func (c *Coordinator) RequestCheckpoint() { c.asyncReq.Store(true) }

// Storage exposes the legacy flat image store (fault-injection tests).
func (c *Coordinator) Storage() *fsim.Storage { return c.storage }

// Store exposes the generation-chained checkpoint store.
func (c *Coordinator) Store() *ckptstore.Store { return c.store }

// Taken reports how many complete checkpoints this coordinator wrote.
func (c *Coordinator) Taken() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.taken
}

// Images returns the most recent committed generation as full images
// ordered by rank, materializing base+delta chains. It returns an
// *IncompleteSetError when the store holds no complete generation.
func (c *Coordinator) Images() ([][]byte, error) {
	c.mu.Lock()
	staged := len(c.gen)
	c.mu.Unlock()
	if _, ok := c.store.Head(); !ok {
		return nil, &IncompleteSetError{Have: staged, Want: c.n}
	}
	images, _, err := c.store.MaterializeHead()
	return images, err
}

// Deliver records one rank's encoded image for the current generation.
// A rank delivering twice into the same generation is a protocol
// violation reported as *DoubleDeliverError. The generation is
// committed to the store only once every rank has delivered; a killed
// rank therefore leaves nothing behind but staged bytes that die with
// the coordinator.
//
// The store commit issued by the last-delivering rank is where the
// parallel checkpoint pipeline runs: Store.Commit fans per-rank decode,
// indexing, and backend writes out to its worker pool. Deliver itself
// stays under the coordinator mutex — every other rank of the job is
// parked at the post-checkpoint barrier until the commit returns, so
// there is no concurrent delivery to unblock.
func (c *Coordinator) Deliver(rank int, data []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if rank < 0 || rank >= c.n {
		return fmt.Errorf("ckpt: deliver from rank %d of a %d-rank job", rank, c.n)
	}
	if _, dup := c.gen[rank]; dup {
		return &DoubleDeliverError{Rank: rank, Gen: c.taken}
	}
	c.gen[rank] = data
	c.storage.Write(fmt.Sprintf("ckpt_rank%d", rank), data)
	if len(c.gen) == c.n {
		set := make([][]byte, c.n)
		for r, img := range c.gen {
			set[r] = img
		}
		if _, err := c.store.Commit(set); err != nil {
			return fmt.Errorf("ckpt: committing generation: %w", err)
		}
		c.taken++
		c.gen = make(map[int][]byte)
	}
	return nil
}

// ---------------------------------------------------------------------
// boundary agreement

// NextBoundary runs one rank's side of the boundary-agreement protocol
// at a safe point. pending is the rank's currently agreed target step
// (-1: none); the return value is the updated target. Rank 0 answers an
// asynchronous request by picking a boundary lag steps ahead and
// announcing it over the control link; other ranks poll the link while
// an announcement is in flight.
func (c *Coordinator) NextBoundary(link CtlLink, rank, step, total, pending int) (int, error) {
	// Preset target (deterministic scheduling).
	if t := int(c.atStep.Load()); t >= 0 && pending < 0 {
		pending = clampStep(t, total)
	}

	// Async signal path: rank 0 picks the boundary and announces it.
	if c.asyncReq.Load() && !c.announced.Load() && pending < 0 && rank == 0 {
		s := clampStep(step+c.lag, total)
		pending = s
		for p := 1; p < c.n; p++ {
			if err := link.CtlSend(p, TagAnnounce, []int64{int64(s)}); err != nil {
				return pending, fmt.Errorf("ckpt: announcing checkpoint: %w", err)
			}
		}
		c.announced.Store(true)
	}

	// Non-root ranks poll for an announcement at every safe point. The
	// poll is deliberately not gated on c.announced: with periodic
	// checkpoints, a rank still finishing generation k calls
	// CheckpointDone — clearing the flags — after rank 0 has already
	// announced generation k+1, and a flag-gated poll would miss that
	// announcement forever (the announcing rank then parks alone in the
	// next drain: deadlock). The message's presence is the ground truth.
	if pending < 0 && rank != 0 {
		ok, _, err := link.CtlIprobe(0, TagAnnounce)
		if err != nil {
			return pending, err
		}
		if ok {
			vals, err := link.CtlRecv(0, TagAnnounce, 1)
			if err != nil {
				return pending, err
			}
			if len(vals) != 1 {
				return pending, fmt.Errorf("ckpt: checkpoint announcement of %d values, want 1", len(vals))
			}
			s := int(vals[0])
			if step > s {
				return pending, fmt.Errorf("ckpt: checkpoint skew bound exceeded: rank %d at step %d, target %d (raise Config.SkewBound)", rank, step, s)
			}
			pending = s
		}
	}
	return pending, nil
}

// CheckpointDone clears the request state after every rank checkpointed
// at the given boundary. Every rank consumed its announcement before
// checkpointing, so clearing the flags here is idempotent and
// race-free.
func (c *Coordinator) CheckpointDone(step, total int) {
	if t := c.atStep.Load(); t >= 0 && clampStep(int(t), total) == step {
		c.atStep.Store(-1)
	}
	c.asyncReq.Store(false)
	c.announced.Store(false)
}

// clampStep bounds a checkpoint target to the final boundary.
func clampStep(s, total int) int {
	if s > total {
		return total
	}
	return s
}
