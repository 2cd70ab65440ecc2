package ckpt

import (
	"fmt"

	"manasim/internal/ckptimg"
	"manasim/internal/ckptstore"
)

// TagAnnounce is the MANA-internal tag used on the internal
// communicator for checkpoint coordination messages (rank 0 announcing
// the agreed boundary).
const TagAnnounce = 1

// TagDrainCounters is the MANA-internal tag drain strategies use for
// counter announcements on the internal communicator.
const TagDrainCounters = 2

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
	// be AnySource); on success it reports the actual source and the
	// message's size in values, the count a CtlRecv of it posts.
	CtlIprobe(src, tag int) (ok bool, source, count int, err error)
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
// the generation-chained checkpoint store. It has one caller at a time:
// the rank holding the kernel's execution token, or the goroutine that
// owns the job before its ranks start and after they finish (see the
// package comment, "Concurrency model").
type Coordinator struct {
	n     int
	store *ckptstore.Store
	lag   int

	// atStep is a preset checkpoint boundary (deterministic tests and
	// scheduled checkpoints); <0 means none.
	atStep int
	// asyncReq requests a checkpoint "now": rank 0 picks the boundary
	// at its next safe point and announces it (the signal path).
	asyncReq bool
	// announced is set once rank 0 has broadcast the agreed boundary;
	// non-root ranks poll for the announcement while it is set.
	announced bool

	// gen stages the current generation's delivered images by rank; a
	// generation reaches the store only when every rank has delivered,
	// so the store never records a partial generation.
	gen map[int][]byte
	// taken counts checkpoint generations completed by THIS coordinator
	// (a restarted job reuses a store with earlier generations).
	taken int
}

// NewStoreCoordinator builds a coordinator delivering into st.
func NewStoreCoordinator(n int, st *ckptstore.Store, lag int) *Coordinator {
	if lag <= 0 {
		lag = 8
	}
	return &Coordinator{n: n, store: st, lag: lag, atStep: -1, gen: make(map[int][]byte)}
}

// RequestCheckpointAtStep schedules a checkpoint at the given step
// boundary (before executing that step). All ranks observe the same
// target, so no agreement traffic is needed.
func (c *Coordinator) RequestCheckpointAtStep(s int) { c.atStep = s }

// RequestCheckpoint asks for a checkpoint as soon as possible: rank 0
// picks a boundary a few steps ahead at its next safe point and
// announces it to all ranks over MANA's internal communicator — the
// simulator's stand-in for the checkpoint signal.
func (c *Coordinator) RequestCheckpoint() { c.asyncReq = true }

// Store exposes the generation-chained checkpoint store.
func (c *Coordinator) Store() *ckptstore.Store { return c.store }

// Taken reports how many complete checkpoints this coordinator wrote.
func (c *Coordinator) Taken() int { return c.taken }

// Images returns the most recent committed generation as full encoded
// images ordered by rank: MaterializeStreamHead resolves base+delta
// chains, and each resolved image is encoded with the store's options.
// It returns an *IncompleteSetError when the store holds no complete
// generation.
func (c *Coordinator) Images() ([][]byte, error) {
	if _, ok := c.store.Head(); !ok {
		return nil, &IncompleteSetError{Have: len(c.gen), Want: c.n}
	}
	imgs, _, err := c.store.MaterializeStreamHead()
	if err != nil {
		return nil, err
	}
	images := make([][]byte, len(imgs))
	for r, img := range imgs {
		if images[r], err = ckptimg.EncodeOpts(img, c.store.EncodeOptions()); err != nil {
			return nil, err
		}
	}
	return images, nil
}

// Deliver records one rank's encoded image for the current generation.
// A rank delivering twice into the same generation is a protocol
// violation reported as *DoubleDeliverError. The generation is
// committed to the store only once every rank has delivered; a killed
// rank therefore leaves nothing behind but staged bytes that die with
// the coordinator.
//
// The store commit issued by the last-delivering rank is where the
// checkpoint pipeline runs: Store.Commit validates, indexes and writes
// every rank's image in rank order, while every other rank of the job
// is parked at the post-checkpoint barrier.
func (c *Coordinator) Deliver(rank int, data []byte) error {
	if rank < 0 || rank >= c.n {
		return fmt.Errorf("ckpt: deliver from rank %d of a %d-rank job", rank, c.n)
	}
	if _, dup := c.gen[rank]; dup {
		return &DoubleDeliverError{Rank: rank, Gen: c.taken}
	}
	c.gen[rank] = data
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
	if c.atStep >= 0 && pending < 0 {
		pending = clampStep(c.atStep, total)
	}

	// Async signal path: rank 0 picks the boundary and announces it.
	if c.asyncReq && !c.announced && pending < 0 && rank == 0 {
		s := clampStep(step+c.lag, total)
		pending = s
		for p := 1; p < c.n; p++ {
			if err := link.CtlSend(p, TagAnnounce, []int64{int64(s)}); err != nil {
				return pending, fmt.Errorf("ckpt: announcing checkpoint: %w", err)
			}
		}
		c.announced = true
	}

	// Non-root ranks poll for an announcement at every safe point. The
	// poll is deliberately not gated on c.announced: with periodic
	// checkpoints, a rank still finishing generation k calls
	// CheckpointDone — clearing the flags — after rank 0 has already
	// announced generation k+1, and a flag-gated poll would miss that
	// announcement forever (the announcing rank then parks alone in the
	// next drain: deadlock). The message's presence is the ground truth.
	if pending < 0 && rank != 0 {
		ok, _, _, err := link.CtlIprobe(0, TagAnnounce)
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
// checkpointing, so clearing the flags here is idempotent.
func (c *Coordinator) CheckpointDone(step, total int) {
	if c.atStep >= 0 && clampStep(c.atStep, total) == step {
		c.atStep = -1
	}
	c.asyncReq = false
	c.announced = false
}

// clampStep bounds a checkpoint target to the final boundary.
func clampStep(s, total int) int {
	if s > total {
		return total
	}
	return s
}
