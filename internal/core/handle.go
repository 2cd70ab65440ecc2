package mana

import (
	"time"

	"manasim/internal/app"
	"manasim/internal/ckptstore"
	"manasim/internal/faults"
)

// JobHandle is one job's lifecycle — launch, checkpoint, park, resume —
// as an explicit reentrant object instead of process-wide state. The
// cluster scheduler (internal/sched) owns one handle per submitted job:
// every time the job is granted nodes the scheduler runs one Segment on
// it, and a preempted segment parks at a checkpoint committed into the
// handle's own generation-chained store, from which the next segment
// resumes with RestartJobFromStore. The handle itself holds no running
// state between segments; its persistent state is exactly the store's
// committed generations, which is what makes a kill (discard the
// segment, commit nothing) and a crash (segment error, complete
// generations only) both safe.
type JobHandle struct {
	cfg     Config
	n       int
	factory app.Factory
	store   *ckptstore.Store
}

// NewJobHandle builds a handle for an n-rank application job. The
// config's Store is adopted as the handle's checkpoint store (a fresh
// in-memory store when nil); the rest of the config, JobLabel
// included, flows into every segment.
func NewJobHandle(cfg Config, n int, factory app.Factory) (*JobHandle, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	st, err := cfg.ckptStoreFor(n)
	if err != nil {
		return nil, err
	}
	cfg.Store = st
	return &JobHandle{cfg: cfg, n: n, factory: factory, store: st}, nil
}

// Resumable reports whether a committed generation exists to resume
// from; a non-resumable segment launches fresh.
func (h *JobHandle) Resumable() bool { return len(h.store.Generations()) > 0 }

// Segment parameterizes one scheduling segment of a job.
type Segment struct {
	// StopAtVT, when positive, is the scheduler's preemption cut: rank 0
	// requests a checkpoint at the first safe boundary at or after this
	// much segment virtual time, the generation commits, and the job
	// parks (ExitAtCheckpoint). Zero runs the segment to completion.
	StopAtVT time.Duration
	// Faults, when set, overrides the handle config's injector for this
	// segment (the crash-during-preemption battery arms one per cut).
	Faults *faults.Injector
}

// SegmentResult reports one segment's outcome.
type SegmentResult struct {
	// Stats is the segment's session statistics; Stats.VT is
	// segment-local virtual time (each segment starts a fresh clock).
	Stats Stats
	// Stopped means the segment parked at the preemption checkpoint;
	// false with a nil error means the job ran to completion.
	Stopped bool
	// Resumed means the segment started from a committed generation
	// rather than a fresh launch; Stats.RestartGen names it.
	Resumed bool
}

// RunSegment executes one scheduling segment: resume from the store's
// newest generation when one exists, launch fresh otherwise, and run
// until completion or the segment's preemption cut. It blocks until the
// segment parks, completes, or fails; the handle can then run further
// segments (after a failure, from the last committed generation).
func (h *JobHandle) RunSegment(seg Segment) (SegmentResult, error) {
	cfg := h.cfg
	cfg.Store = h.store
	if seg.Faults != nil {
		cfg.Faults = seg.Faults
	}
	// A segment runs on a fresh clock with no checkpoint behind it, so
	// the periodic trigger's first request is exactly the cut.
	cfg.ExitAtCheckpoint = seg.StopAtVT > 0
	if cfg.ExitAtCheckpoint {
		cfg.CkptInterval = seg.StopAtVT
	}

	var (
		s       *Session
		err     error
		resumed bool
	)
	if h.Resumable() {
		s, err = RestartJobFromStore(cfg, h.store, h.factory)
		resumed = true
	} else {
		s, err = StartJob(cfg, h.n, h.factory)
	}
	if err != nil {
		return SegmentResult{}, err
	}
	st, err := s.Wait()
	return SegmentResult{
		Stats:   st,
		Stopped: st.Stopped,
		Resumed: resumed,
	}, err
}
