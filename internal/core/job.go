package mana

import (
	"errors"
	"fmt"
	"time"

	"manasim/internal/app"
	"manasim/internal/ckpt"
	"manasim/internal/ckptimg"
	"manasim/internal/ckptstore"
	"manasim/internal/cluster"
	"manasim/internal/mpi"
	"manasim/internal/simtime"
)

// Stats summarizes a completed job.
type Stats struct {
	// VT is the job's virtual runtime (max over ranks), the quantity
	// the paper's figures plot.
	VT time.Duration
	// PerRankVT is each rank's final virtual time.
	PerRankVT []time.Duration
	// Wall is the real simulation time.
	Wall time.Duration
	// Crossings is the total number of fs-register switches (Section
	// 6.3's context switches). Zero for native runs.
	Crossings uint64
	// WrapperCalls is the total number of wrapped MPI calls.
	WrapperCalls uint64
	// CkptTaken is the number of complete checkpoints written.
	CkptTaken int
	// DrainVT is the virtual time the configured drain strategy spent
	// reconciling in-flight messages, cumulative over checkpoints and
	// maximized over ranks (the slowest rank gates the cut).
	DrainVT time.Duration
	// CtlMsgs is the total number of drain control messages the ranks
	// sent over MANA's internal communicator (counter announcements and
	// Alltoall slots) — the protocol cost the drain experiment reports.
	CtlMsgs uint64
	// CtlBytes is the payload of those messages in bytes: what the ranks
	// handed to CtlSend, plus 8 bytes per Alltoall slot. The message
	// count of the all-pairs announcement is n(n−1) whatever a row
	// holds; this is the count that shows how large the rows are.
	CtlBytes uint64
	// Stopped reports that the job exited at a checkpoint (preemption).
	Stopped bool
	// Checksums holds each rank's application checksum (correctness
	// comparisons between native, MANA, and restarted runs).
	Checksums []uint64
	// CkptVTs and CkptCostVTs record, per completed checkpoint in order,
	// rank 0's completion virtual time and the virtual time the protocol
	// consumed. The service harness derives lost work per crash and its
	// checkpoint-cost probe from them.
	CkptVTs     []time.Duration
	CkptCostVTs []time.Duration
	// StoreRetries / StoreRetryVT count the checkpoint store's transient
	// backend failures retried away and the modeled exponential-backoff
	// time those retries would have consumed (cumulative over the store's
	// lifetime, which may span restarts).
	StoreRetries int
	StoreRetryVT time.Duration
	// RestartGen is the store generation this session restarted from, or
	// -1 for fresh jobs and restarts from raw images. A value below the
	// store's head means restart fallback degraded to an older verified
	// generation (Config.RestartFallback).
	RestartGen int
}

// Session is a MANA job. Its ranks start running when Wait is first
// called, not when the session is built: what the caller sets on the
// session in between — a checkpoint preset on Co above all — is then in
// place before any rank reaches its first safe point, however long the
// host scheduler holds the caller up. A rank that passes a boundary
// before the preset lands never checkpoints there, and the ranks that do
// wait for it in the drain forever.
type Session struct {
	Co *Coordinator

	// body is one rank's activity; nil once the first Wait started it.
	body cluster.RankFn

	cfg       Config
	job       *cluster.Job
	runtimes  []*Runtime
	checksums []uint64
	stopped   []bool
	chains    []ckptstore.ChainStats
	// restartGen is the store generation the session resumed from (-1
	// for fresh jobs and raw-image restarts); see Stats.RestartGen.
	restartGen int
}

// StartJob launches an n-rank application under MANA. Checkpoints are
// delivered into cfg.Store (or a fresh store opened from
// cfg.StoreOptions when nil).
func StartJob(cfg Config, n int, factory app.Factory) (*Session, error) {
	s, err := newSession(cfg, n, 0, -1)
	if err != nil {
		return nil, err
	}
	s.body = func(rank int, proc mpi.Proc, clock *simtime.Clock) error {
		rt, err := NewRuntime(s.cfg, proc, clock, s.Co)
		if err != nil {
			return err
		}
		s.runtimes[rank] = rt
		s.wireFaults(rt, rank, clock)
		inst := factory()
		return s.runRank(rt, inst, rank, 0, true)
	}
	return s, nil
}

// newSession builds an n-rank session over a fresh job whose lower half
// runs as the given session (transport.Fabric.SetSession), delivering
// checkpoints into the configured store; gen is its Stats.RestartGen.
func newSession(cfg Config, n int, session uint64, gen int) (*Session, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	st, err := cfg.ckptStoreFor(n)
	if err != nil {
		return nil, err
	}
	s := &Session{
		cfg:        cfg,
		Co:         ckpt.NewStoreCoordinator(n, st, cfg.SkewBound),
		job:        cluster.New(n, session, cfg.Factory, cfg.Host.Net),
		runtimes:   make([]*Runtime, n),
		checksums:  make([]uint64, n),
		stopped:    make([]bool, n),
		restartGen: gen,
	}
	armFaults(cfg, s.job)
	return s, nil
}

// armFaults propagates the job's label to the cluster layer and the
// fault injector.
func armFaults(cfg Config, job *cluster.Job) {
	job.SetLabel(cfg.JobLabel)
	if cfg.Faults != nil && cfg.JobLabel != "" {
		cfg.Faults.SetJobLabel(cfg.JobLabel)
	}
}

// wireFaults connects a freshly built runtime and its rank clock to the
// job's fault plumbing: the per-rank drain-phase board always (it feeds
// the event kernel's deadlock diagnostic), and the injector's straggler
// windows when one is configured.
func (s *Session) wireFaults(rt *Runtime, rank int, clock *simtime.Clock) {
	rt.phaseFn = func(p string) { s.job.SetRankPhase(rank, p) }
	if f := s.cfg.Faults; f != nil {
		f.ApplyStragglers(rank, clock)
	}
}

// RestartJob resumes a job from a complete set of checkpoint images.
// The configuration's implementation may differ from the one the images
// were taken under if the images carry uniform handles (Section 9).
// Each image is decoded into one reused state buffer and restored into
// its rank's application instance before the session is built.
func RestartJob(cfg Config, images [][]byte, factory app.Factory) (*Session, error) {
	ranks := make([]restoredRank, 0, len(images))
	var state []byte
	for _, data := range images {
		img, err := ckptimg.DecodeInto(data, state)
		if err != nil {
			return nil, fmt.Errorf("mana: restart: %w", err)
		}
		if cap(img.AppState) > cap(state) {
			state = img.AppState
		}
		rr, err := restoreRank(img, factory)
		if err != nil {
			return nil, fmt.Errorf("mana: restart: %w", err)
		}
		ranks = append(ranks, rr)
	}
	return restartJobImages(cfg, ranks, nil, -1)
}

// restoredRank is one rank of a restart whose application state has
// been restored: inst holds it, the image no longer does, and stateLen
// keeps its length for the restart read cost.
type restoredRank struct {
	img      *ckptimg.Image
	inst     app.Instance
	stateLen int64
}

// restoreRank restores img's application state into a fresh instance
// and drops the state from the image. img.AppState may be a buffer the
// caller reuses for the next rank: Restore copies what it keeps (the
// app.Instance contract).
func restoreRank(img *ckptimg.Image, factory app.Factory) (restoredRank, error) {
	inst := factory()
	if err := inst.Restore(img.AppState); err != nil {
		return restoredRank{}, fmt.Errorf("rank %d: restoring application state: %w", img.Rank, err)
	}
	rr := restoredRank{img: img, inst: inst, stateLen: int64(len(img.AppState))}
	img.AppState = nil
	return rr, nil
}

// restartJobImages builds a restarted session over ranks whose
// application state RestartJob or restartFromGeneration has already
// restored. Store restarts pass the per-rank chain statistics, which
// switch the filesystem model to the delta-aware restart cost, and
// their generation gen; raw-image restarts pass nil and -1. The lower
// half restarts as session 1+gen, or 1+step for raw images: a function
// of the source that differs from the session that wrote it.
func restartJobImages(cfg Config, ranks []restoredRank, chains []ckptstore.ChainStats, gen int) (*Session, error) {
	imgs := make([]*ckptimg.Image, len(ranks))
	for i, rr := range ranks {
		imgs[i] = rr.img
	}
	if err := ckptimg.ValidateSet(imgs); err != nil {
		return nil, fmt.Errorf("mana: restart: %w", err)
	}
	session := uint64(1 + imgs[0].Step)
	if gen >= 0 {
		session = uint64(1 + gen)
	}
	byRank := make([]restoredRank, len(ranks))
	for _, rr := range ranks {
		byRank[rr.img.Rank] = rr
	}
	s, err := newSession(cfg, len(ranks), session, gen)
	if err != nil {
		return nil, err
	}
	s.chains = chains
	s.body = func(rank int, proc mpi.Proc, clock *simtime.Clock) error {
		rr := byRank[rank]
		byRank[rank] = restoredRank{} // the job holds byRank until every rank returns
		var chain *ckptstore.ChainStats
		if chains != nil && rank < len(chains) {
			chain = &chains[rank]
		}
		rt, err := newRuntimeFromImage(s.cfg, proc, clock, s.Co, rr.img, rr.stateLen, chain)
		if err != nil {
			return err
		}
		s.runtimes[rank] = rt
		s.wireFaults(rt, rank, clock)
		return s.runRank(rt, rr.inst, rank, rr.img.Step, false)
	}
	return s, nil
}

// runRank drives one rank's step loop with checkpoint safe points
// between steps.
func (s *Session) runRank(rt *Runtime, inst app.Instance, rank, startStep int, fresh bool) error {
	env := &app.Env{P: rt, Clock: rt.clock, Rank: rank, Size: rt.size}
	if fresh {
		if err := inst.Setup(env); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
	}
	rt.SetSnapshotFns(inst.Snapshot, inst.FootprintBytes)
	total := inst.Steps()
	for step := startStep; step < total; step++ {
		if err := rt.AtBoundary(step, total); err != nil {
			if errors.Is(err, ErrStoppedAtCheckpoint) {
				s.stopped[rank] = true
				s.checksums[rank] = inst.Checksum()
				return nil
			}
			return err
		}
		if err := inst.Step(env, step); err != nil {
			return fmt.Errorf("step %d: %w", step, err)
		}
	}
	// Final boundary: a checkpoint scheduled at or beyond the last step
	// lands here.
	if err := rt.AtBoundary(total, total); err != nil {
		if errors.Is(err, ErrStoppedAtCheckpoint) {
			s.stopped[rank] = true
			s.checksums[rank] = inst.Checksum()
			return nil
		}
		return err
	}
	if err := inst.Finalize(env); err != nil {
		return fmt.Errorf("finalize: %w", err)
	}
	s.checksums[rank] = inst.Checksum()
	return nil
}

// Store exposes the checkpoint store the session delivers into.
func (s *Session) Store() *ckptstore.Store { return s.Co.Store() }

// RestartChains reports the per-rank chain-resolution statistics of the
// materialization this session restarted from (nil for fresh jobs and
// restarts from raw images), so callers can inspect what the restart
// actually read without resolving the chains a second time.
func (s *Session) RestartChains() []ckptstore.ChainStats {
	return append([]ckptstore.ChainStats(nil), s.chains...)
}

// Wait runs the job's ranks on the calling goroutine until the job
// completes and returns its statistics.
func (s *Session) Wait() (Stats, error) {
	if s.body != nil {
		s.job.Start(s.body)
		s.body = nil
	}
	res, err := s.job.WaitResult()
	st := Stats{
		VT:        res.VT,
		PerRankVT: res.PerRankVT,
		Wall:      res.Wall,
		CkptTaken: s.Co.Taken(),
		Checksums: s.checksums,
	}
	for _, rt := range s.runtimes {
		if rt == nil {
			continue
		}
		st.Crossings += rt.Boundary().Crossings()
		st.WrapperCalls += rt.WrapperCalls()
		st.CtlMsgs += rt.ctlMsgs
		st.CtlBytes += rt.ctlBytes
		if rt.drainVT > st.DrainVT {
			st.DrainVT = rt.drainVT
		}
	}
	for _, stopped := range s.stopped {
		if stopped {
			st.Stopped = true
		}
	}
	if len(s.runtimes) > 0 && s.runtimes[0] != nil {
		st.CkptVTs = append([]time.Duration(nil), s.runtimes[0].ckptVTs...)
		st.CkptCostVTs = append([]time.Duration(nil), s.runtimes[0].ckptCosts...)
	}
	rs := s.Store().Retry()
	st.StoreRetries = rs.Retries
	st.StoreRetryVT = rs.BackoffVT
	st.RestartGen = s.restartGen
	return st, err
}

// Run starts a MANA job and waits for it; ckptAtStep >= 0 schedules one
// checkpoint at that boundary.
func Run(cfg Config, n int, factory app.Factory, ckptAtStep int) (Stats, [][]byte, error) {
	s, err := StartJob(cfg, n, factory)
	if err != nil {
		return Stats{}, nil, err
	}
	if ckptAtStep >= 0 {
		s.Co.RequestCheckpointAtStep(ckptAtStep)
	}
	st, err := s.Wait()
	if err != nil {
		return st, nil, err
	}
	var images [][]byte
	if st.CkptTaken > 0 {
		images, err = s.Co.Images()
		if err != nil {
			return st, nil, err
		}
	}
	return st, images, nil
}

// Restart resumes from images and waits for completion.
func Restart(cfg Config, images [][]byte, factory app.Factory) (Stats, error) {
	s, err := RestartJob(cfg, images, factory)
	if err != nil {
		return Stats{}, err
	}
	return s.Wait()
}

// RestartJobFromStore resumes a job from the store's most recent
// generation, resolving each rank's base+delta chain straight into its
// restored application. The session keeps delivering into the same
// store, so checkpoints taken after the restart extend the generation
// chain.
//
// Chains resolve through the chunk-pipelined path
// (Store.RestoreStream): only newest-wins winning chunks are
// decompressed, and the restart read cost charges the consumed base
// bytes plus the winning chunks' compressed bytes as one pipelined
// read, not the materialized full image that never existed on storage.
//
// With Config.RestartFallback set, a head that is quarantined, fails
// to resolve or holds application state the application refuses does
// not fail the restart outright: the walk degrades
// newest-first to the youngest generation that still verifies, skipping
// quarantined ones, stopping only when the chain reaches pruned
// territory or runs out of generations. The degrade is never silent —
// Stats.RestartGen names the generation used, and the store is forced
// to a full base on the next checkpoint so nothing deltas against the
// damaged head.
func RestartJobFromStore(cfg Config, st *ckptstore.Store, factory app.Factory) (*Session, error) {
	if st == nil {
		return nil, fmt.Errorf("mana: restart from store: no store")
	}
	cfg.Store = st
	// Restart reads are charged against the tier the store's backend
	// models (the burst-buffer front tier, the object store's round
	// trips); backends without a model keep the configured filesystem.
	if m := st.CostModel(); m.Name != "" {
		cfg.FS = m
	}
	gens := st.Generations()
	if len(gens) == 0 {
		return nil, fmt.Errorf("mana: restart: store has no generations")
	}
	head := gens[len(gens)-1].Seq
	var firstErr error
	for i := len(gens) - 1; i >= 0; i-- {
		seq := gens[i].Seq
		if cfg.RestartFallback && st.IsQuarantined(seq) {
			if firstErr == nil {
				firstErr = fmt.Errorf("mana: restart: generation %d: %w", seq, ckptstore.ErrQuarantined)
			}
			continue
		}
		s, err := restartFromGeneration(cfg, st, seq, factory)
		if err == nil {
			if seq != head {
				st.ForceBase()
			}
			return s, nil
		}
		if firstErr == nil {
			firstErr = err
		}
		if !cfg.RestartFallback {
			return nil, firstErr
		}
		if errors.Is(err, ckptstore.ErrPruned) {
			// Retention already deleted everything older; walking
			// further cannot find a restartable generation.
			return nil, fmt.Errorf("mana: restart: generation %d already pruned, nothing older restartable: %w", seq, firstErr)
		}
	}
	return nil, fmt.Errorf("mana: restart: no generation restartable: %w", firstErr)
}

// restartFromGeneration resolves one specific generation straight into
// the ranks' application instances (Store.RestoreStream, one reused
// state buffer) and builds the session over them. A
// snapshot the application refuses fails here, before launch, as a
// chain error does.
func restartFromGeneration(cfg Config, st *ckptstore.Store, seq int, factory app.Factory) (*Session, error) {
	var ranks []restoredRank
	chains, err := st.RestoreStream(seq, func(img *ckptimg.Image) error {
		rr, err := restoreRank(img, factory)
		if err != nil {
			return err
		}
		ranks = append(ranks, rr)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("mana: restart: %w", err)
	}
	return restartJobImages(cfg, ranks, chains, seq)
}

// RestartFromStore resumes from the store's head generation and waits
// for completion.
func RestartFromStore(cfg Config, st *ckptstore.Store, factory app.Factory) (Stats, error) {
	s, err := RestartJobFromStore(cfg, st, factory)
	if err != nil {
		return Stats{}, err
	}
	return s.Wait()
}

// RunNative executes the application directly against the lower half —
// no wrappers, no virtual ids, no checkpointing. This is the "native"
// baseline of Figures 2-4.
func RunNative(cfg Config, n int, factory app.Factory) (Stats, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return Stats{}, err
	}
	checksums := make([]uint64, n)
	res, err := cluster.Run(n, cfg.Factory, cfg.Host.Net, func(rank int, proc mpi.Proc, clock *simtime.Clock) error {
		inst := factory()
		env := &app.Env{P: proc, Clock: clock, Rank: rank, Size: n}
		if err := inst.Setup(env); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		total := inst.Steps()
		for step := 0; step < total; step++ {
			if err := inst.Step(env, step); err != nil {
				return fmt.Errorf("step %d: %w", step, err)
			}
		}
		if err := inst.Finalize(env); err != nil {
			return fmt.Errorf("finalize: %w", err)
		}
		checksums[rank] = inst.Checksum()
		return nil
	})
	return Stats{
		VT:        res.VT,
		PerRankVT: res.PerRankVT,
		Wall:      res.Wall,
		Checksums: checksums,
	}, err
}
