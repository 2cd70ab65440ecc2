// Package mana is the checkpoint-restart system itself: the Go
// reproduction of MANA with the paper's implementation-oblivious
// virtual-id architecture.
//
// A Runtime is one rank's MANA instance. It implements mpi.Proc, so an
// application cannot tell whether it runs natively or under MANA: every
// call is a wrapper (Figure 1's stub functions) that
//
//  1. crosses the split-process boundary (charging the fs-register
//     switch cost and counting a context switch),
//  2. translates virtual handles to physical handles through the
//     virtual-id store,
//  3. invokes the lower-half MPI library,
//  4. translates results back and records creation recipes for restart.
//
// Checkpointing follows MANA's coordinated protocol: stop ranks at safe
// points, complete pending receives, exchange per-peer send counters
// over the lower half (MPI_Alltoall, Section 5 category 3), drain
// in-flight messages with MPI_Iprobe + MPI_Recv (category 1), and write
// per-rank images containing the upper-half state. Restart launches a
// fresh lower half — possibly a different MPI implementation — and
// re-creates every MPI object from the virtual-id descriptors, rebinding
// virtual ids to the new physical handles (Section 4.2).
package mana

import (
	"fmt"
	"time"

	"manasim/internal/ckpt"
	"manasim/internal/ckptstore"
	"manasim/internal/cluster"
	"manasim/internal/faults"
	"manasim/internal/fsim"
	"manasim/internal/simtime"
	"manasim/internal/vid"
	"manasim/internal/vidlegacy"
)

// Design selects the virtual-id subsystem.
type Design string

// Supported designs.
const (
	// DesignVirtID is the paper's new single-table design.
	DesignVirtID Design = "virtid"
	// DesignLegacy is the pre-paper per-kind string-keyed map design
	// (MPICH family only).
	DesignLegacy Design = "legacy"
)

// Config parameterizes a MANA job.
type Config struct {
	// ImplName names the lower-half MPI implementation.
	ImplName string
	// Factory instantiates the lower half per rank.
	Factory cluster.Factory
	// Design selects the virtual-id subsystem (default DesignVirtID).
	Design Design
	// UniformHandles embeds virtual ids in 64-bit MANA handles
	// regardless of the target header, enabling restart under a
	// different MPI implementation (Section 9 future work).
	UniformHandles bool
	// Host supplies the crossing cost and network model.
	Host simtime.HostProfile
	// DtypeStrategy selects datatype reconstruction: replay of recorded
	// constructor calls, or decode via MPI_Type_get_envelope/contents at
	// checkpoint time (Section 1.2 novelty 4; Section 5 category 2).
	DtypeStrategy vid.Strategy
	// FS is the checkpoint filesystem profile (default NFSv3). When the
	// checkpoint store's backend models a storage tier of its own (the
	// "obj" and "tier" backends report a ckptstore CostModel), that
	// profile governs checkpoint writes and store restarts instead.
	FS fsim.FS
	// ExitAtCheckpoint stops the job right after a checkpoint completes
	// (preemption, the urgent-HPC scenario of the introduction).
	ExitAtCheckpoint bool
	// JobLabel names the job in multi-job diagnostics: deadlock reports
	// and injected CrashErrors carry it (internal/sched sets it to the
	// scheduler job id).
	JobLabel string
	// SkewBound is the maximum step skew tolerated between ranks when
	// coordinating an asynchronous checkpoint request (default 8).
	SkewBound int
	// DrainStrategy names the in-flight message drain algorithm used at
	// checkpoint time (default ckpt.DefaultDrain, the paper's two-phase
	// counter exchange; "toposort" selects the collective-free
	// topological-sort drain of arXiv:2408.02218). Strategies are
	// registered by internal/ckpt/drain.
	DrainStrategy string
	// Store is the generation-chained checkpoint store the job delivers
	// into and restarts from; passing the same store across a
	// run/restart chain makes later generations delta against earlier
	// ones. Nil opens a fresh store from StoreOptions.
	Store *ckptstore.Store
	// StoreOptions configures the store a job opens when Store is nil:
	// backend, delta images, content-addressed dedup, compression codec
	// and tier. A configured fault injector's backend
	// wrapper replaces WrapBackend. Ignored when Store is set.
	StoreOptions ckptstore.Options
	// FixedXlatCost is deprecated: a positive value replaces the
	// translation-cost table (wrappers.go) with this flat per-call
	// constant at every charged wrapper site. It predates the table, when
	// translation time was read off the host clock and a fixed cost was
	// the only reproducible configuration; virtual time is now a pure
	// function of (config, seed) without it. It survives only because
	// bench/scenario.go:baseConfig pins it and a change to the benchmark
	// is its own PR (ROADMAP item 10: drop it from baseConfig, then
	// delete the field). Nothing else may set it.
	FixedXlatCost time.Duration
	// Kernel is deprecated and ignored: every job runs on the event
	// kernel. It survives only because bench/scenario.go:baseConfig sets
	// it (ROADMAP item 10: drop it from baseConfig, then delete the
	// field). Nothing else may set it.
	Kernel cluster.KernelKind
	// Faults is the seeded fault injector driving this job (nil: no
	// faults). The runtime checks its crash schedule at every wrapper
	// call and step boundary and applies its straggler windows to the
	// rank clocks. One injector may be shared by a whole service run
	// spanning restarts — its schedule lives in cumulative service
	// virtual time.
	Faults *faults.Injector
	// CkptInterval, when positive, checkpoints periodically: rank 0
	// requests an asynchronous checkpoint whenever that much virtual
	// time has passed since the last completed one; the agreed boundary
	// lies SkewBound steps past the request. With ExitAtCheckpoint it is
	// also the cluster scheduler's preemption cut (internal/sched): a
	// segment starts on a fresh clock, so the first request lands at the
	// first boundary at or after that much segment virtual time, and the
	// job parks right after the commit.
	CkptInterval time.Duration
	// StreamRestart is deprecated and ignored: every store restart
	// resolves chains with newest-wins chunk ownership
	// (ckptstore.RestoreStream). It survives only because
	// bench/scenario.go:baseConfig sets it (ROADMAP item 10: drop it from
	// baseConfig, then delete the field). Nothing else may set it.
	StreamRestart bool
	// RestartFallback lets RestartJobFromStore degrade to an older
	// generation when the newest one is quarantined or fails to
	// materialize (silent corruption, missing blobs): the walk tries
	// each generation newest-first, skipping quarantined ones, stopping
	// only at pruned territory — retention deleted everything older — or
	// when every generation is exhausted. The restart is never silent
	// about it: Stats.RestartGen names the generation actually used, and
	// the store is forced to a full base so no new delta chains onto the
	// damaged head. Off by default: a damaged head fails the restart
	// with a typed error.
	RestartFallback bool
}

// withDefaults fills unset fields.
func (c Config) withDefaults() (Config, error) {
	if c.Factory == nil {
		return c, fmt.Errorf("mana: config needs an MPI implementation factory")
	}
	if c.Design == "" {
		c.Design = DesignVirtID
	}
	if c.FS.Name == "" {
		c.FS = fsim.NFSv3()
	}
	if c.Host.Name == "" {
		c.Host = simtime.Discovery()
	}
	if c.SkewBound <= 0 {
		c.SkewBound = 8
	}
	if c.DrainStrategy == "" {
		c.DrainStrategy = ckpt.DefaultDrain
	}
	return c, nil
}

// xlatCosts resolves the translation-cost table of wrappers.go for the
// config's vid design: the cost of a charged wrapper call by its lookup
// count. A positive FixedXlatCost overrides every entry.
func (c Config) xlatCosts() xlatTable {
	var t xlatTable
	for n := range t {
		t[n] = wrapperBase + time.Duration(n)*perLookup(c.Design)
		if c.FixedXlatCost > 0 {
			t[n] = c.FixedXlatCost
		}
	}
	return t
}

// ckptStoreFor resolves the checkpoint store an n-rank job delivers
// into: the configured one (validated against the job geometry) or a
// fresh one opened from StoreOptions, its backend wrapped by the fault
// injector when one is configured.
func (c Config) ckptStoreFor(n int) (*ckptstore.Store, error) {
	if c.Store != nil {
		if c.Store.Ranks() != n {
			return nil, fmt.Errorf("mana: checkpoint store is for %d ranks, job has %d", c.Store.Ranks(), n)
		}
		return c.Store, nil
	}
	opts := c.StoreOptions
	if c.Faults != nil {
		opts.WrapBackend = c.Faults.WrapBackend()
	}
	return ckptstore.Open(n, opts)
}

// newStore builds the configured vid store for a lower half with the
// given handle width.
func (c Config) newStore(handleBits int) (vid.Store, error) {
	switch c.Design {
	case DesignVirtID:
		return vid.NewStore(handleBits, c.UniformHandles), nil
	case DesignLegacy:
		s := vidlegacy.New()
		if err := s.CompatibleWith(handleBits); err != nil {
			return nil, err
		}
		return s, nil
	default:
		return nil, fmt.Errorf("mana: unknown vid design %q", c.Design)
	}
}

// restoreStore rebuilds a store from an image snapshot.
func restoreStore(s vid.StoreSnapshot, handleBits int, uniform bool) (vid.Store, error) {
	switch Design(s.Design) {
	case DesignVirtID:
		return vid.RestoreStore(s, handleBits, uniform)
	case DesignLegacy:
		st, err := vidlegacy.Restore(s)
		if err != nil {
			return nil, err
		}
		if err := st.CompatibleWith(handleBits); err != nil {
			return nil, err
		}
		return st, nil
	default:
		return nil, fmt.Errorf("mana: image has unknown vid design %q", s.Design)
	}
}
