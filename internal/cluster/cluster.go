// Package cluster launches simulated MPI jobs: one lower-half library
// instance per rank over one shared transport fabric, executed by the
// event kernel (internal/kernel). It is the moral equivalent of
// srun/mpirun in this repository.
//
// The kernel runs the rank bodies one at a time through a virtual-time
// event queue, so idle ranks cost nothing, jobs scale to thousands of
// ranks, every run of a configuration is the same run, and a deadlock
// (every rank blocked with no message in flight) fails the job with a
// diagnostic naming each rank's drain phase instead of hanging.
package cluster

import (
	"fmt"
	"time"

	"manasim/internal/kernel"
	"manasim/internal/mpi"
	"manasim/internal/simtime"
	"manasim/internal/transport"
)

// KernelKind is deprecated: the event kernel is the only kernel, and
// the type survives only as the type of KernelEvent and of
// core.Config.Kernel, which bench/scenario.go still names (ROADMAP
// item 10: drop them from baseConfig, then delete them). Nothing else
// may use it.
type KernelKind int

// KernelEvent is deprecated and has no effect; see KernelKind.
const KernelEvent KernelKind = 1

// Factory instantiates one rank's lower-half MPI library. The impls
// package registers the four simulated implementations as Factories.
type Factory func(fab *transport.Fabric, rank int, clock *simtime.Clock, net simtime.NetModel) mpi.Proc

// RankFn is the body executed by each rank of a job. proc is the rank's
// own lower-half library; clock is its virtual clock.
type RankFn func(rank int, proc mpi.Proc, clock *simtime.Clock) error

// Result summarizes a completed job.
type Result struct {
	// VT is the job's virtual runtime: the maximum rank clock at exit
	// (how long the job would have taken on the modeled hardware).
	VT time.Duration
	// PerRankVT holds each rank's final virtual time.
	PerRankVT []time.Duration
	// Wall is the real time the simulation took.
	Wall time.Duration
}

// RankError wraps an error with the rank that produced it.
type RankError struct {
	Rank int
	Err  error
}

// Error implements the error interface.
func (e *RankError) Error() string { return fmt.Sprintf("rank %d: %v", e.Rank, e.Err) }

// Unwrap exposes the underlying error.
func (e *RankError) Unwrap() error { return e.Err }

// Job is a configured but independently steerable job: callers that need
// access to the fabric or per-rank procs (MANA's restart path does) use
// New/Start/WaitResult instead of the one-shot Run.
type Job struct {
	Fabric *transport.Fabric
	Clocks []*simtime.Clock
	Procs  []mpi.Proc

	n       int
	kern    *kernel.Kernel
	started time.Time
	// err is the job's first rank failure, by rank firstRank: the root
	// cause, since every failure closes the fabric and so fails the
	// peers blocked in communication after it.
	err       error
	firstRank int

	// label names the job once multiple jobs share a process
	// (internal/sched); it feeds the deadlock diagnostics. Set via
	// SetLabel before Start.
	label string

	// phases is the per-rank drain-protocol phase board the deadlock
	// diagnostic reads once every rank has returned.
	phases []string
}

// SetLabel names the job. With multiple scheduler-resident jobs,
// failure and deadlock diagnostics must say which job they refer to;
// an anonymous "rank 3" is ambiguous. Call before Start.
func (j *Job) SetLabel(label string) { j.label = label }

// SetRankPhase records rank's current drain-protocol phase ("" clears
// it). The checkpoint layer posts phases so that a deadlock diagnostic
// can say where each parked rank was, not just that it was parked.
func (j *Job) SetRankPhase(rank int, phase string) {
	if rank < 0 || rank >= j.n {
		return
	}
	j.phases[rank] = phase
}

// rankPhases renders the non-empty phase entries for the deadlock
// diagnostic, e.g. "rank 0: toposort:drain rows=3/4 outstanding=2".
func (j *Job) rankPhases() string {
	out := ""
	for r, p := range j.phases {
		if p == "" || p == "done" {
			continue
		}
		if out != "" {
			out += "; "
		}
		out += fmt.Sprintf("rank %d: %s", r, p)
	}
	if out == "" {
		return "no rank reported a drain phase"
	}
	return out
}

// New builds a job with n ranks over a fresh fabric of the given
// lower-half session (transport.Fabric.SetSession: 0 for a fresh
// launch), instantiating the lower half with the given implementation
// factory. The kernel's scheduler is attached to the fabric before any
// lower half is instantiated, so every blocking point of the job —
// including context agreement at startup — runs event-driven.
func New(n int, session uint64, factory Factory, net simtime.NetModel) *Job {
	fab := transport.NewFabric(n)
	fab.SetSession(session)
	j := &Job{
		Fabric: fab,
		Clocks: make([]*simtime.Clock, n),
		Procs:  make([]mpi.Proc, n),
		n:      n,
		kern:   kernel.New(n),
		phases: make([]string, n),
	}
	fab.SetScheduler(j.kern, net.TransferCost)
	j.kern.OnStall(func() {
		// Deadlock: every rank parked in a receive with nothing in
		// flight. Tear the fabric down so the parked ranks fail with
		// ErrClosed instead of hanging the simulation.
		fab.Close()
	})
	for r := 0; r < n; r++ {
		j.Clocks[r] = simtime.NewClock()
		j.Procs[r] = factory(fab, r, j.Clocks[r], net)
		if ab, ok := j.Procs[r].(interface{ SetAbort(func(int)) }); ok {
			ab.SetAbort(func(code int) {
				// An abort tears down the interconnect: every rank
				// blocked in communication fails fast, like a real
				// MPI_Abort killing the job step.
				fab.Close()
			})
		}
	}
	return j
}

// NewKernel is deprecated: it is New, and kind is ignored. It survives
// only because bench/scenario.go calls it (ROADMAP item 10: drop it from
// baseConfig, then delete it). Nothing else may call it.
func NewKernel(n int, factory Factory, net simtime.NetModel, _ KernelKind) *Job {
	return New(n, 0, factory, net)
}

// Start registers fn as every rank's body. The ranks run in
// WaitResult, on its caller's goroutine.
func (j *Job) Start(fn RankFn) {
	j.started = time.Now()
	for r := 0; r < j.n; r++ {
		rank := r
		j.kern.Go(rank, func() {
			defer func() {
				if p := recover(); p != nil {
					j.fail(rank, fmt.Errorf("panic: %v", p))
				}
			}()
			if err := fn(rank, j.Procs[rank], j.Clocks[rank]); err != nil {
				j.fail(rank, err)
			}
		})
	}
}

// fail records rank's error if it is the job's first and aborts the
// job step, so peers blocked in communication do not hang.
func (j *Job) fail(rank int, err error) {
	if j.err == nil {
		j.err, j.firstRank = err, rank
	}
	j.Fabric.Close()
}

// WaitResult runs the job until every rank returns and reports the
// outcome. The error is the job's first failure, wrapped with its rank:
// the ranks that fail after it fail in the teardown it started.
func (j *Job) WaitResult() (Result, error) {
	j.kern.Run()
	res := Result{
		PerRankVT: make([]time.Duration, j.n),
		Wall:      time.Since(j.started),
	}
	for r := 0; r < j.n; r++ {
		res.PerRankVT[r] = j.Clocks[r].Now()
		if res.PerRankVT[r] > res.VT {
			res.VT = res.PerRankVT[r]
		}
	}
	var err error
	if inner := j.err; inner != nil {
		if j.kern.Stalled() {
			owner := ""
			if j.label != "" {
				owner = fmt.Sprintf("job %q: ", j.label)
			}
			inner = fmt.Errorf("%sevent-kernel deadlock (every rank blocked with no message in flight; %s): %w", owner, j.rankPhases(), inner)
		}
		err = &RankError{Rank: j.firstRank, Err: inner}
	}
	j.Fabric.Close()
	return res, err
}

// Run executes fn on n ranks and waits.
func Run(n int, factory Factory, net simtime.NetModel, fn RankFn) (Result, error) {
	j := New(n, 0, factory, net)
	j.Start(fn)
	return j.WaitResult()
}
