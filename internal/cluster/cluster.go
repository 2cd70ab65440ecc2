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
	"errors"
	"fmt"
	"sync"
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
	errs    []error
	started time.Time

	// label names the job and nodeOf pins each rank to a scheduler
	// node once multiple jobs share a process (internal/sched); both
	// feed the deadlock diagnostics. Set via SetIdentity before Start.
	label  string
	nodeOf []int

	// phaseMu guards phases, the per-rank drain-protocol phase board the
	// stall diagnostic reads while rank goroutines are still writing it.
	phaseMu sync.Mutex
	phases  []string
}

// SetIdentity names the job and records its rank-to-node placement
// (nodeOf[rank] = scheduler node, nil when the job owns the process).
// With multiple scheduler-resident jobs, failure and deadlock
// diagnostics must say which job and node they refer to; an anonymous
// "rank 3" is ambiguous. Call before Start.
func (j *Job) SetIdentity(label string, nodeOf []int) {
	j.label = label
	if len(nodeOf) == j.n {
		j.nodeOf = nodeOf
	}
}

// Label returns the job's scheduler-assigned name ("" when unset).
func (j *Job) Label() string { return j.label }

// NodeOf returns the scheduler node hosting rank, or -1 when no
// placement was recorded.
func (j *Job) NodeOf(rank int) int {
	if j.nodeOf == nil || rank < 0 || rank >= j.n {
		return -1
	}
	return j.nodeOf[rank]
}

// SetRankPhase records rank's current drain-protocol phase ("" clears
// it). The checkpoint layer posts phases so that a deadlock diagnostic
// can say where each parked rank was, not just that it was parked.
func (j *Job) SetRankPhase(rank int, phase string) {
	if rank < 0 || rank >= j.n {
		return
	}
	j.phaseMu.Lock()
	j.phases[rank] = phase
	j.phaseMu.Unlock()
}

// rankPhases renders the non-empty phase entries for the deadlock
// diagnostic, e.g. "rank 0: reliable:absorb rows=3/4 acks=2/4".
func (j *Job) rankPhases() string {
	j.phaseMu.Lock()
	defer j.phaseMu.Unlock()
	out := ""
	for r, p := range j.phases {
		if p == "" || p == "done" {
			continue
		}
		if out != "" {
			out += "; "
		}
		if j.nodeOf != nil {
			out += fmt.Sprintf("rank %d (node %d): %s", r, j.nodeOf[r], p)
		} else {
			out += fmt.Sprintf("rank %d: %s", r, p)
		}
	}
	if out == "" {
		return "no rank reported a drain phase"
	}
	return out
}

// crashError matches the fault injector's typed node-crash failure
// without importing it: the contract is the CrashVT method.
type crashError interface {
	error
	CrashVT() time.Duration
}

// New builds a job with n ranks over a fresh fabric, instantiating the
// lower half with the given implementation factory. The kernel's
// scheduler is attached to the fabric before any lower half is
// instantiated, so every blocking point of the job — including context
// agreement at startup — runs event-driven.
func New(n int, factory Factory, net simtime.NetModel) *Job {
	fab := transport.NewFabric(n)
	j := &Job{
		Fabric: fab,
		Clocks: make([]*simtime.Clock, n),
		Procs:  make([]mpi.Proc, n),
		n:      n,
		kern:   kernel.New(n),
		errs:   make([]error, n),
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
	return New(n, factory, net)
}

// Start launches all rank activities.
func (j *Job) Start(fn RankFn) {
	j.started = time.Now()
	for r := 0; r < j.n; r++ {
		rank := r
		j.kern.Go(rank, func() {
			defer func() {
				if p := recover(); p != nil {
					j.errs[rank] = fmt.Errorf("panic: %v", p)
					j.Fabric.Close()
				}
			}()
			j.errs[rank] = fn(rank, j.Procs[rank], j.Clocks[rank])
			if j.errs[rank] != nil {
				// A failed rank aborts the job step so peers blocked
				// in communication do not hang.
				j.Fabric.Close()
			}
		})
	}
	j.kern.Start()
}

// WaitResult blocks until every rank returns and reports the outcome.
// The error is the lowest-rank failure, wrapped with its rank.
func (j *Job) WaitResult() (Result, error) {
	j.kern.Wait()
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
	for r := 0; r < j.n; r++ {
		if j.errs[r] != nil {
			inner := j.errs[r]
			if j.kern.Stalled() {
				owner := ""
				if j.label != "" {
					owner = fmt.Sprintf("job %q: ", j.label)
				}
				inner = fmt.Errorf("%sevent-kernel deadlock (every rank blocked with no message in flight; %s): %w", owner, j.rankPhases(), inner)
			}
			err = &RankError{Rank: r, Err: inner}
			break
		}
	}
	// An injected node crash tears down the fabric, so peers fail with
	// transport-closed errors; the crash itself is the root cause and is
	// preferred over a lower-ranked peer's secondary failure.
	if err != nil {
		var ce crashError
		if !errors.As(err, &ce) {
			for r := 0; r < j.n; r++ {
				if j.errs[r] != nil && errors.As(j.errs[r], &ce) {
					err = &RankError{Rank: r, Err: j.errs[r]}
					break
				}
			}
		}
	}
	j.Fabric.Close()
	return res, err
}

// Run executes fn on n ranks and waits.
func Run(n int, factory Factory, net simtime.NetModel, fn RankFn) (Result, error) {
	j := New(n, factory, net)
	j.Start(fn)
	return j.WaitResult()
}
