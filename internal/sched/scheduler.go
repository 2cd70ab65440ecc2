package sched

import (
	"fmt"
	"sort"
	"time"

	"manasim/internal/app"
	"manasim/internal/apps"
	"manasim/internal/ckptstore"
	mana "manasim/internal/core"
	"manasim/internal/fsim"
	"manasim/internal/impls"
	"manasim/internal/kernel"
)

// Options parameterizes a scheduler run.
type Options struct {
	// Logf, when set, receives a narrative line per scheduling event.
	Logf func(format string, args ...any)
}

// skewBound is the boundary-agreement skew of preemption cuts: sweep
// jobs run tens of steps, and core's default 8 would clamp every cut to
// the final boundary.
const skewBound = 2

// TraceEvent is one scheduler decision, in virtual time. The trace is
// the trajectory the determinism battery compares across kernels and
// the BENCH record stores.
type TraceEvent struct {
	VT    time.Duration
	Kind  string // submit | dispatch | preempt | kill | requeue | done
	Job   string
	Nodes []int
	// FreedAt is the drain-completion time of a preempt record: the
	// victim runs to the first safe boundary past the cut, then
	// checkpoints.
	FreedAt time.Duration
}

// JobResult is one job's final accounting.
type JobResult struct {
	ID string
	// WaitS is the total queued virtual time in seconds, across submit
	// and every requeue.
	WaitS       float64
	Preemptions int
	Resumes     int
	// Checksums is the completing segment's per-rank application
	// checksums — equal to the class baseline's for a correct run no
	// matter how often the job was preempted.
	Checksums []uint64
}

// ClassBaseline is a class's fault-free uninterrupted probe run.
type ClassBaseline struct {
	VTS       float64
	Checksums []uint64
}

// Outcome is one (cluster, workload, policy) scheduler run.
type Outcome struct {
	Cluster string

	Jobs      []JobResult
	Baselines map[string]ClassBaseline
	Trace     []TraceEvent

	// MakespanS is the virtual time the last job completed at.
	MakespanS float64
	// UsefulS and ConsumedS are rank-seconds: baseline work delivered
	// vs node time actually occupied (recomputation, drains, and
	// restart reads included). Goodput is their ratio — 1.0 means not
	// a rank-second was wasted.
	UsefulS   float64
	ConsumedS float64
	Goodput   float64
	// LostS is rank-seconds of killed work (progress since the last
	// committed generation at each kill). CkptOverheadS is rank-seconds
	// of the preemption checkpoints' own protocol time (drain, encode,
	// commit: Stats.CkptCostVTs); restart read costs are inside
	// ConsumedS.
	LostS         float64
	CkptOverheadS float64
	// AvgWaitS averages total queue wait over jobs; UrgentAvgWaitS
	// over jobs in above-baseline priority tiers (the XFEL metric).
	AvgWaitS       float64
	UrgentAvgWaitS float64
	Preemptions    int
	Kills          int
}

// jobState is a job's scheduler lifecycle state.
type jobState int

const (
	statePending  jobState = iota // submitted to the event queue, not yet arrived
	stateQueued                   // waiting for nodes
	stateRunning                  // occupying nodes
	stateDraining                 // preemption checkpoint in flight (nodes still held)
	stateDone
)

func (s jobState) String() string {
	switch s {
	case statePending:
		return "pending"
	case stateQueued:
		return "queued"
	case stateRunning:
		return "running"
	case stateDraining:
		return "draining"
	case stateDone:
		return "done"
	default:
		return fmt.Sprintf("jobState(%d)", int(s))
	}
}

// job is the scheduler's runtime record of one submitted job.
type job struct {
	spec    JobSpec
	prio    int
	allowed []int // partition member nodes
	est     time.Duration
	run     *runner

	state jobState
	nodes []int
	// epoch invalidates stale completion/freed events after a preemption.
	epoch    int
	startVT  time.Duration
	queuedAt time.Duration
	// full is the speculative full run of the current dispatch; its
	// completion event is pending unless a preemption discards it.
	full mana.Stats
	// lateCut marks a preemption attempt whose cut fell past the job's
	// last safe boundary — the job completes as scheduled and is not
	// re-attempted this dispatch.
	lateCut bool

	waitVT       time.Duration
	progress     time.Duration // committed (checkpointed) virtual time
	consumed     time.Duration // node-occupancy VT charged across segments
	lost         time.Duration
	ckptOverhead time.Duration
	preempts     int
	kills        int
	resumes      int
	end          time.Duration
	checksums    []uint64
}

func (j *job) id() string { return j.spec.ID }

// evKind tags scheduler events.
type evKind int

const (
	evSubmit evKind = iota
	evDone
	evFreed
)

type schedEvent struct {
	kind  evKind
	j     *job
	epoch int
}

// Scheduler runs one workload on one cluster under one policy. Build
// with New, drive with Run.
type Scheduler struct {
	spec ClusterSpec
	pol  Policy
	opts Options
	wl   Workload

	jobs  []*job
	owner []string // per-node owning job id ("" = free)
	vtq   kernel.VTQueue[schedEvent]
	now   time.Duration

	probes map[string]ClassBaseline
	trace  []TraceEvent
}

// New validates and assembles a scheduler.
func New(spec ClusterSpec, wl Workload, policyName string, opts Options) (*Scheduler, error) {
	spec, err := spec.withDefaults()
	if err != nil {
		return nil, err
	}
	pol, err := PolicyByName(policyName)
	if err != nil {
		return nil, err
	}
	s := &Scheduler{
		spec:   spec,
		pol:    pol,
		opts:   opts,
		wl:     wl,
		owner:  make([]string, spec.Nodes),
		probes: map[string]ClassBaseline{},
	}
	for _, js := range wl.Jobs {
		p, err := spec.partition(js.Class.Partition)
		if err != nil {
			return nil, fmt.Errorf("job %s: %w", js.ID, err)
		}
		allowed := spec.memberNodes(p)
		need := s.nodesNeeded(js.Class.Ranks)
		if need > len(allowed) {
			return nil, fmt.Errorf("job %s: needs %d nodes, partition %q has %d", js.ID, need, p.Name, len(allowed))
		}
		s.jobs = append(s.jobs, &job{
			spec:    js,
			prio:    p.Priority,
			allowed: allowed,
		})
	}
	return s, nil
}

// nodesNeeded is the whole-node allocation size of a rank count.
func (s *Scheduler) nodesNeeded(ranks int) int {
	return (ranks + s.spec.SlotsPerNode - 1) / s.spec.SlotsPerNode
}

// classInput instantiates a class's application input.
func (s *Scheduler) classInput(c Class) (apps.Spec, apps.Input, error) {
	spec, err := apps.ByName(c.App)
	if err != nil {
		return apps.Spec{}, apps.Input{}, err
	}
	in := spec.DefaultInput(apps.SiteDiscovery)
	in.Ranks = c.Ranks
	if c.Steps > 0 {
		in.Steps = c.Steps
		in.SimSteps = c.Steps
	}
	// Thin the progress-poll stream: the calibrated densities model
	// single-job context-switch overhead; a sweep runs dozens of
	// segments and only needs the call pattern, not its volume.
	in.PollsPerStep = 6
	if c.Polls > 0 {
		in.PollsPerStep = c.Polls
	}
	if c.StepVT > 0 {
		in.StepCompute = c.StepVT
	}
	in.Seed = appSeed(s.wl.Seed, c)
	return spec, in, nil
}

// runner runs one job's segments. Its config's Store is the job's own
// checkpoint store, whose committed generations are all of the job that
// outlives a segment: a kill (discard the segment, commit nothing) and
// a crash (complete generations only) both leave it restartable.
type runner struct {
	cfg     mana.Config
	factory app.Factory
}

// newRunner builds the runner of a job of class c over a fresh store;
// label names the job in deadlock and crash diagnostics.
func (s *Scheduler) newRunner(c Class, label string) (*runner, error) {
	spec, in, err := s.classInput(c)
	if err != nil {
		return nil, err
	}
	factory, err := impls.Get(c.Impl)
	if err != nil {
		return nil, err
	}
	st, err := ckptstore.Open(in.Ranks, ckptstore.Options{})
	if err != nil {
		return nil, err
	}
	// Preemption drains commit to node-local NVMe: NFS startup
	// latencies would dwarf the minute-scale jobs the sweeps run.
	cfg := mana.Config{ImplName: c.Impl, Factory: factory, FS: fsim.NVMe(),
		SkewBound: skewBound, JobLabel: label, Store: st}
	return &runner{cfg: cfg, factory: spec.New(in)}, nil
}

// segment runs one segment of the job, resumed from the store's newest
// generation (Stats.RestartGen) or launched fresh while it holds none,
// to completion. A positive stopAt is the preemption cut: on the
// segment's fresh clock the periodic trigger first fires at stopAt, and
// the job parks (Stats.Stopped) once that checkpoint commits.
func (r *runner) segment(stopAt time.Duration) (mana.Stats, error) {
	cfg := r.cfg
	cfg.ExitAtCheckpoint, cfg.CkptInterval = stopAt > 0, stopAt
	var sess *mana.Session
	var err error
	if len(cfg.Store.Generations()) > 0 {
		sess, err = mana.RestartJobFromStore(cfg, cfg.Store, r.factory)
	} else {
		sess, err = mana.StartJob(cfg, cfg.Store.Ranks(), r.factory)
	}
	if err != nil {
		return mana.Stats{}, err
	}
	return sess.Wait()
}

// probeClass runs a class's uninterrupted baseline once (fresh runner,
// scratch store) and caches its runtime and checksums: the useful-work
// numerator of goodput, the default runtime estimate, and the
// bit-identity reference for preempted jobs.
func (s *Scheduler) probeClass(c Class) (ClassBaseline, error) {
	if b, ok := s.probes[c.Name]; ok {
		return b, nil
	}
	r, err := s.newRunner(c, "probe-"+c.Name)
	if err != nil {
		return ClassBaseline{}, err
	}
	st, err := r.segment(0)
	if err != nil {
		return ClassBaseline{}, fmt.Errorf("probing class %s: %w", c.Name, err)
	}
	b := ClassBaseline{VTS: st.VT.Seconds(), Checksums: st.Checksums}
	s.probes[c.Name] = b
	return b, nil
}

// logf emits a narrative line when the options ask for one.
func (s *Scheduler) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// traceAdd appends a trajectory record.
func (s *Scheduler) traceAdd(kind string, j *job, nodes []int, freedAt time.Duration) {
	s.trace = append(s.trace, TraceEvent{
		VT:      s.now,
		Kind:    kind,
		Job:     j.id(),
		Nodes:   append([]int(nil), nodes...),
		FreedAt: freedAt,
	})
}

// freeNodes returns the free nodes of the allowed set, ascending.
func (s *Scheduler) freeNodes(allowed []int) []int {
	var out []int
	for _, n := range allowed {
		if s.owner[n] == "" {
			out = append(out, n)
		}
	}
	return out
}

// overlap counts v's nodes usable by a job allowed on the given set.
func overlap(nodes, allowed []int) int {
	cnt := 0
	for _, n := range nodes {
		for _, a := range allowed {
			if n == a {
				cnt++
				break
			}
		}
	}
	return cnt
}

// Run executes the workload to completion and reports the outcome.
func (s *Scheduler) Run() (*Outcome, error) {
	// Probe every class first (deterministic order), resolve estimates,
	// and build the per-job runners.
	classNames := map[string]bool{}
	for _, j := range s.jobs {
		c := j.spec.Class
		base, err := s.probeClass(c)
		if err != nil {
			return nil, err
		}
		j.est = c.EstVT
		if j.est <= 0 {
			j.est = time.Duration(base.VTS * float64(time.Second))
		}
		if j.run == nil {
			r, err := s.newRunner(c, j.id())
			if err != nil {
				return nil, err
			}
			j.run = r
		}
		classNames[c.Name] = true
		s.vtq.Push(j.spec.Submit, schedEvent{kind: evSubmit, j: j, epoch: 0})
	}

	// The event loop: pop the earliest event, apply it, run a policy
	// pass. Same (virtual time, FIFO) discipline as the event kernel's
	// rank queue — the scheduler and the ranks share one clock shape.
	for s.vtq.Len() > 0 {
		it, _ := s.vtq.Pop()
		s.now = it.At
		ev := it.Payload
		switch ev.kind {
		case evSubmit:
			ev.j.state = stateQueued
			ev.j.queuedAt = s.now
			s.traceAdd("submit", ev.j, nil, 0)
			s.logf("%10.3fs submit  %-12s (%d ranks, partition prio %d)", s.now.Seconds(), ev.j.id(), ev.j.spec.Class.Ranks, ev.j.prio)
		case evDone:
			if ev.epoch != ev.j.epoch || ev.j.state != stateRunning {
				continue // superseded by a preemption
			}
			s.finish(ev.j)
		case evFreed:
			if ev.epoch != ev.j.epoch || ev.j.state != stateDraining {
				continue
			}
			s.release(ev.j)
			ev.j.state = stateQueued
			ev.j.queuedAt = s.now
			s.traceAdd("requeue", ev.j, nil, 0)
			s.logf("%10.3fs requeue %-12s (nodes freed)", s.now.Seconds(), ev.j.id())
		}
		if err := s.pass(); err != nil {
			return nil, err
		}
	}

	// Every job must have completed; anything else is a scheduler bug,
	// and the diagnostic names the stuck jobs and their nodes.
	stuck := ""
	for _, j := range s.jobs {
		if j.state != stateDone {
			if stuck != "" {
				stuck += "; "
			}
			stuck += fmt.Sprintf("job %q %s (nodes %v)", j.id(), j.state, j.nodes)
		}
	}
	if stuck != "" {
		return nil, fmt.Errorf("sched: workload drained with unfinished jobs: %s", stuck)
	}
	return s.outcome(), nil
}

// finish retires a completed job.
func (s *Scheduler) finish(j *job) {
	j.state = stateDone
	j.end = s.now
	j.consumed += j.full.VT
	j.checksums = j.full.Checksums
	if j.full.RestartGen >= 0 {
		j.resumes++
	}
	j.lateCut = false
	s.traceAdd("done", j, j.nodes, 0)
	s.logf("%10.3fs done    %-12s", s.now.Seconds(), j.id())
	s.release(j)
}

// release frees a job's nodes.
func (s *Scheduler) release(j *job) {
	for _, n := range j.nodes {
		s.owner[n] = ""
	}
	j.nodes = nil
}

// queued returns the waiting jobs in the policy's scan order.
func (s *Scheduler) queued() []*job {
	var q []*job
	for _, j := range s.jobs {
		if j.state == stateQueued {
			q = append(q, j)
		}
	}
	sort.SliceStable(q, func(a, b int) bool {
		if s.pol.PriorityOrder && q[a].prio != q[b].prio {
			return q[a].prio > q[b].prio
		}
		if q[a].spec.Submit != q[b].spec.Submit {
			return q[a].spec.Submit < q[b].spec.Submit
		}
		return q[a].id() < q[b].id()
	})
	return q
}

// pass is one policy scheduling pass, run after every event.
func (s *Scheduler) pass() error {
	queue := s.queued()
	for i, j := range queue {
		need := s.nodesNeeded(j.spec.Class.Ranks)
		free := s.freeNodes(j.allowed)
		if len(free) >= need {
			if err := s.dispatch(j, free[:need]); err != nil {
				return err
			}
			continue
		}
		// j is blocked.
		if s.pol.Preempt != PreemptNone {
			if err := s.preemptFor(j, need, free); err != nil {
				return err
			}
			return nil // strict priority: nothing below starts this pass
		}
		if !s.pol.Backfill {
			return nil // FIFO: the head blocks the queue
		}
		// EASY backfill: jobs behind the blocked head may start if they
		// fit free nodes now and their estimate completes before the
		// head's earliest possible start (its reservation shadow).
		shadow := s.shadow(j, need)
		for _, k := range queue[i+1:] {
			kneed := s.nodesNeeded(k.spec.Class.Ranks)
			kfree := s.freeNodes(k.allowed)
			if len(kfree) >= kneed && s.now+s.remainingEst(k) <= shadow {
				if err := s.dispatch(k, kfree[:kneed]); err != nil {
					return err
				}
			}
		}
		return nil
	}
	return nil
}

// remainingEst is a job's estimated remaining runtime: its submit-time
// estimate minus committed progress.
func (s *Scheduler) remainingEst(j *job) time.Duration {
	rem := j.est - j.progress
	if rem < time.Millisecond {
		rem = time.Millisecond
	}
	return rem
}

// shadow is the blocked head's earliest estimated start: the virtual
// time enough of its allowed nodes free, assuming running jobs release
// at their estimated ends and draining jobs at their known drain
// completions.
func (s *Scheduler) shadow(j *job, need int) time.Duration {
	free := len(s.freeNodes(j.allowed))
	type release struct {
		at time.Duration
		n  int
	}
	var rels []release
	for _, v := range s.jobs {
		var at time.Duration
		switch v.state {
		case stateRunning:
			// remainingEst already nets out committed progress, which is
			// exactly what was left to run at dispatch time.
			at = v.startVT + s.remainingEst(v)
			if at < s.now {
				at = s.now
			}
		case stateDraining:
			at = v.startVT + v.full.VT // freed event time
		default:
			continue
		}
		n := overlap(v.nodes, j.allowed)
		if n > 0 {
			rels = append(rels, release{at: at, n: n})
		}
	}
	sort.Slice(rels, func(a, b int) bool { return rels[a].at < rels[b].at })
	for _, r := range rels {
		free += r.n
		if free >= need {
			return r.at
		}
	}
	// Never enough even after every release: nothing may backfill.
	return s.now
}

// dispatch grants nodes to a job and speculatively executes its segment
// to completion: the completion event lands at now+VT unless a
// preemption discards it.
func (s *Scheduler) dispatch(j *job, nodes []int) error {
	j.waitVT += s.now - j.queuedAt
	j.state = stateRunning
	j.nodes = append([]int(nil), nodes...)
	for _, n := range j.nodes {
		s.owner[n] = j.id()
	}
	j.startVT = s.now
	j.epoch++
	j.lateCut = false
	res, err := j.run.segment(0)
	if err != nil {
		return fmt.Errorf("sched: job %q segment: %w", j.id(), err)
	}
	j.full = res
	s.vtq.Push(s.now+res.VT, schedEvent{kind: evDone, j: j, epoch: j.epoch})
	s.traceAdd("dispatch", j, nodes, 0)
	s.logf("%10.3fs start   %-12s on nodes %v%s", s.now.Seconds(), j.id(), nodes, map[bool]string{true: " (resumed)", false: ""}[res.RestartGen >= 0])
	return nil
}

// preemptFor evicts lower-priority victims until enough of j's allowed
// nodes are free or draining toward it.
func (s *Scheduler) preemptFor(j *job, need int, free []int) error {
	avail := len(free)
	for _, v := range s.jobs {
		if v.state == stateDraining {
			avail += overlap(v.nodes, j.allowed)
		}
	}
	if avail >= need {
		return nil // enough drains already in flight
	}
	// Victims: running jobs in strictly lower tiers, newest and least
	// privileged first (least committed work to redo or drain).
	var victims []*job
	for _, v := range s.jobs {
		if v.state == stateRunning && v.prio < j.prio && !v.lateCut && overlap(v.nodes, j.allowed) > 0 {
			victims = append(victims, v)
		}
	}
	sort.SliceStable(victims, func(a, b int) bool {
		if victims[a].prio != victims[b].prio {
			return victims[a].prio < victims[b].prio
		}
		if victims[a].startVT != victims[b].startVT {
			return victims[a].startVT > victims[b].startVT
		}
		return victims[a].id() < victims[b].id()
	})
	for _, v := range victims {
		if avail >= need {
			break
		}
		ok, err := s.preempt(v)
		if err != nil {
			return err
		}
		if ok {
			avail += overlap(v.nodes, j.allowed)
		}
	}
	return nil
}

// preempt evicts one running job according to the policy's mode. It
// reports false when the cut fell past the job's last safe boundary
// (the job completes as scheduled instead).
func (s *Scheduler) preempt(v *job) (bool, error) {
	elapsed := s.now - v.startVT
	if elapsed <= 0 {
		elapsed = time.Nanosecond
	}
	if s.pol.Preempt == PreemptKill {
		// Discard the segment: nodes free immediately, progress since
		// the last committed generation is lost.
		v.epoch++
		v.kills++
		v.lost += elapsed
		v.consumed += elapsed
		v.state = stateDraining
		s.vtq.Push(s.now, schedEvent{kind: evFreed, j: v, epoch: v.epoch})
		s.traceAdd("kill", v, v.nodes, s.now)
		s.logf("%10.3fs kill    %-12s (%.3fs since last checkpoint lost)", s.now.Seconds(), v.id(), elapsed.Seconds())
		return true, nil
	}
	// Checkpoint preemption: re-run the segment with the cut. The
	// speculative full run committed nothing, so the re-run replays the
	// identical execution up to the cut, drains, and commits.
	res, err := v.run.segment(elapsed)
	if err != nil {
		return false, fmt.Errorf("sched: preempting job %q: %w", v.id(), err)
	}
	if !res.Stopped {
		// The cut fell past the job's last safe boundary; it will
		// complete as already scheduled.
		v.lateCut = true
		return false, nil
	}
	if res.RestartGen >= 0 {
		v.resumes++
	}
	v.epoch++
	v.preempts++
	v.consumed += res.VT
	// Charge the checkpoint protocol's own time, not the cut-to-stop
	// gap: most of that gap is step compute up to the first boundary
	// past the cut, which the job keeps as progress.
	for _, c := range res.CkptCostVTs {
		v.ckptOverhead += c
	}
	v.progress += elapsed
	v.state = stateDraining
	v.full = res
	freedAt := v.startVT + res.VT
	s.vtq.Push(freedAt, schedEvent{kind: evFreed, j: v, epoch: v.epoch})
	s.traceAdd("preempt", v, v.nodes, freedAt)
	s.logf("%10.3fs preempt %-12s (checkpoint drains until %.3fs)", s.now.Seconds(), v.id(), freedAt.Seconds())
	return true, nil
}

// outcome assembles the run's accounting.
func (s *Scheduler) outcome() *Outcome {
	o := &Outcome{
		Cluster:   s.spec.String(),
		Baselines: s.probes,
		Trace:     s.trace,
	}
	minPrio := 0
	for i, j := range s.jobs {
		if i == 0 || j.prio < minPrio {
			minPrio = j.prio
		}
	}
	urgent := 0
	for _, j := range s.jobs {
		ranks := float64(j.spec.Class.Ranks)
		base := s.probes[j.spec.Class.Name]
		o.Jobs = append(o.Jobs, JobResult{
			ID:          j.id(),
			WaitS:       j.waitVT.Seconds(),
			Preemptions: j.preempts,
			Resumes:     j.resumes,
			Checksums:   j.checksums,
		})
		o.UsefulS += base.VTS * ranks
		o.ConsumedS += j.consumed.Seconds() * ranks
		o.LostS += j.lost.Seconds() * ranks
		o.CkptOverheadS += j.ckptOverhead.Seconds() * ranks
		o.AvgWaitS += j.waitVT.Seconds()
		if j.prio > minPrio {
			o.UrgentAvgWaitS += j.waitVT.Seconds()
			urgent++
		}
		o.Preemptions += j.preempts
		o.Kills += j.kills
		if j.end.Seconds() > o.MakespanS {
			o.MakespanS = j.end.Seconds()
		}
	}
	if n := len(s.jobs); n > 0 {
		o.AvgWaitS /= float64(n)
	}
	if urgent > 0 {
		o.UrgentAvgWaitS /= float64(urgent)
	}
	if o.ConsumedS > 0 {
		o.Goodput = o.UsefulS / o.ConsumedS
	}
	return o
}

// Run builds and runs a scheduler in one call.
func Run(spec ClusterSpec, wl Workload, policyName string, opts Options) (*Outcome, error) {
	s, err := New(spec, wl, policyName, opts)
	if err != nil {
		return nil, err
	}
	return s.Run()
}
