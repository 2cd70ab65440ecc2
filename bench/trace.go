package main

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"manasim/internal/app"
	"manasim/internal/ckptstore"
	"manasim/internal/cluster"
	mana "manasim/internal/core"
	"manasim/internal/mpi"
	"manasim/internal/simtime"
	"manasim/internal/transport"
)

// The traced run records spans from this package only, at the layer
// boundaries the simulator already exposes: the benchmark's own calls
// (phase spans), an app.Instance decorator that also hands the
// application a decorated env.P (the upper-half boundary), an mpi.Proc
// decorator installed through Config.Factory (the lower-half boundary),
// and a ckptstore.Backend decorator installed through
// Options.WrapBackend.
//
// The event kernel runs one rank body at a time and hands control over
// only inside a lower-half call, so every instant of an iteration
// belongs to the bucket the last boundary event switched to. That makes
// the ledger exclusive by construction: the buckets tile the traced
// iteration wall.

// bucket names one exclusive share of an iteration's wall time.
type bucket uint8

const (
	bktBench       bucket = iota // the benchmark's own code between phases
	bktLaunch                    // cluster: fabric, lower halves, kernel start
	bktTeardown                  // cluster: after a rank's last application call
	bktRestartOpen               // core: RestartJobFromStore up to the first lower half
	bktApps                      // application Setup/Step/Finalize outside MPI calls
	bktSnapshot                  // application Snapshot at a checkpoint
	bktRestore                   // application Restore at a restart
	bktUpper                     // MANA wrappers: between env.P and the lower half
	bktLower                     // lower half, transport matching and kernel handoff
	bktBoundary                  // step boundaries: coordinator, drain, encode, commit
	bktScrub                     // Store.Scrub called by the benchmark
	numBuckets
)

var bucketNames = [numBuckets]string{
	"bench.self", "cluster.launch", "cluster.teardown", "core.restart_open",
	"apps.step_self", "apps.snapshot", "apps.restore", "core.upper_self",
	"mpibase.self", "ckpt.boundary_self", "ckptstore.scrub",
}

// ledger is the exclusive time ledger: one current bucket, and the time
// since the last switch goes to it. Times are nanoseconds since base.
type ledger struct {
	base time.Time
	cur  bucket
	last int64
	ns   [numBuckets]int64
	// edges counts the switches into or out of each bucket; every switch
	// costs one clock read, half of it on either side of the sampled
	// instant.
	edges [numBuckets]int64
}

func (l *ledger) at() int64 { return int64(time.Since(l.base)) }

// switchTo closes the current bucket at now and opens b, returning the
// bucket that was current.
func (l *ledger) switchTo(b bucket, now int64) bucket {
	prev := l.cur
	l.ns[prev] += now - l.last
	l.edges[prev]++
	l.edges[b]++
	l.cur, l.last = b, now
	return prev
}

// self returns the buckets with the calibrated cost of the clock reads
// taken out (clockNs per read, half a read per edge) and the total taken
// out. The corrected buckets plus that total equal the raw sum.
func (l *ledger) self(clockNs float64) (self [numBuckets]float64, clock float64) {
	for b := range l.ns {
		c := float64(l.edges[b]) * clockNs / 2
		self[b] = float64(l.ns[b]) - c
		clock += c
	}
	return self, clock
}

// fold is what the per-call boundaries of one span collapse into: a
// wrap-lammps iteration makes several million MPI calls, too many to
// keep as spans. Busy time is inclusive — a call parked in the lower
// half counts the time other ranks ran.
type fold struct {
	UpperCalls  int64 `json:"upper_calls,omitempty"`
	UpperBusyNs int64 `json:"upper_busy_ns,omitempty"`
	LowerCalls  int64 `json:"lower_calls,omitempty"`
	LowerBusyNs int64 `json:"lower_busy_ns,omitempty"`
}

// span is one recorded interval. Spans of one iteration share Iter and
// nest iteration ⊃ job ⊃ application call, through Parent.
type span struct {
	ID      int32  `json:"id"`
	Parent  int32  `json:"parent"`
	Iter    int    `json:"iter"`
	Name    string `json:"name"`
	Rank    int    `json:"rank"`
	Step    int    `json:"step"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Fold    *fold  `json:"fold,omitempty"`
}

// call classes of the lower-half boundary.
const (
	classP2P = iota
	classColl
	classProbe
	classObject
	numClasses
)

// rankTrace is one rank's view of the trace: where its per-call
// boundaries currently fold into.
type rankTrace struct {
	fold    *fold
	outside fold // calls made outside any application span (drain, runtime start-up)
}

// backendStats counts the store backend boundary. The store's worker
// pool calls the backend from several goroutines, so these are atomic
// and busy time may exceed wall time; it is not part of the ledger.
type backendStats struct {
	puts, gets, deletes  atomic.Int64
	putBytes, getBytes   atomic.Int64
	putBusyNs, getBusyNs atomic.Int64
	drainBarrierNs       atomic.Int64
}

// backendCounts is a reading of backendStats.
type backendCounts struct {
	Puts           int64 `json:"puts"`
	Gets           int64 `json:"gets"`
	Deletes        int64 `json:"deletes"`
	PutBytes       int64 `json:"put_bytes"`
	GetBytes       int64 `json:"get_bytes"`
	PutBusyNs      int64 `json:"put_busy_ns"`
	GetBusyNs      int64 `json:"get_busy_ns"`
	DrainBarrierNs int64 `json:"drain_barrier_ns"`
}

func (s *backendStats) read() backendCounts {
	return backendCounts{
		Puts: s.puts.Load(), Gets: s.gets.Load(), Deletes: s.deletes.Load(),
		PutBytes: s.putBytes.Load(), GetBytes: s.getBytes.Load(),
		PutBusyNs: s.putBusyNs.Load(), GetBusyNs: s.getBusyNs.Load(),
		DrainBarrierNs: s.drainBarrierNs.Load(),
	}
}

func (c backendCounts) minus(o backendCounts) backendCounts {
	return backendCounts{
		Puts: c.Puts - o.Puts, Gets: c.Gets - o.Gets, Deletes: c.Deletes - o.Deletes,
		PutBytes: c.PutBytes - o.PutBytes, GetBytes: c.GetBytes - o.GetBytes,
		PutBusyNs: c.PutBusyNs - o.PutBusyNs, GetBusyNs: c.GetBusyNs - o.GetBusyNs,
		DrainBarrierNs: c.DrainBarrierNs - o.DrainBarrierNs,
	}
}

// iterTrace is the ledger and the boundary counts of one traced
// iteration.
type iterTrace struct {
	Iter    int                `json:"iter"`
	WallNs  int64              `json:"wall_ns"`
	RawNs   map[string]int64   `json:"raw_ns"`
	SelfNs  map[string]float64 `json:"self_ns"`
	ClockNs float64            `json:"clock_ns"`
	Reads   int64              `json:"clock_reads"`

	Launches     int64             `json:"launches"`
	LowerCalls   [numClasses]int64 `json:"lower_calls"`
	PayloadBytes int64             `json:"payload_bytes"`
	SnapshotB    int64             `json:"snapshot_bytes"`
	Snapshots    int64             `json:"snapshots"`
	Backend      backendCounts     `json:"backend"`
}

// tracer is the traced run's recorder. A nil *tracer is the untraced
// run: its methods pass everything through untouched, so end-to-end
// iterations run with no decorator installed at all.
type tracer struct {
	led     ledger
	clockNs float64

	mu     sync.Mutex // guards spans and nextID
	spans  []span
	nextID int32

	iter      int
	iterID    int32
	iterStart int64
	jobID     int32
	ranks     []*rankTrace
	cur       iterTrace
	iters     []iterTrace

	backend     backendStats
	backendBase backendCounts
	// bad records a lower half that lacks an optional interface the
	// decorator must forward; the run fails rather than trace a job whose
	// model the decorator changed.
	bad error
}

func newTracer() *tracer {
	t := &tracer{}
	t.led.base = time.Now()
	t.clockNs = calibrateClock(&t.led)
	return t
}

// clockSink keeps calibrateClock's reads from being optimized away.
var clockSink int64

// calibrateClock measures what one ledger clock read costs: the best of
// nine rounds.
func calibrateClock(l *ledger) float64 {
	const reads = 1 << 18
	best := math.Inf(1)
	for round := 0; round < 9; round++ {
		t0 := time.Now()
		for i := 0; i < reads; i++ {
			clockSink += l.at()
		}
		best = min(best, float64(time.Since(t0))/reads)
	}
	return best
}

// addSpan files a finished span, numbering it unless reserveID already
// did.
func (t *tracer) addSpan(sp span) {
	t.mu.Lock()
	if sp.ID == 0 {
		t.nextID++
		sp.ID = t.nextID
	}
	sp.Iter = t.iter
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// reserveID hands out a span id before the span ends, so children can
// name their parent.
func (t *tracer) reserveID() int32 {
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	return id
}

// beginIter starts a traced iteration: a fresh ledger in bench.self.
func (t *tracer) beginIter(i int) {
	base := t.led.base
	t.led = ledger{base: base, cur: bktBench}
	t.iterStart = t.led.at()
	t.led.last = t.iterStart
	t.backendBase = t.backend.read()
	t.iter = i
	t.iterID = t.reserveID()
	t.cur = iterTrace{Iter: i}
	t.ranks = nil
}

// endIter closes the iteration and files its ledger.
func (t *tracer) endIter() iterTrace {
	now := t.led.at()
	t.led.switchTo(bktBench, now)
	it := t.cur
	it.WallNs = now - t.iterStart
	it.Backend = t.backend.read().minus(t.backendBase)
	it.RawNs = make(map[string]int64, numBuckets)
	it.SelfNs = make(map[string]float64, numBuckets)
	self, clock := t.led.self(t.clockNs)
	for b := bucket(0); b < numBuckets; b++ {
		it.RawNs[bucketNames[b]] = t.led.ns[b]
		it.SelfNs[bucketNames[b]] = self[b]
		it.Reads += t.led.edges[b]
	}
	it.Reads /= 2
	// The clock reads are the benchmark's own cost.
	it.SelfNs[bucketNames[bktBench]] += clock
	it.ClockNs = clock
	t.addSpan(span{ID: t.iterID, Name: "iteration", Rank: -1, Step: -1, StartNs: t.iterStart, EndNs: now})
	t.iters = append(t.iters, it)
	return it
}

// phase runs one of the benchmark's own calls as a span in bucket b and
// returns to bench.self afterwards. It must not be used while a job's
// ranks are running: only rank goroutines touch the ledger then.
func (t *tracer) phase(name string, b bucket, fn func()) {
	if t == nil {
		fn()
		return
	}
	start := t.led.at()
	t.led.switchTo(b, start)
	fn()
	end := t.led.at()
	t.led.switchTo(bktBench, end)
	t.addSpan(span{Parent: t.iterID, Name: name, Rank: -1, Step: -1, StartNs: start, EndNs: end})
}

// job is a launched session and the spans that cover it.
type job struct {
	s       *mana.Session
	t       *tracer
	id      int32
	label   string
	startNs int64
	waitNs  int64
}

// launch starts a job (fresh, or restarted from st when st is non-nil)
// with the decorators installed. The ledger goes to cluster.launch (or
// core.restart_open until the first lower half is built); from then on
// only the job's ranks switch it, until wait returns.
func (t *tracer) launch(label string, cfg mana.Config, n int, appf app.Factory, st *ckptstore.Store) (*job, error) {
	start := func() (*mana.Session, error) {
		if st != nil {
			return mana.RestartJobFromStore(cfg, st, appf)
		}
		return mana.StartJob(cfg, n, appf)
	}
	if t == nil {
		s, err := start()
		return &job{s: s}, err
	}
	cfg.Factory = t.wrapFactory(cfg.Factory)
	appf = t.wrapApp(appf)
	t.ranks = make([]*rankTrace, n)
	for r := range t.ranks {
		rt := &rankTrace{}
		rt.fold = &rt.outside
		t.ranks[r] = rt
	}
	j := &job{t: t, id: t.reserveID(), label: label}
	t.jobID = j.id
	t.cur.Launches++
	first, name := bktLaunch, "start_job"
	if st != nil {
		first, name = bktRestartOpen, "restart_open"
	}
	j.startNs = t.led.at()
	t.led.switchTo(first, j.startNs)
	s, err := start()
	// Ranks may already be running: read the clock, leave the ledger.
	j.waitNs = t.led.at()
	t.addSpan(span{Parent: j.id, Name: name, Rank: -1, Step: -1, StartNs: j.startNs, EndNs: j.waitNs})
	if err != nil {
		t.led.switchTo(bktBench, t.led.at())
		return nil, err
	}
	j.s = s
	return j, nil
}

// wait blocks until the job ends, closes its spans and returns the
// ledger to bench.self.
func (j *job) wait() (mana.Stats, error) {
	st, err := j.s.Wait()
	t := j.t
	if t == nil {
		return st, err
	}
	end := t.led.at()
	t.led.switchTo(bktBench, end)
	t.addSpan(span{Parent: j.id, Name: "wait", Rank: -1, Step: -1, StartNs: j.waitNs, EndNs: end})
	var out fold
	for _, rt := range t.ranks {
		out.UpperCalls += rt.outside.UpperCalls
		out.UpperBusyNs += rt.outside.UpperBusyNs
		out.LowerCalls += rt.outside.LowerCalls
		out.LowerBusyNs += rt.outside.LowerBusyNs
	}
	t.addSpan(span{ID: j.id, Parent: t.iterID, Name: "job:" + j.label, Rank: -1, Step: -1, StartNs: j.startNs, EndNs: end, Fold: &out})
	if err == nil {
		err = t.bad
	}
	return st, err
}

// ---------------------------------------------------------------------
// lower-half and upper-half boundary: mpi.Proc decorator

// tap decorates an mpi.Proc: it embeds the interface and overrides only
// the calls that communicate. Everything else passes straight through.
type tap struct {
	mpi.Proc
	t     *tracer
	b     bucket
	upper bool
	rt    *rankTrace
}

// lowerExtras are the optional interfaces the runtime and the cluster
// type-assert on a lower half. The decorator must forward all four:
// without SetResolvedCaller the ExaMPI family silently pays its lazy
// resolution guard (different virtual time), without CommContext the
// fault injector cannot tell drain control rows from application
// traffic, without SleepUntil reliable drains cannot time out, without
// SetAbort an MPI_Abort no longer tears the fabric down.
type lowerExtras interface {
	SetAbort(func(int))
	SetResolvedCaller(bool)
	CommContext(mpi.Handle) (uint32, error)
	SleepUntil(time.Duration) error
}

// lowerTap is the tap installed through Config.Factory.
type lowerTap struct {
	tap
	lowerExtras
}

var (
	_ mpi.Proc          = (*lowerTap)(nil)
	_ lowerExtras       = (*lowerTap)(nil)
	_ ckptstore.Drainer = (*backendTap)(nil)
)

func (t *tracer) wrapFactory(f cluster.Factory) cluster.Factory {
	return func(fab *transport.Fabric, rank int, clock *simtime.Clock, net simtime.NetModel) mpi.Proc {
		if t.led.cur != bktLaunch {
			t.led.switchTo(bktLaunch, t.led.at())
		}
		inner := f(fab, rank, clock, net)
		ext, ok := inner.(lowerExtras)
		if !ok {
			t.bad = fmt.Errorf("bench: lower half %s lacks an optional interface the decorator forwards", inner.ImplName())
			return inner
		}
		return &lowerTap{tap: tap{Proc: inner, t: t, b: bktLower, rt: t.ranks[rank]}, lowerExtras: ext}
	}
}

func (p *tap) enter() (bucket, int64) {
	now := p.t.led.at()
	return p.t.led.switchTo(p.b, now), now
}

func (p *tap) leave(prev bucket, t0 int64, class int, payload int) {
	now := p.t.led.at()
	p.t.led.switchTo(prev, now)
	f := p.rt.fold
	if p.upper {
		f.UpperCalls++
		f.UpperBusyNs += now - t0
		return
	}
	f.LowerCalls++
	f.LowerBusyNs += now - t0
	p.t.cur.LowerCalls[class]++
	p.t.cur.PayloadBytes += int64(payload)
}

func (p *tap) Send(buf []byte, count int, dt mpi.Handle, dest, tag int, comm mpi.Handle) error {
	prev, t0 := p.enter()
	err := p.Proc.Send(buf, count, dt, dest, tag, comm)
	p.leave(prev, t0, classP2P, 0)
	return err
}

func (p *tap) Recv(buf []byte, count int, dt mpi.Handle, src, tag int, comm mpi.Handle) (mpi.Status, error) {
	prev, t0 := p.enter()
	st, err := p.Proc.Recv(buf, count, dt, src, tag, comm)
	p.leave(prev, t0, classP2P, st.Bytes)
	return st, err
}

func (p *tap) Isend(buf []byte, count int, dt mpi.Handle, dest, tag int, comm mpi.Handle) (mpi.Handle, error) {
	prev, t0 := p.enter()
	h, err := p.Proc.Isend(buf, count, dt, dest, tag, comm)
	p.leave(prev, t0, classP2P, 0)
	return h, err
}

func (p *tap) Irecv(buf []byte, count int, dt mpi.Handle, src, tag int, comm mpi.Handle) (mpi.Handle, error) {
	prev, t0 := p.enter()
	h, err := p.Proc.Irecv(buf, count, dt, src, tag, comm)
	p.leave(prev, t0, classP2P, 0)
	return h, err
}

func (p *tap) Wait(req mpi.Handle) (mpi.Status, error) {
	prev, t0 := p.enter()
	st, err := p.Proc.Wait(req)
	p.leave(prev, t0, classP2P, st.Bytes)
	return st, err
}

func (p *tap) Test(req mpi.Handle) (bool, mpi.Status, error) {
	prev, t0 := p.enter()
	done, st, err := p.Proc.Test(req)
	p.leave(prev, t0, classP2P, st.Bytes)
	return done, st, err
}

func (p *tap) Iprobe(src, tag int, comm mpi.Handle) (bool, mpi.Status, error) {
	prev, t0 := p.enter()
	ok, st, err := p.Proc.Iprobe(src, tag, comm)
	p.leave(prev, t0, classProbe, 0)
	return ok, st, err
}

func (p *tap) Probe(src, tag int, comm mpi.Handle) (mpi.Status, error) {
	prev, t0 := p.enter()
	st, err := p.Proc.Probe(src, tag, comm)
	p.leave(prev, t0, classProbe, 0)
	return st, err
}

func (p *tap) Barrier(comm mpi.Handle) error {
	prev, t0 := p.enter()
	err := p.Proc.Barrier(comm)
	p.leave(prev, t0, classColl, 0)
	return err
}

func (p *tap) Bcast(buf []byte, count int, dt mpi.Handle, root int, comm mpi.Handle) error {
	prev, t0 := p.enter()
	err := p.Proc.Bcast(buf, count, dt, root, comm)
	p.leave(prev, t0, classColl, len(buf))
	return err
}

func (p *tap) Reduce(send, recv []byte, count int, dt, op mpi.Handle, root int, comm mpi.Handle) error {
	prev, t0 := p.enter()
	err := p.Proc.Reduce(send, recv, count, dt, op, root, comm)
	p.leave(prev, t0, classColl, len(send))
	return err
}

func (p *tap) Allreduce(send, recv []byte, count int, dt, op mpi.Handle, comm mpi.Handle) error {
	prev, t0 := p.enter()
	err := p.Proc.Allreduce(send, recv, count, dt, op, comm)
	p.leave(prev, t0, classColl, len(send))
	return err
}

func (p *tap) Alltoall(send []byte, scount int, sdt mpi.Handle, recv []byte, rcount int, rdt mpi.Handle, comm mpi.Handle) error {
	prev, t0 := p.enter()
	err := p.Proc.Alltoall(send, scount, sdt, recv, rcount, rdt, comm)
	p.leave(prev, t0, classColl, len(send))
	return err
}

func (p *tap) Allgather(send []byte, scount int, sdt mpi.Handle, recv []byte, rcount int, rdt mpi.Handle, comm mpi.Handle) error {
	prev, t0 := p.enter()
	err := p.Proc.Allgather(send, scount, sdt, recv, rcount, rdt, comm)
	p.leave(prev, t0, classColl, len(send))
	return err
}

func (p *tap) Gather(send []byte, scount int, sdt mpi.Handle, recv []byte, rcount int, rdt mpi.Handle, root int, comm mpi.Handle) error {
	prev, t0 := p.enter()
	err := p.Proc.Gather(send, scount, sdt, recv, rcount, rdt, root, comm)
	p.leave(prev, t0, classColl, len(send))
	return err
}

func (p *tap) Scatter(send []byte, scount int, sdt mpi.Handle, recv []byte, rcount int, rdt mpi.Handle, root int, comm mpi.Handle) error {
	prev, t0 := p.enter()
	err := p.Proc.Scatter(send, scount, sdt, recv, rcount, rdt, root, comm)
	p.leave(prev, t0, classColl, len(send))
	return err
}

// The communicator constructors agree on a context over the fabric, so
// a rank can park inside them like inside any collective.

func (p *tap) CommDup(comm mpi.Handle) (mpi.Handle, error) {
	prev, t0 := p.enter()
	h, err := p.Proc.CommDup(comm)
	p.leave(prev, t0, classObject, 0)
	return h, err
}

func (p *tap) CommSplit(comm mpi.Handle, color, key int) (mpi.Handle, error) {
	prev, t0 := p.enter()
	h, err := p.Proc.CommSplit(comm, color, key)
	p.leave(prev, t0, classObject, 0)
	return h, err
}

func (p *tap) CommCreate(comm mpi.Handle, group mpi.Handle) (mpi.Handle, error) {
	prev, t0 := p.enter()
	h, err := p.Proc.CommCreate(comm, group)
	p.leave(prev, t0, classObject, 0)
	return h, err
}

// ---------------------------------------------------------------------
// application boundary: app.Instance decorator

// appTap decorates one rank's application instance and hands it an env
// whose P is an upper tap, so calls into MANA's wrappers are bracketed.
// Natively env.P already is the lower tap and is left alone.
type appTap struct {
	app.Instance
	t   *tracer
	env *app.Env
	my  app.Env
	rt  *rankTrace
}

func (t *tracer) wrapApp(f app.Factory) app.Factory {
	return func() app.Instance { return &appTap{Instance: f(), t: t} }
}

func (a *appTap) bind(env *app.Env) *app.Env {
	if a.env != env {
		a.env, a.my = env, *env
		a.rt = a.t.ranks[env.Rank]
		if _, native := env.P.(*lowerTap); !native {
			a.my.P = &tap{Proc: env.P, t: a.t, b: bktUpper, upper: true, rt: a.rt}
		}
	}
	return &a.my
}

func (a *appTap) begin(name string, step int) span {
	now := a.t.led.at()
	a.t.led.switchTo(bktApps, now)
	sp := span{Parent: a.t.jobID, Name: name, Rank: a.env.Rank, Step: step, StartNs: now, Fold: &fold{}}
	a.rt.fold = sp.Fold
	return sp
}

// end closes an application span. What follows in the runner is the step
// boundary, so the ledger goes there.
func (a *appTap) end(sp span) {
	now := a.t.led.at()
	a.t.led.switchTo(bktBoundary, now)
	sp.EndNs = now
	a.rt.fold = &a.rt.outside
	a.t.addSpan(sp)
}

func (a *appTap) Setup(env *app.Env) error {
	e := a.bind(env)
	sp := a.begin("app.setup", -1)
	err := a.Instance.Setup(e)
	a.end(sp)
	return err
}

func (a *appTap) Step(env *app.Env, step int) error {
	e := a.bind(env)
	sp := a.begin("app.step", step)
	err := a.Instance.Step(e, step)
	a.end(sp)
	return err
}

func (a *appTap) Finalize(env *app.Env) error {
	e := a.bind(env)
	sp := a.begin("app.finalize", -1)
	err := a.Instance.Finalize(e)
	a.end(sp)
	return err
}

// aside brackets a call that interrupts whatever bucket is current.
func (a *appTap) aside(name string, b bucket, fn func()) {
	start := a.t.led.at()
	prev := a.t.led.switchTo(b, start)
	fn()
	end := a.t.led.at()
	a.t.led.switchTo(prev, end)
	rank := -1
	if a.env != nil {
		rank = a.env.Rank
	}
	a.t.addSpan(span{Parent: a.t.jobID, Name: name, Rank: rank, Step: -1, StartNs: start, EndNs: end})
}

func (a *appTap) Snapshot() (data []byte, err error) {
	a.aside("app.snapshot", bktSnapshot, func() { data, err = a.Instance.Snapshot() })
	a.t.cur.SnapshotB += int64(len(data))
	a.t.cur.Snapshots++
	return data, err
}

func (a *appTap) Restore(data []byte) (err error) {
	a.aside("app.restore", bktRestore, func() { err = a.Instance.Restore(data) })
	return err
}

// Checksum is the runner's last call into a rank's application: what
// follows until the next boundary event is job teardown.
func (a *appTap) Checksum() uint64 {
	now := a.t.led.at()
	a.t.led.switchTo(bktApps, now)
	sum := a.Instance.Checksum()
	a.t.led.switchTo(bktTeardown, a.t.led.at())
	return sum
}

// ---------------------------------------------------------------------
// store backend boundary: ckptstore.Backend decorator

type backendTap struct {
	ckptstore.Backend
	s *backendStats
}

func (t *tracer) wrapBackend(b ckptstore.Backend) ckptstore.Backend {
	return &backendTap{Backend: b, s: &t.backend}
}

func (b *backendTap) Put(key string, data []byte) error {
	t0 := time.Now()
	err := b.Backend.Put(key, data)
	b.s.putBusyNs.Add(int64(time.Since(t0)))
	b.s.puts.Add(1)
	b.s.putBytes.Add(int64(len(data)))
	return err
}

func (b *backendTap) Get(key string) ([]byte, error) {
	t0 := time.Now()
	data, err := b.Backend.Get(key)
	b.s.getBusyNs.Add(int64(time.Since(t0)))
	b.s.gets.Add(1)
	b.s.getBytes.Add(int64(len(data)))
	return data, err
}

func (b *backendTap) Delete(key string) error {
	b.s.deletes.Add(1)
	return b.Backend.Delete(key)
}

// DrainBarrier forwards ckptstore.Drainer: dropping it would silently
// drop the tier backend's flush barrier from every commit.
func (b *backendTap) DrainBarrier() error {
	d, ok := b.Backend.(ckptstore.Drainer)
	if !ok {
		return nil
	}
	t0 := time.Now()
	err := d.DrainBarrier()
	b.s.drainBarrierNs.Add(int64(time.Since(t0)))
	return err
}
