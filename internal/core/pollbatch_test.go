package mana

import (
	"encoding/json"
	"errors"
	"fmt"
	"testing"
	"time"

	"manasim/internal/app"
	"manasim/internal/apps"
	"manasim/internal/faults"
	"manasim/internal/impls"
	"manasim/internal/mpi"
	"manasim/internal/simtime"
	"manasim/internal/transport"
)

// loopProc hides the batched poll of the proc it embeds, as any
// decorator that embeds mpi.Proc does (the benchmark's tracing tap
// among them): progress polling through it makes n real Iprobes.
type loopProc struct{ mpi.Proc }

// loopApp hands its instance an env whose P is a loopProc.
type loopApp struct {
	app.Instance
	env app.Env
}

func (a *loopApp) bind(env *app.Env) *app.Env {
	a.env = *env
	a.env.P = loopProc{env.P}
	return &a.env
}

func (a *loopApp) Setup(env *app.Env) error          { return a.Instance.Setup(a.bind(env)) }
func (a *loopApp) Step(env *app.Env, step int) error { return a.Instance.Step(a.bind(env), step) }
func (a *loopApp) Finalize(env *app.Env) error       { return a.Instance.Finalize(a.bind(env)) }

// pollVariant returns f as is (batched polls) or with every poll a
// real call (loop).
func pollVariant(f app.Factory, loop bool) app.Factory {
	if !loop {
		return f
	}
	return func() app.Instance { return &loopApp{Instance: f()} }
}

// hiddenLower hides the lower half's resolve charge, as a decorated
// lower half does, so Runtime.Iprobes falls back to n real calls. It
// forwards the optional interfaces the runtime and the cluster use.
type hiddenLower struct {
	mpi.Proc
	lowerExtras
}

type lowerExtras interface {
	SetAbort(func(int))
	SetResolvedCaller(bool)
}

// pollOutcome is what the oracle compares between the two variants:
// every Stats a scenario produced with the wall time zeroed, its error
// text, the VT of the crash that stopped it, and the number of crashes
// its injector fired.
type pollOutcome struct {
	Stats   []Stats
	Err     string
	CrashVT time.Duration
	Fired   int
}

func (o *pollOutcome) add(st Stats, err error) error {
	st.Wall = 0
	o.Stats = append(o.Stats, st)
	if err != nil {
		o.Err = err.Error()
		var ce *faults.CrashError
		if errors.As(err, &ce) {
			o.CrashVT = ce.VT
		}
	}
	return err
}

// requireBatchIsLoop runs scenario with batched polls and with real
// ones and fails t unless the two outcomes are byte-identical.
func requireBatchIsLoop(t *testing.T, scenario func(loop bool) pollOutcome) pollOutcome {
	t.Helper()
	batch, loop := scenario(false), scenario(true)
	a, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(loop)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		if len(batch.Stats) != len(loop.Stats) {
			t.Fatalf("batch produced %d Stats, loop %d (errors %q, %q)", len(batch.Stats), len(loop.Stats), batch.Err, loop.Err)
		}
		for i := range batch.Stats {
			if d := firstStatsDiff(batch.Stats[i], loop.Stats[i]); d != "none" {
				t.Errorf("Stats %d: batch vs loop: %s", i, d)
			}
		}
		t.Fatalf("batch %s\nloop  %s", a, b)
	}
	return batch
}

// pollInput is a small job whose steps each poll a 64-call batch.
func pollInput(t *testing.T, appName string) (apps.Spec, apps.Input) {
	t.Helper()
	spec, in := batteryInput(t, appName, 5)
	in.PollsPerStep = 64
	return spec, in
}

// TestPollBatchMatchesLoop is the oracle of batched progress polling:
// a batch of n discarded Iprobes (mpibase's natively, the runtime's
// under MANA) leaves every rank's virtual time, the crossings, the
// wrapper calls and the checksums exactly where n real calls leave
// them — on every implementation and vid design, natively and under
// MANA across a checkpoint and a restart, with a lower half that hides
// its resolve charge, with a scripted and a virtual-time crash and a
// straggler window each landing inside a batch, and on restarts whose
// drain buffer is not empty when the first step polls.
func TestPollBatchMatchesLoop(t *testing.T) {
	for _, implName := range impls.Names() {
		spec, in := pollInput(t, batteryApp(implName))
		t.Run(implName+"/native", func(t *testing.T) {
			requireBatchIsLoop(t, func(loop bool) (o pollOutcome) {
				st, err := RunNative(implFactory(t, implName), in.Ranks, pollVariant(spec.New(in), loop))
				if o.add(st, err) != nil {
					t.Fatal(err)
				}
				return o
			})
		})
		for _, design := range []Design{DesignVirtID, DesignLegacy} {
			if design == DesignLegacy && implName != "mpich" && implName != "craympi" {
				continue // the legacy maps assume MPICH-family handles
			}
			t.Run(fmt.Sprintf("%s/%s", implName, design), func(t *testing.T) {
				requireBatchIsLoop(t, func(loop bool) (o pollOutcome) {
					cfg := implFactory(t, implName)
					cfg.Design, cfg.ExitAtCheckpoint = design, true
					f := pollVariant(spec.New(in), loop)
					st, images, err := Run(cfg, in.Ranks, f, in.SimSteps/2)
					if o.add(st, err) != nil {
						t.Fatal(err)
					}
					cfg.ExitAtCheckpoint = false
					if o.add(Restart(cfg, images, f)) != nil {
						t.Fatal(o.Err)
					}
					return o
				})
			})
		}
		t.Run(implName+"/hidden-lower", func(t *testing.T) {
			requireBatchIsLoop(t, func(loop bool) (o pollOutcome) {
				cfg := implFactory(t, implName)
				if !loop {
					inner := cfg.Factory
					cfg.Factory = func(fab *transport.Fabric, rank int, clock *simtime.Clock, net simtime.NetModel) mpi.Proc {
						p := inner(fab, rank, clock, net)
						return hiddenLower{Proc: p, lowerExtras: p.(lowerExtras)}
					}
				}
				st, _, err := Run(cfg, in.Ranks, pollVariant(spec.New(in), loop), -1)
				if o.add(st, err) != nil {
					t.Fatal(err)
				}
				return o
			})
		})
	}
}

// TestPollBatchFaultsMatchLoop plants each fault inside a batch, on
// MPICH (LAMMPS) and on ExaMPI (CoMD), whose lower half charges a
// resolve per probe: a scripted crash at the 30th wrapper call of step
// 2 (a step's calls before its polls are at most one pipelined Recv or
// six halo Sends, and it polls 64 times), a virtual-time crash 1 ns
// before that call's crash check, and a straggler window that opens
// 17 ns after it and closes 3 µs later, seen through a crash 30 calls
// further into the batch. The crash VT, the call it fires at (the
// wrapper-call count), the fired count and every Stats must match the
// loop's.
func TestPollBatchFaultsMatchLoop(t *testing.T) {
	for _, implName := range []string{"mpich", "exampi"} {
		t.Run(implName, func(t *testing.T) { checkPollBatchFaults(t, implName) })
	}
}

func checkPollBatchFaults(t *testing.T, implName string) {
	spec, in := pollInput(t, batteryApp(implName))
	const rank, step, call = 1, 2, 30
	run := func(loop bool, events ...faults.Event) (o pollOutcome) {
		inj := faults.NewInjector(in.Ranks, faults.Plan{Events: events})
		st, _, err := Run(faultCfg(t, implName, inj), in.Ranks, pollVariant(spec.New(in), loop), -1)
		_ = o.add(st, err)
		o.Fired = inj.CrashesFired()
		return o
	}
	crashVT := func(o pollOutcome) time.Duration {
		t.Helper()
		if o.Fired != 1 || o.CrashVT <= 0 {
			t.Fatalf("%d crashes fired at %v (%s), want one", o.Fired, o.CrashVT, o.Err)
		}
		return o.CrashVT
	}

	scripted := requireBatchIsLoop(t, func(loop bool) pollOutcome {
		return run(loop, faults.Event{Kind: faults.NodeCrash, Rank: rank, Step: step, Call: call})
	})
	at := crashVT(scripted)

	vt := requireBatchIsLoop(t, func(loop bool) pollOutcome {
		return run(loop, faults.Event{Kind: faults.NodeCrash, Rank: rank, At: at - 1, Step: -1})
	})
	if crashVT(vt) != at || vt.Stats[0].WrapperCalls != scripted.Stats[0].WrapperCalls {
		t.Fatalf("VT crash fired at %v after %d wrapper calls, want the scripted crash's %v after %d",
			vt.CrashVT, vt.Stats[0].WrapperCalls, at, scripted.Stats[0].WrapperCalls)
	}

	// The straggler's effect shows in the VT of a crash planted later in
	// the same batch, after the window closed.
	late := faults.Event{Kind: faults.NodeCrash, Rank: rank, Step: step, Call: call + 30}
	slow := requireBatchIsLoop(t, func(loop bool) pollOutcome {
		return run(loop, late, faults.Event{Kind: faults.Straggler, Rank: rank, At: at + 17, Window: 3 * time.Microsecond, Factor: 4, Step: -1})
	})
	if ref := crashVT(run(false, late)); crashVT(slow) <= ref {
		t.Fatalf("straggler window left the later crash at %v, no later than without it (%v)", slow.CrashVT, ref)
	}
}

// pollRing is the ring application with two poll batches at the start
// of every step, before the step receives its predecessor's message:
// on a restart, that message sits in the drain buffer while the step
// polls. One batch matches it (any tag), the other does not (tag 9).
type pollRing struct {
	ringApp
	polls   int
	drained *int // steps that polled with a non-empty drain buffer
}

func (a *pollRing) Step(env *app.Env, step int) error {
	p := env.P
	if lp, ok := p.(loopProc); ok {
		p = lp.Proc
	}
	if rt, ok := p.(*Runtime); ok && len(rt.drained) > 0 {
		*a.drained++
	}
	for _, tag := range []int{mpi.AnyTag, 9} {
		if err := pollTag(env.P, a.st.World, tag, a.polls); err != nil {
			return err
		}
	}
	return a.ringApp.Step(env, step)
}

// pollTag is apps' progress polling with a tag: the batch where the
// proc offers one, n real Iprobes otherwise.
func pollTag(p mpi.Proc, comm mpi.Handle, tag, n int) error {
	if b, ok := p.(interface {
		Iprobes(n, src, tag int, comm mpi.Handle) error
	}); ok {
		return b.Iprobes(n, mpi.AnySource, tag, comm)
	}
	for ; n > 0; n-- {
		if _, _, err := p.Iprobe(mpi.AnySource, tag, comm); err != nil {
			return err
		}
	}
	return nil
}

// TestPollBatchDrainBufferMatchesLoop: on a restart whose drain buffer
// holds the ring's in-flight message when the first step polls, a batch
// that the buffer serves charges what n buffer hits charge (nothing),
// and a batch it does not serve charges what n real calls charge.
func TestPollBatchDrainBufferMatchesLoop(t *testing.T) {
	const ranks, steps, at = 4, 6, 3
	for _, implName := range impls.Names() {
		t.Run(implName, func(t *testing.T) {
			var drained int
			requireBatchIsLoop(t, func(loop bool) (o pollOutcome) {
				f := pollVariant(func() app.Instance {
					return &pollRing{ringApp: ringApp{steps: steps}, polls: 50, drained: &drained}
				}, loop)
				cfg := implFactory(t, implName)
				cfg.ExitAtCheckpoint = true
				st, images, err := Run(cfg, ranks, f, at)
				if o.add(st, err) != nil {
					t.Fatal(err)
				}
				cfg.ExitAtCheckpoint = false
				if o.add(Restart(cfg, images, f)) != nil {
					t.Fatal(o.Err)
				}
				return o
			})
			if drained == 0 {
				t.Fatal("no restarted step polled with a non-empty drain buffer")
			}
		})
	}
}

// horizonFactor is the straggler factor of the horizon oracle: not a
// whole number, so trunc(piece × factor) summed over a poll's pieces
// differs from the factor applied to their sum.
const horizonFactor = 1.3717

// The horizon oracle's batch: rank 1's 64 polls in step 2.
const horizonRank, horizonStep = 1, 2

// polled is one poll of the logged batch as the loop makes it: the
// virtual time it begins and ends at and, under MANA, the ordinal of
// its wrapper call in the step (what a scripted crash counts).
type polled struct {
	start, end time.Duration
	call       int
}

// pollLog records the polls horizonRank makes in horizonStep.
type pollLog struct {
	step   int    // the step the rank is in
	calls0 uint64 // its wrapper calls when that step began
	polls  []polled
}

// logProc is a loopProc that logs each Iprobe into log.
type logProc struct {
	loopProc
	clock *simtime.Clock
	log   *pollLog
}

// wrapperCalls is the rank's wrapper-call count, 0 natively.
func wrapperCalls(p mpi.Proc) uint64 {
	if rt, ok := p.(*Runtime); ok {
		return rt.WrapperCalls()
	}
	return 0
}

func (p logProc) Iprobe(src, tag int, comm mpi.Handle) (bool, mpi.Status, error) {
	start, call := p.clock.Now(), int(wrapperCalls(p.Proc)-p.log.calls0)+1
	ok, st, err := p.loopProc.Iprobe(src, tag, comm)
	if p.log.step == horizonStep {
		p.log.polls = append(p.log.polls, polled{start: start, end: p.clock.Now(), call: call})
	}
	return ok, st, err
}

// window is a straggler window [from, until) at horizonFactor.
type window struct{ from, until time.Duration }

// horizonApp runs its instance with batched polls or, with loop set,
// with real ones, after installing windows on horizonRank's clock; a
// loop run with log set logs horizonRank's polls in horizonStep.
type horizonApp struct {
	app.Instance
	env     app.Env
	loop    bool
	windows []window
	log     *pollLog
}

func (a *horizonApp) bind(env *app.Env) *app.Env {
	a.env = *env
	if a.loop {
		a.env.P = loopProc{env.P}
		if a.log != nil && env.Rank == horizonRank {
			a.env.P = logProc{loopProc: loopProc{env.P}, clock: env.Clock, log: a.log}
		}
	}
	return &a.env
}

func (a *horizonApp) Setup(env *app.Env) error {
	if env.Rank == horizonRank {
		for _, w := range a.windows {
			env.Clock.Slow(horizonFactor, w.from, w.until)
		}
	}
	return a.Instance.Setup(a.bind(env))
}

func (a *horizonApp) Step(env *app.Env, step int) error {
	if a.log != nil && env.Rank == horizonRank {
		a.log.step, a.log.calls0 = step, wrapperCalls(env.P)
	}
	return a.Instance.Step(a.bind(env), step)
}

func (a *horizonApp) Finalize(env *app.Env) error { return a.Instance.Finalize(a.bind(env)) }

// horizons is one planting: straggler windows on horizonRank's clock
// and crash events for its injector (under MANA; nil runs without one).
type horizons struct {
	windows []window
	crashes []faults.Event
}

// TestPollBatchHorizons plants each horizon a poll batch meets at each
// position of a 64-poll batch — its first poll, its middle one, its
// last and one past it, each at the poll's start, 1 ns in and half-way
// through — and requires batched polls to leave what the loop leaves:
// every Stats (per-rank VT, crossings, wrapper calls), the crashes fired
// and the crash VT. The horizons are a straggler window opening there
// and one closing there (natively and under MANA with both vid designs,
// on MPICH and ExaMPI) and, under MANA, a scripted crash at that poll's
// wrapper call and a virtual-time crash there, each with and without a
// straggler window covering the batch.
func TestPollBatchHorizons(t *testing.T) {
	for _, implName := range []string{"mpich", "exampi"} {
		spec, in := pollInput(t, batteryApp(implName))
		modes := []Design{"", DesignVirtID, DesignLegacy}
		if implName != "mpich" {
			modes = modes[:2] // the legacy maps assume MPICH-family handles
		}
		for _, design := range modes {
			name := implName + "/native"
			if design != "" {
				name = fmt.Sprintf("%s/%s", implName, design)
			}
			t.Run(name, func(t *testing.T) {
				run := func(loop bool, h horizons, log *pollLog) (o pollOutcome) {
					f := func() app.Instance {
						return &horizonApp{Instance: spec.New(in)(), loop: loop, windows: h.windows, log: log}
					}
					if design == "" {
						st, err := RunNative(implFactory(t, implName), in.Ranks, f)
						if o.add(st, err) != nil {
							t.Fatal(err)
						}
						return o
					}
					cfg := implFactory(t, implName)
					cfg.Design = design
					var inj *faults.Injector
					if h.crashes != nil {
						inj = faults.NewInjector(in.Ranks, faults.Plan{Events: h.crashes})
						cfg.Faults = inj
					}
					st, _, err := Run(cfg, in.Ranks, f, -1)
					_ = o.add(st, err)
					if inj != nil {
						o.Fired = inj.CrashesFired()
					} else if err != nil {
						t.Fatal(err)
					}
					return o
				}
				checkHorizons(t, design != "", func(h horizons) pollOutcome {
					return requireBatchIsLoop(t, func(loop bool) pollOutcome { return run(loop, h, nil) })
				}, func(h horizons) []polled {
					var log pollLog
					run(true, h, &log)
					if len(log.polls) != in.PollsPerStep {
						t.Fatalf("rank %d polled %d times in step %d, want one batch of %d", horizonRank, len(log.polls), horizonStep, in.PollsPerStep)
					}
					return log.polls
				})
			})
		}
	}
}

// checkHorizons plants every horizon at every position through same,
// which fails t unless batch and loop agree, reading the batch's polls
// off record (a logged loop run).
func checkHorizons(t *testing.T, mana bool, same func(horizons) pollOutcome, record func(horizons) []polled) {
	// at is the virtual time of each planting point in polls.
	at := func(polls []polled) []time.Duration {
		last := len(polls) - 1
		var pts []time.Duration
		for _, i := range []int{0, last / 2, last, last + 1} {
			p := polls[min(i, last)]
			start := p.start
			if i > last {
				start = p.end
			}
			pts = append(pts, start, start+1, start+(p.end-p.start)/2)
		}
		return pts
	}
	polls := record(horizons{})
	first := polls[0].start
	for _, e := range at(polls) {
		same(horizons{windows: []window{{e, simtime.Never}}})
	}
	// A window that opens at the batch's first poll, logged, gives the
	// points its closing edge is planted at.
	open := window{first, simtime.Never}
	slowed := record(horizons{windows: []window{open}})
	for _, e := range at(slowed) {
		if e > first {
			same(horizons{windows: []window{{first, e}}})
		}
	}
	if !mana {
		return
	}
	var fired int
	for _, ws := range [][]window{nil, {open}} {
		polls := record(horizons{windows: ws})
		last := len(polls) - 1
		for _, i := range []int{0, last / 2, last, last + 1} {
			call := polls[min(i, last)].call + max(i-last, 0)
			o := same(horizons{windows: ws, crashes: []faults.Event{{Kind: faults.NodeCrash, Rank: horizonRank, Step: horizonStep, Call: call}}})
			fired += o.Fired
		}
		for _, e := range at(polls) {
			o := same(horizons{windows: ws, crashes: []faults.Event{{Kind: faults.NodeCrash, Rank: horizonRank, At: e, Step: -1}}})
			fired += o.Fired
		}
	}
	if fired == 0 {
		t.Fatal("no planted crash fired")
	}
}

// TestPollBatchRepeatsInClosedForm counts the work of a 1 000-poll
// batch instead of timing it: with no horizon, chargePolls charges
// every repeat in closed form (none piece by piece), and it runs one
// repeat piece by piece per horizon it meets — each edge of a straggler
// window inside the batch, and the scripted crash that stops it.
func TestPollBatchRepeatsInClosedForm(t *testing.T) {
	const n = 1000
	for _, implName := range []string{"mpich", "exampi"} {
		var crossings0 uint64 // the runtime's crossings before the batch
		batch := func(t *testing.T, inj *faults.Injector, slow func(rt *Runtime, d time.Duration)) (*Runtime, int, error) {
			t.Helper()
			cfg := implFactory(t, implName)
			cfg.Faults = inj
			rt := soloRuntime(t, cfg)
			if inj != nil {
				inj.StepStart(0, 0)
			}
			resolve := rt.lower.(interface{ ResolveCost() time.Duration }).ResolveCost()
			d := rt.xlat[lookupsIprobe] + 2*cfg.Host.CrossCost + resolve
			if slow != nil {
				slow(rt, d)
			}
			crossings0 = rt.Boundary().Crossings()
			pieces, err := rt.chargePolls(n, resolve)
			return rt, pieces, err
		}
		t.Run(implName, func(t *testing.T) {
			rt, pieces, err := batch(t, nil, nil)
			if err != nil || pieces != 0 {
				t.Fatalf("no horizon: %d repeats piece by piece (err %v), want 0", pieces, err)
			}
			if calls, crossings := rt.WrapperCalls(), rt.Boundary().Crossings()-crossings0; calls != n || crossings != 2*n {
				t.Fatalf("no horizon: %d wrapper calls and %d crossings, want %d and %d", calls, crossings, n, 2*n)
			}
			_, pieces, err = batch(t, faults.NewInjector(1, faults.Plan{}), func(rt *Runtime, d time.Duration) {
				rt.clock.Slow(horizonFactor, 10*d+d/2, 700*d+d/3)
			})
			if err != nil || pieces != 2 {
				t.Fatalf("a window inside the batch: %d repeats piece by piece (err %v), want 2", pieces, err)
			}
			crash := faults.Event{Kind: faults.NodeCrash, Rank: 0, Step: 0, Call: 500}
			rt, pieces, err = batch(t, faults.NewInjector(1, faults.Plan{Events: []faults.Event{crash}}), nil)
			if err == nil || pieces != 1 || rt.WrapperCalls() != 500 {
				t.Fatalf("a crash at call 500: %d repeats piece by piece, %d wrapper calls (err %v), want 1, 500 and a crash",
					pieces, rt.WrapperCalls(), err)
			}
		})
	}
}
