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
	CommContext(mpi.Handle) (uint32, error)
	SleepUntil(time.Duration) error
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
