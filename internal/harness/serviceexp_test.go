package harness

import (
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// TestYoungDaly: the closed-form optimum is sqrt(2*MTBF*C), and zero
// inputs degrade gracefully.
func TestYoungDaly(t *testing.T) {
	got := YoungDaly(8*time.Millisecond, time.Millisecond)
	want := time.Duration(math.Sqrt(2 * 8e6 * 1e6)) // sqrt(2*MTBF*C) in ns
	if diff := got - want; diff < -time.Microsecond || diff > time.Microsecond {
		t.Fatalf("YoungDaly = %v, want %v", got, want)
	}
	if got := YoungDaly(0, time.Millisecond); got != 0 {
		t.Fatalf("YoungDaly with zero MTBF = %v, want 0", got)
	}
}

// checkTrajectory asserts structural invariants of one service run:
// every attempt but the last crashed, the final attempt completed, and
// each crash after a committed checkpoint was recovered via a store
// restart rather than a fresh start.
func checkTrajectory(t *testing.T, r *ServiceOutcome) {
	t.Helper()
	if len(r.Attempts) == 0 {
		t.Fatalf("%s: no attempts recorded", r.Policy)
	}
	gens, crashes, restarts := 0, 0, 0
	for i, a := range r.Attempts {
		last := i == len(r.Attempts)-1
		if a.Crashed == last {
			t.Fatalf("%s attempt %d: crashed=%v at position %d/%d — only the final attempt may complete",
				r.Policy, i, a.Crashed, i, len(r.Attempts))
		}
		if a.Restarted != (gens > 0) {
			t.Fatalf("%s attempt %d: restarted=%v with %d prior generations — every crash past the first checkpoint must recover from the store",
				r.Policy, i, a.Restarted, gens)
		}
		if a.Crashed {
			crashes++
			if a.CrashRank < 0 {
				t.Fatalf("%s attempt %d: crashed without a crash rank", r.Policy, i)
			}
			if a.LostVTS < 0 || a.LostVTS > a.VTS {
				t.Fatalf("%s attempt %d: lost work %.3fms outside attempt vt %.3fms",
					r.Policy, i, a.LostVTS*1e3, a.VTS*1e3)
			}
		}
		if a.Restarted {
			restarts++
		}
		gens += a.Ckpts
	}
	if crashes != r.Crashes || restarts != r.Restarts {
		t.Fatalf("%s: trajectory counts crashes=%d restarts=%d, outcome says %d/%d",
			r.Policy, crashes, restarts, r.Crashes, r.Restarts)
	}
	if r.Goodput <= 0 || r.Goodput > 1 {
		t.Fatalf("%s: goodput %.3f outside (0, 1]", r.Policy, r.Goodput)
	}
	if r.TotalVTS < r.BaselineVTS {
		t.Fatalf("%s: total service time %.3fms below the fault-free baseline %.3fms",
			r.Policy, r.TotalVTS*1e3, r.BaselineVTS*1e3)
	}
}

// TestServiceSweepAcceptance runs the full-size service experiment:
// one run per fixed interval bracketing the Young/Daly optimum, each a
// well-formed crash/restart trajectory at its own interval.
func TestServiceSweepAcceptance(t *testing.T) {
	res, err := Service(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 3 {
		t.Fatalf("sweep ran %d policies, want 3", len(res.Runs))
	}
	if res.OptimumS <= 0 {
		t.Fatalf("closed-form optimum %.3fms not positive", res.OptimumS*1e3)
	}
	for i, scale := range []float64{1.0 / 8, 1, 8} {
		r := res.Runs[i]
		checkTrajectory(t, r)
		if rel := math.Abs(r.IntervalS-scale*res.OptimumS) / res.OptimumS; rel > 1e-6 {
			t.Errorf("%s: interval %.4fms, want %g x the optimum %.4fms", r.Policy, r.IntervalS*1e3, scale, res.OptimumS*1e3)
		}
	}
}

// TestServiceDeterminism: the same service spec produces a
// byte-identical trajectory on every run — every attempt's crash point,
// lost work, and checkpoint count agree — run twice at GOMAXPROCS 1 and
// twice at 4, so the whole crash/restart history is a pure function of
// the spec whatever the host's parallelism.
func TestServiceDeterminism(t *testing.T) {
	for _, seed := range []int64{11, 29} {
		sp := ServiceSpec{
			App: "lammps", Impl: "mpich", Ranks: 4, Steps: 8,
			Seed: seed, MTBF: 2 * time.Millisecond, Crashes: 3,
			Interval: time.Millisecond,
		}
		ref, err := RunService(sp)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if ref.Crashes == 0 {
			t.Fatalf("seed %d: determinism check exercised no crashes", seed)
		}
		checkTrajectory(t, ref)
		for _, procs := range []int{1, 1, 4, 4} {
			prev := runtime.GOMAXPROCS(procs)
			got, err := RunService(sp)
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatalf("seed %d GOMAXPROCS=%d: %v", seed, procs, err)
			}
			if !reflect.DeepEqual(ref, got) {
				t.Fatalf("seed %d GOMAXPROCS=%d: service outcome diverges:\nfirst: %+v\nthis:  %+v", seed, procs, ref, got)
			}
		}
	}
}

// TestServiceCorruptionDeterminism: a service run with silent store
// corruption is a pure function of its spec — same seed, same crash
// timeline, same corruption strikes, byte-identical outcome.
func TestServiceCorruptionDeterminism(t *testing.T) {
	sp := ServiceSpec{
		App: "lammps", Impl: "mpich", Ranks: 4, Steps: 8,
		Seed: 7, MTBF: 2 * time.Millisecond, Crashes: 3,
		Interval:    time.Millisecond,
		CorruptRate: 0.3, Fallback: true,
	}
	a, err := RunService(sp)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunService(sp)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("corruption service outcomes diverge across identical runs:\nfirst:  %+v\nsecond: %+v", a, b)
	}
	if a.Corruptions == 0 {
		t.Fatal("determinism check injected no corruption — raise the rate")
	}
}

// TestServiceCorruptionFallbackImprovesGoodput is the PR's service-level
// acceptance bar: under silent store corruption, restart fallback
// strictly improves goodput over head-only restart at every nonzero
// rate, and the rate-0 control arms agree exactly. Runs the full-size
// sweep — the fast variant commits too few generations for sparse
// strikes to land on a restart path.
func TestServiceCorruptionFallbackImprovesGoodput(t *testing.T) {
	res, err := ServiceCorruption(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs)%2 != 0 || len(res.Runs) < 4 {
		t.Fatalf("sweep ran %d cells, want an off/on pair per rate with at least 2 rates", len(res.Runs))
	}
	for i := 0; i < len(res.Runs); i += 2 {
		off, on := res.Runs[i], res.Runs[i+1]
		if off.CorruptRate != on.CorruptRate || off.Fallback || !on.Fallback {
			t.Fatalf("cells %d/%d are not an off/on pair at one rate: %q vs %q", i, i+1, off.Policy, on.Policy)
		}
		if off.CorruptRate == 0 {
			if off.Goodput != on.Goodput {
				t.Fatalf("rate-0 control arms disagree: fallback-off goodput %.4f, fallback-on %.4f — fallback must be free without damage",
					off.Goodput, on.Goodput)
			}
			if off.Corruptions != 0 || on.Corruptions != 0 {
				t.Fatalf("rate-0 arms report corruption: off=%d on=%d", off.Corruptions, on.Corruptions)
			}
			continue
		}
		if on.Corruptions == 0 {
			t.Fatalf("%s: nonzero rate injected no corruption", on.Policy)
		}
		t.Logf("rate=%g: goodput off=%.3f (fresh=%d) on=%.3f (fresh=%d, scrub %d/%d)",
			on.CorruptRate, off.Goodput, off.FreshStarts, on.Goodput, on.FreshStarts,
			on.ScrubRepaired, on.ScrubFindings)
		if on.Goodput <= off.Goodput {
			t.Errorf("rate=%g: fallback-on goodput %.4f does not beat fallback-off %.4f",
				on.CorruptRate, on.Goodput, off.Goodput)
		}
	}
}
