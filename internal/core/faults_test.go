package mana

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"manasim/internal/apps"
	"manasim/internal/faults"
	"manasim/internal/impls"
)

// batteryApp pairs each implementation with a workload it supports
// (ExaMPI runs the compatible subset, as in the drain experiment).
func batteryApp(implName string) string {
	if implName == "exampi" {
		return "comd"
	}
	return "lammps"
}

// faultCfg builds a config with the given injector.
func faultCfg(t *testing.T, implName string, inj *faults.Injector) Config {
	t.Helper()
	factory, err := impls.Get(implName)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		ImplName: implName,
		Factory:  factory,
		Faults:   inj,
	}
}

// batteryInput is the battery's small deterministic workload.
func batteryInput(t *testing.T, appName string, seed uint64) (apps.Spec, apps.Input) {
	t.Helper()
	spec, err := apps.ByName(appName)
	if err != nil {
		t.Fatal(err)
	}
	in := spec.DefaultInput(apps.SiteDiscovery)
	in.Ranks = 4
	in.SimSteps = 6
	in.PollsPerStep = 4
	in.Seed = seed
	return spec, in
}

// batteryPlan is the non-crash fault mix of the determinism battery: a
// straggler window covering the whole run, a transient store fault on a
// first-generation blob, and a silent corruption of another. All three
// are schedule-independent by design — straggler windows live on the
// rank clock, store retry backoff is surfaced in Stats instead of being
// charged to whichever rank commits, and corruption strikes are a pure
// function of (key, seed) regardless of the order of store operations.
func batteryPlan(seed int64) faults.Plan {
	return faults.Plan{
		Seed: seed,
		Events: []faults.Event{
			{Kind: faults.Straggler, Rank: 1, At: 0, Window: time.Hour, Factor: 2, Step: -1},
			{Kind: faults.StoreFault, Key: "gen0000/rank01", Ops: 1, Step: -1},
			{Kind: faults.StoreCorrupt, Key: "gen0000/rank00", Mode: faults.CorruptFlip, Step: -1},
		},
	}
}

// TestFaultBatteryKernelsAndImpls is the multi-seed fault battery: for
// every implementation and seed, a checkpointing run under the fault
// plan retries the transient store fault and records exactly one silent
// corruption. (That the timeline is a pure function of the seed is
// faults' TestTimelineDeterminism.)
// Crashes are excluded here (a torn-down job's surviving-rank clocks are
// teardown noise); the service-level crash determinism check lives in
// the harness tests, and run-to-run byte identity of Stats in
// TestVirtualTimePureFunction.
func TestFaultBatteryKernelsAndImpls(t *testing.T) {
	for _, implName := range impls.Names() {
		t.Run(implName, func(t *testing.T) {
			appName := batteryApp(implName)
			for _, seed := range []int64{7, 21} {
				inj := faults.NewInjector(4, batteryPlan(seed))
				// The session is driven directly rather than through Run:
				// Run hands back the checkpoint's images, and the silently
				// corrupted blob makes the store refuse to resolve them.
				spec, in := batteryInput(t, appName, uint64(seed))
				s, err := StartJob(faultCfg(t, implName, inj), in.Ranks, spec.New(in))
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				s.Co.RequestCheckpointAtStep(in.SimSteps / 2)
				st, err := s.Wait()
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if st.CkptTaken != 1 {
					t.Fatalf("seed %d: %d checkpoints", seed, st.CkptTaken)
				}
				if st.StoreRetries < 1 || st.StoreRetryVT <= 0 {
					t.Fatalf("seed %d: store fault not retried: %+v", seed, st)
				}
				if got := inj.StoreCorruptions(); got != 1 {
					t.Fatalf("seed %d: %d silent corruptions, want 1", seed, got)
				}
			}
		})
	}
}

// TestStragglerSlowsTargetRank: the injected straggler window shows up
// as a strictly larger virtual time on the target rank relative to the
// same run without faults.
func TestStragglerSlowsTargetRank(t *testing.T) {
	spec, in := batteryInput(t, "lammps", 1)
	clean, _, err := Run(faultCfg(t, "mpich", nil), in.Ranks, spec.New(in), -1)
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.NewInjector(4, faults.Plan{Events: []faults.Event{
		{Kind: faults.Straggler, Rank: 2, At: 0, Window: time.Hour, Factor: 8, Step: -1},
	}})
	slow, _, err := Run(faultCfg(t, "mpich", inj), in.Ranks, spec.New(in), -1)
	if err != nil {
		t.Fatal(err)
	}
	if slow.PerRankVT[2] <= clean.PerRankVT[2] {
		t.Fatalf("straggler rank VT %v not above clean %v", slow.PerRankVT[2], clean.PerRankVT[2])
	}
	if !reflect.DeepEqual(slow.Checksums, clean.Checksums) {
		t.Fatal("straggler changed application results")
	}
}

// TestCrashAtEveryStep sweeps a scripted crash across every step
// boundary and an in-step wrapper call, with a checkpoint scheduled
// mid-run: every crash must surface as a typed *faults.CrashError, the
// store must hold only complete generations (every blob accounted to a
// committed generation), and a restart from the store must finish with
// the fault-free checksums.
func TestCrashAtEveryStep(t *testing.T) {
	const implName = "mpich"
	spec, in := batteryInput(t, "lammps", 3)
	appf := spec.New(in)

	clean, err := RunNative(faultCfg(t, implName, nil), in.Ranks, appf)
	if err != nil {
		t.Fatal(err)
	}

	for step := 0; step <= in.SimSteps; step++ {
		for _, call := range []int{0, 2} {
			if step == in.SimSteps && call > 0 {
				continue // past the last boundary there are no in-step calls
			}
			name := fmt.Sprintf("step%d_call%d", step, call)
			t.Run(name, func(t *testing.T) {
				inj := faults.NewInjector(in.Ranks, faults.Plan{Events: []faults.Event{
					{Kind: faults.NodeCrash, Rank: step % in.Ranks, Step: step, Call: call},
				}})
				cfg := faultCfg(t, implName, inj)
				s, err := StartJob(cfg, in.Ranks, appf)
				if err != nil {
					t.Fatal(err)
				}
				s.Co.RequestCheckpointAtStep(3)
				_, werr := s.Wait()
				var ce *faults.CrashError
				if !errors.As(werr, &ce) {
					t.Fatalf("crash did not surface as CrashError: %v", werr)
				}
				if ce.Rank != step%in.Ranks {
					t.Fatalf("crash error names rank %d, want %d", ce.Rank, step%in.Ranks)
				}

				// No partial generations: every backend blob belongs to a
				// committed generation or is the manifest.
				store := s.Store()
				gens := store.Generations()
				if len(gens) != s.Co.Taken() {
					t.Fatalf("store holds %d generations, coordinator took %d", len(gens), s.Co.Taken())
				}
				keys, err := store.Backend().List()
				if err != nil {
					t.Fatal(err)
				}
				valid := map[string]bool{"manifest": true}
				for _, g := range gens {
					for r := 0; r < in.Ranks; r++ {
						valid[fmt.Sprintf("gen%04d/rank%02d", g.Seq, r)] = true
					}
				}
				for _, k := range keys {
					if !valid[k] {
						t.Fatalf("orphan blob %q after crash at %s (partial generation)", k, name)
					}
				}

				// Recovery: resume from the newest complete generation (or
				// start over when the crash predates the first commit) and
				// finish with the fault-free results.
				cfg.Faults = nil
				var rst Stats
				if len(gens) > 0 {
					rst, err = restartWait(cfg, store, appf)
				} else {
					rst, _, err = Run(cfg, in.Ranks, appf, -1)
				}
				if err != nil {
					t.Fatalf("recovery after crash at %s: %v", name, err)
				}
				if !reflect.DeepEqual(rst.Checksums, clean.Checksums) {
					t.Fatalf("post-restart checksums %v, want %v", rst.Checksums, clean.Checksums)
				}
			})
		}
	}
}

// TestCrashRecoveryAllImpls: one mid-run crash per implementation,
// recovered from the store; the restarted state must be byte-identical
// to the fault-free run of the same implementation, and across the
// implementations that share a workload the application checksums must
// agree too.
func TestCrashRecoveryAllImpls(t *testing.T) {
	lammpsChecksums := map[string][]uint64{}
	for _, implName := range impls.Names() {
		t.Run(implName, func(t *testing.T) {
			appName := batteryApp(implName)
			spec, in := batteryInput(t, appName, 5)
			appf := spec.New(in)

			clean, err := RunNative(faultCfg(t, implName, nil), in.Ranks, appf)
			if err != nil {
				t.Fatal(err)
			}

			inj := faults.NewInjector(in.Ranks, faults.Plan{Events: []faults.Event{
				{Kind: faults.NodeCrash, Rank: 1, Step: 4, Call: 1},
			}})
			cfg := faultCfg(t, implName, inj)
			s, err := StartJob(cfg, in.Ranks, appf)
			if err != nil {
				t.Fatal(err)
			}
			s.Co.RequestCheckpointAtStep(2)
			_, werr := s.Wait()
			var ce *faults.CrashError
			if !errors.As(werr, &ce) {
				t.Fatalf("crash did not surface: %v", werr)
			}
			cfg.Faults = nil
			rst, err := restartWait(cfg, s.Store(), appf)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rst.Checksums, clean.Checksums) {
				t.Fatalf("post-restart checksums %v, want %v", rst.Checksums, clean.Checksums)
			}
			if appName == "lammps" {
				lammpsChecksums[implName] = rst.Checksums
			}
		})
	}
	var ref []uint64
	var refImpl string
	for implName, sums := range lammpsChecksums {
		if ref == nil {
			ref, refImpl = sums, implName
			continue
		}
		if !reflect.DeepEqual(sums, ref) {
			t.Errorf("post-restart state diverges across impls: %s %v vs %s %v", implName, sums, refImpl, ref)
		}
	}
}
