package mana

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"manasim/internal/app"
	"manasim/internal/apps"
	"manasim/internal/ckptimg"
	"manasim/internal/ckptstore"
	"manasim/internal/faults"
)

// genCorruptEvents builds keyed StoreCorrupt events naming every rank's
// blob of one generation, so the whole generation is silently damaged
// the moment it is written.
func genCorruptEvents(seq, ranks int, mode faults.CorruptMode) []faults.Event {
	evs := make([]faults.Event, ranks)
	for r := 0; r < ranks; r++ {
		evs[r] = faults.Event{
			Kind: faults.StoreCorrupt,
			Key:  fmt.Sprintf("gen%04d/rank%02d", seq, r),
			Step: -1,
			Mode: mode,
		}
	}
	return evs
}

// buildCorruptChain drives one checkpoint per listed step into st: an
// initial run checkpointing at steps[0], then one restart session per
// further step. Failures are returned, not fatal: the corruption sweep
// treats a typed mid-build commit failure or restart degrade as a
// legitimate outcome.
func buildCorruptChain(t *testing.T, cfg Config, st *ckptstore.Store, steps []int, appSteps int) error {
	t.Helper()
	cfg.Store = st
	cfg.ExitAtCheckpoint = true
	if _, _, err := Run(cfg, st.Ranks(), newRingApp(appSteps), steps[0]); err != nil {
		return err
	}
	for _, at := range steps[1:] {
		s, err := RestartJobFromStore(cfg, st, newRingApp(appSteps))
		if err != nil {
			return err
		}
		s.Co.RequestCheckpointAtStep(at)
		if _, err := s.Wait(); err != nil {
			return err
		}
	}
	return nil
}

// TestRestartFallbackDegradesToOlderGeneration: a silently corrupted
// head generation fails the restart typed with fallback off, and with
// fallback on degrades to the newest verifying generation — reported in
// Stats.RestartGen, counted by the injector, producing the same final
// checksums as an uninterrupted run, and forcing the next checkpoint to
// a full base so nothing deltas onto the damaged head.
func TestRestartFallbackDegradesToOlderGeneration(t *testing.T) {
	const ranks, steps = 4, 10
	clean, _, err := Run(implFactory(t, "mpich"), ranks, newRingApp(steps), -1)
	if err != nil {
		t.Fatal(err)
	}

	inj := faults.NewInjector(ranks, faults.Plan{
		Seed: 7, Events: genCorruptEvents(2, ranks, faults.CorruptFlip),
	})
	st, err := ckptstore.Open(ranks, ckptstore.Options{
		Delta: true, ChunkBytes: 64, WrapBackend: inj.WrapBackend(),
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := implFactory(t, "mpich")
	cfg.Faults = inj
	if err := buildCorruptChain(t, cfg, st, []int{2, 5, 8}, steps); err != nil {
		t.Fatal(err)
	}
	if got := inj.StoreCorruptions(); got != ranks {
		t.Fatalf("injector struck %d keys, want %d (the whole head generation)", got, ranks)
	}

	// Fallback off: the damaged head fails the restart with the typed
	// image-corruption error, exactly as before the fallback existed.
	cfg.ExitAtCheckpoint = false
	if _, err := RestartJobFromStore(cfg, st, newRingApp(steps)); !errors.Is(err, ckptimg.ErrCorrupt) {
		t.Fatalf("fallback off on a corrupt head: %v, want ErrCorrupt", err)
	}

	// Fallback on: degrade to generation 1, checkpoint once more, run
	// to completion.
	cfg.RestartFallback = true
	s, err := RestartJobFromStore(cfg, st, newRingApp(steps))
	if err != nil {
		t.Fatalf("fallback restart: %v", err)
	}
	s.Co.RequestCheckpointAtStep(9)
	rst, err := s.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if rst.RestartGen != 1 {
		t.Fatalf("RestartGen %d, want 1 (the newest verifying generation)", rst.RestartGen)
	}
	if got := inj.StoreCorruptions(); got != ranks {
		t.Fatalf("injector struck %d keys after the restart, want %d", got, ranks)
	}
	sameChecksums(t, clean.Checksums, rst.Checksums, "degraded restart")

	// The checkpoint taken after the fallback must be a fresh full base:
	// a delta against the damaged head would be unreconstructable.
	gens := st.Generations()
	last := gens[len(gens)-1]
	if last.Seq != 3 || !last.Base() {
		t.Fatalf("post-fallback generation %+v, want a full base at seq 3", last)
	}
	cfg.RestartFallback = false
	rst2, err := restartWait(cfg, st, newRingApp(steps))
	if err != nil {
		t.Fatalf("restart from the recovery base: %v", err)
	}
	if rst2.RestartGen != 3 {
		t.Fatalf("recovery restart used generation %d, want 3", rst2.RestartGen)
	}
	sameChecksums(t, clean.Checksums, rst2.Checksums, "recovery-base restart")
}

// TestRestartFallbackSkipsQuarantined: after a scrub quarantines the
// damaged head, fallback-off restarts fail with the quarantine
// sentinel, and fallback-on restarts skip the generation without even
// attempting it.
func TestRestartFallbackSkipsQuarantined(t *testing.T) {
	const ranks, steps = 4, 10
	clean, _, err := Run(implFactory(t, "mpich"), ranks, newRingApp(steps), -1)
	if err != nil {
		t.Fatal(err)
	}

	inj := faults.NewInjector(ranks, faults.Plan{
		Seed: 11, Events: genCorruptEvents(2, ranks, faults.CorruptTorn),
	})
	st, err := ckptstore.Open(ranks, ckptstore.Options{
		Delta: true, ChunkBytes: 64, WrapBackend: inj.WrapBackend(),
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := implFactory(t, "mpich")
	if err := buildCorruptChain(t, cfg, st, []int{2, 5, 8}, steps); err != nil {
		t.Fatal(err)
	}
	rep, err := st.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Healthy() || !st.IsQuarantined(2) {
		t.Fatalf("scrub did not quarantine the damaged head: %s", rep)
	}

	cfg.ExitAtCheckpoint = false
	if _, err := RestartJobFromStore(cfg, st, newRingApp(steps)); !errors.Is(err, ckptstore.ErrQuarantined) {
		t.Fatalf("fallback off on a quarantined head: %v, want ErrQuarantined", err)
	}

	cfg.RestartFallback = true
	rst, err := restartWait(cfg, st, newRingApp(steps))
	if err != nil {
		t.Fatalf("fallback restart: %v", err)
	}
	if rst.RestartGen != 1 {
		t.Fatalf("RestartGen %d, want 1", rst.RestartGen)
	}
	sameChecksums(t, clean.Checksums, rst.Checksums, "quarantine-skip restart")
}

// TestRestartFallbackStopsAtPruned pins the walk's lower boundary: when
// retention has pruned everything older than a corrupt head, the walk
// stops at the pruned generation instead of scanning on, and the error
// names both the stop and the original corruption.
func TestRestartFallbackStopsAtPruned(t *testing.T) {
	const ranks, steps = 4, 10
	inj := faults.NewInjector(ranks, faults.Plan{
		Seed: 13, Events: genCorruptEvents(2, ranks, faults.CorruptTruncate),
	})
	// Full images only: every generation is a base, so RetainBases 1
	// prunes all but the newest after each commit.
	st, err := ckptstore.Open(ranks, ckptstore.Options{
		RetainBases: 1, ChunkBytes: 64, WrapBackend: inj.WrapBackend(),
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := implFactory(t, "mpich")
	if err := buildCorruptChain(t, cfg, st, []int{2, 5, 8}, steps); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.MaterializeStream(0); !errors.Is(err, ckptstore.ErrPruned) {
		t.Fatalf("generation 0 not pruned: %v", err)
	}

	cfg.ExitAtCheckpoint = false
	cfg.RestartFallback = true
	_, err = RestartJobFromStore(cfg, st, newRingApp(steps))
	if err == nil {
		t.Fatal("restarted with the only live generation corrupt")
	}
	if !errors.Is(err, ckptimg.ErrCorrupt) {
		t.Fatalf("walk error does not name the corruption: %v", err)
	}
	if !strings.Contains(err.Error(), "pruned") {
		t.Fatalf("walk did not report stopping at the pruned boundary: %v", err)
	}
}

// TestRestartCorruptionSweepNeverSilent is the PR's acceptance
// property: over flip/truncate/torn damage applied to every blob kind
// the store writes — full base images, delta images, dedup recipes, and
// content-addressed blobs — a corrupted store either scrubs clean,
// degrades to an older verified generation whose completed run matches
// an uninterrupted one bit for bit, or fails with a typed error. It
// never restarts from bit-wrong application state.
func TestRestartCorruptionSweepNeverSilent(t *testing.T) {
	const ranks, steps = 4, 10
	clean, _, err := Run(implFactory(t, "mpich"), ranks, newRingApp(steps), -1)
	if err != nil {
		t.Fatal(err)
	}
	requireTyped := func(t *testing.T, err error) {
		t.Helper()
		var cle *ckptstore.ChainLinkError
		if errors.Is(err, ckptimg.ErrCorrupt) || errors.Is(err, ckptstore.ErrQuarantined) ||
			errors.Is(err, ckptstore.ErrPruned) || errors.As(err, &cle) {
			t.Logf("typed failure: %v", err)
			return
		}
		t.Fatalf("corruption surfaced untyped: %v", err)
	}

	kinds := []struct {
		name string
		opts ckptstore.Options
		plan func(mode faults.CorruptMode) faults.Plan
	}{
		// Keyed events strike the head generation's per-rank blobs: full
		// images, delta images, or dedup recipes depending on the store.
		{"base-image", ckptstore.Options{ChunkBytes: 64},
			func(m faults.CorruptMode) faults.Plan {
				return faults.Plan{Seed: 17, Events: genCorruptEvents(2, ranks, m)}
			}},
		{"delta-image", ckptstore.Options{Delta: true, ChunkBytes: 64},
			func(m faults.CorruptMode) faults.Plan {
				return faults.Plan{Seed: 19, Events: genCorruptEvents(2, ranks, m)}
			}},
		{"dedup-recipe", ckptstore.Options{Delta: true, Dedup: true, ChunkBytes: 64},
			func(m faults.CorruptMode) faults.Plan {
				return faults.Plan{Seed: 23, Events: genCorruptEvents(2, ranks, m)}
			}},
		// A corruption rate strikes content-addressed blob/… keys (and
		// recipes) wherever their seeded hash lands — the only way to
		// target keys that are a function of the data itself.
		{"content-blob", ckptstore.Options{Delta: true, Dedup: true, ChunkBytes: 64},
			func(m faults.CorruptMode) faults.Plan {
				return faults.Plan{Seed: 42, Events: []faults.Event{
					{Kind: faults.StoreCorrupt, Step: -1, Factor: 0.5, Mode: m},
				}}
			}},
	}
	modes := []faults.CorruptMode{faults.CorruptFlip, faults.CorruptTruncate, faults.CorruptTorn}
	for _, kind := range kinds {
		for _, mode := range modes {
			t.Run(kind.name+"/"+mode.String(), func(t *testing.T) {
				inj := faults.NewInjector(ranks, kind.plan(mode))
				opts := kind.opts
				opts.WrapBackend = inj.WrapBackend()
				st, err := ckptstore.Open(ranks, opts)
				if err != nil {
					t.Fatal(err)
				}
				cfg := implFactory(t, "mpich")
				cfg.Faults = inj
				cfg.RestartFallback = true
				if err := buildCorruptChain(t, cfg, st, []int{2, 5, 8}, steps); err != nil {
					// Corruption already ate every restartable
					// generation mid-build; typed is the contract.
					requireTyped(t, err)
					return
				}
				if inj.StoreCorruptions() == 0 {
					t.Fatal("scenario struck nothing; the sweep has no teeth")
				}
				// The service pattern: scrub (repair or quarantine),
				// then restart with fallback.
				if _, err := st.Scrub(); err != nil {
					t.Fatal(err)
				}
				cfg.ExitAtCheckpoint = false
				rst, err := restartWait(cfg, st, newRingApp(steps))
				if err != nil {
					requireTyped(t, err)
					return
				}
				if rst.RestartGen < 0 {
					t.Fatalf("store restart reported RestartGen %d", rst.RestartGen)
				}
				sameChecksums(t, clean.Checksums, rst.Checksums, "post-corruption restart")
			})
		}
	}
}

// refusedSnapApp commits a snapshot on rank 1 that its application's
// Restore refuses: the layout tag is flipped, as if another build wrote
// it.
type refusedSnapApp struct {
	app.Instance
	rank int
}

func (a *refusedSnapApp) Step(env *app.Env, step int) error {
	a.rank = env.Rank
	return a.Instance.Step(env, step)
}

func (a *refusedSnapApp) Snapshot() ([]byte, error) {
	data, err := a.Instance.Snapshot()
	if err == nil && a.rank == 1 {
		data[0] ^= 0xff
	}
	return data, err
}

// TestRestartRefusedSnapshot: ranks restore before the session is
// built, so a generation whose application state the application
// refuses fails the restart up front — typed as the application's
// *apps.SnapshotError, with no session — and with RestartFallback set
// degrades to the previous generation exactly as a chain error does.
func TestRestartRefusedSnapshot(t *testing.T) {
	const ranks = 4
	spec, in := batteryInput(t, "hpcg", 3)
	cfg := faultCfg(t, "mpich", nil)
	native, err := RunNative(cfg, ranks, spec.New(in))
	if err != nil {
		t.Fatal(err)
	}
	st, err := ckptstore.Open(ranks, ckptstore.Options{Delta: true, ChunkBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	stop := cfg
	stop.Store, stop.ExitAtCheckpoint = st, true
	if _, _, err := Run(stop, ranks, spec.New(in), 2); err != nil {
		t.Fatal(err)
	}
	inner := spec.New(in)
	s, err := RestartJobFromStore(stop, st, func() app.Instance { return &refusedSnapApp{Instance: inner()} })
	if err != nil {
		t.Fatal(err)
	}
	s.Co.RequestCheckpointAtStep(4)
	if _, err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	if n := len(st.Generations()); n != 2 {
		t.Fatalf("%d generations committed, want 2", n)
	}

	s, err = RestartJobFromStore(cfg, st, spec.New(in))
	var se *apps.SnapshotError
	if !errors.As(err, &se) {
		t.Fatalf("restart from a refused snapshot: %v, want *apps.SnapshotError", err)
	}
	if s != nil {
		t.Fatal("a session was built over a refused snapshot")
	}
	if !strings.Contains(err.Error(), "rank 1") {
		t.Fatalf("error does not name the refusing rank: %v", err)
	}

	fb := cfg
	fb.RestartFallback = true
	rst, err := restartWait(fb, st, spec.New(in))
	if err != nil {
		t.Fatalf("fallback restart: %v", err)
	}
	if rst.RestartGen != 0 {
		t.Fatalf("RestartGen %d, want 0 (the generation before the refused one)", rst.RestartGen)
	}
	sameChecksums(t, native.Checksums, rst.Checksums, "fallback past a refused snapshot")
}
