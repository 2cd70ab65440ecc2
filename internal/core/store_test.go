package mana

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"manasim/internal/app"
	"manasim/internal/ckpt"
	"manasim/internal/ckptstore"
)

// mustOpenStore opens a checkpoint store whose options are statically
// valid.
func mustOpenStore(n int, o ckptstore.Options) *ckptstore.Store {
	st, err := ckptstore.Open(n, o)
	if err != nil {
		panic(err)
	}
	return st
}

// chainCheckpoints drives a run → checkpoint@s1 → restart →
// checkpoint@s2 chain into st and returns the final restarted run's
// stats.
func chainCheckpoints(t *testing.T, cfg Config, st *ckptstore.Store, factory app.Factory, ranks, s1, s2 int) Stats {
	t.Helper()
	cfg.Store = st
	cfg.ExitAtCheckpoint = true
	if _, _, err := Run(cfg, ranks, factory, s1); err != nil {
		t.Fatalf("generation 0: %v", err)
	}
	s, err := RestartJobFromStore(cfg, st, factory)
	if err != nil {
		t.Fatalf("restart for generation 1: %v", err)
	}
	s.Co.RequestCheckpointAtStep(s2)
	if _, err := s.Wait(); err != nil {
		t.Fatalf("generation 1: %v", err)
	}
	cfg.ExitAtCheckpoint = false
	rst, err := restartWait(cfg, st, factory)
	if err != nil {
		t.Fatalf("final restart: %v", err)
	}
	return rst
}

// TestDeltaChainRoundTripAllImpls is the acceptance property: on every
// simulated MPI implementation, restarting from a materialized
// base+delta chain is bit-identical in application state to restarting
// from a full image at the same generation, and the completed run
// matches an uninterrupted one.
func TestDeltaChainRoundTripAllImpls(t *testing.T) {
	const ranks, steps, s1, s2 = 4, 10, 3, 7
	for _, impl := range []string{"mpich", "craympi", "openmpi", "exampi"} {
		t.Run(impl, func(t *testing.T) {
			cfg := implFactory(t, impl)
			plain, _, err := Run(cfg, ranks, newRingApp(steps), -1)
			if err != nil {
				t.Fatal(err)
			}

			storeOpts := ckptstore.Options{ChunkBytes: 64, ChainCap: 8}
			fullStore := mustOpenStore(ranks, storeOpts)
			storeOpts.Delta = true
			deltaStore := mustOpenStore(ranks, storeOpts)

			chainCheckpoints(t, cfg, fullStore, newRingApp(steps), ranks, s1, s2)
			rst := chainCheckpoints(t, cfg, deltaStore, newRingApp(steps), ranks, s1, s2)
			sameChecksums(t, plain.Checksums, rst.Checksums, impl+" delta-chain restart")

			gens := deltaStore.Generations()
			if len(gens) != 2 {
				t.Fatalf("delta store has %d generations", len(gens))
			}
			if gens[1].Base() {
				t.Fatal("second generation did not go incremental")
			}
			if fullGens := fullStore.Generations(); !fullGens[1].Base() {
				t.Fatal("full store wrote an incremental generation")
			}

			// Bit-identical application state at the same generation,
			// full chain vs materialized base+delta chain.
			fullImgs, _, err := fullStore.MaterializeStream(1)
			if err != nil {
				t.Fatal(err)
			}
			deltaImgs, _, err := deltaStore.MaterializeStream(1)
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < ranks; r++ {
				fi, di := fullImgs[r], deltaImgs[r]
				if !bytes.Equal(fi.AppState, di.AppState) {
					t.Fatalf("rank %d: materialized app state differs from full image", r)
				}
				if fi.Step != di.Step || di.Step != s2 {
					t.Fatalf("rank %d: steps %d/%d, want %d", r, fi.Step, di.Step, s2)
				}
			}
		})
	}
}

// TestBackendsRestartByteIdenticalAllImpls is the tiered-storage
// acceptance property: on every simulated MPI implementation, the
// run → checkpoint → restart → checkpoint → restart chain produces
// byte-identical application state and checksums over every registered
// backend — persistence tiers change where bytes live and what I/O
// costs, never what restarts.
func TestBackendsRestartByteIdenticalAllImpls(t *testing.T) {
	const ranks, steps, s1, s2 = 4, 10, 3, 7
	for _, impl := range []string{"mpich", "craympi", "openmpi", "exampi"} {
		t.Run(impl, func(t *testing.T) {
			cfg := implFactory(t, impl)
			plain, _, err := Run(cfg, ranks, newRingApp(steps), -1)
			if err != nil {
				t.Fatal(err)
			}
			var ref [][]byte // per-rank app state from the first backend
			for _, backend := range []string{"mem", "fs", "obj", "tier"} {
				opts := ckptstore.Options{Backend: backend, Delta: true, ChunkBytes: 64, ChainCap: 8}
				if backend == "fs" || backend == "tier" {
					opts.Dir = t.TempDir()
				}
				st, err := ckptstore.Open(ranks, opts)
				if err != nil {
					t.Fatal(err)
				}
				rst := chainCheckpoints(t, cfg, st, newRingApp(steps), ranks, s1, s2)
				sameChecksums(t, plain.Checksums, rst.Checksums, impl+"/"+backend+" restart")

				imgs, _, err := st.MaterializeStreamHead()
				if err != nil {
					t.Fatal(err)
				}
				states := make([][]byte, ranks)
				for r, img := range imgs {
					states[r] = img.AppState
				}
				if ref == nil {
					ref = states
					continue
				}
				for r := 0; r < ranks; r++ {
					if !bytes.Equal(ref[r], states[r]) {
						t.Fatalf("%s/%s rank %d: restart state differs from the mem backend's", impl, backend, r)
					}
				}
			}
		})
	}
}

// TestTierCommitBeatsNFSModel pins the headline of the backends sweep:
// committing onto the burst-buffer front tier is charged far less
// virtual time than the same checkpoint through the direct NFS model.
func TestTierCommitBeatsNFSModel(t *testing.T) {
	const ranks, steps = 4, 8
	run := func(backend string) Stats {
		t.Helper()
		opts := ckptstore.Options{Backend: backend}
		if backend == "fs" || backend == "tier" {
			opts.Dir = t.TempDir()
		}
		cfg := implFactory(t, "mpich")
		cfg.Store = mustOpenStore(ranks, opts)
		cfg.ExitAtCheckpoint = true
		st, _, err := Run(cfg, ranks, newRingApp(steps), 4)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	nfs, tier := run("fs"), run("tier")
	if tier.VT >= nfs.VT {
		t.Fatalf("tier commit VT %v not under the NFS-model path's %v", tier.VT, nfs.VT)
	}
}

// TestDeltaChainCapForcesBaseUnderMana drives enough generations
// through restarts to hit the chain cap and sees a fresh base appear.
func TestDeltaChainCapForcesBaseUnderMana(t *testing.T) {
	const ranks, steps = 4, 12
	cfg := implFactory(t, "mpich")
	st := mustOpenStore(ranks, ckptstore.Options{Delta: true, ChunkBytes: 64, ChainCap: 2})
	cfg.Store = st
	cfg.ExitAtCheckpoint = true
	if _, _, err := Run(cfg, ranks, newRingApp(steps), 2); err != nil {
		t.Fatal(err)
	}
	for _, at := range []int{4, 6, 8, 10} {
		s, err := RestartJobFromStore(cfg, st, newRingApp(steps))
		if err != nil {
			t.Fatal(err)
		}
		s.Co.RequestCheckpointAtStep(at)
		if _, err := s.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	var kinds []bool
	for _, g := range st.Generations() {
		kinds = append(kinds, g.Base())
	}
	want := []bool{true, false, false, true, false}
	if len(kinds) != len(want) {
		t.Fatalf("generations %v", kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("generation kinds %v, want %v", kinds, want)
		}
	}
	// The deep chain still restarts correctly.
	cfg.ExitAtCheckpoint = false
	rst, err := restartWait(cfg, st, newRingApp(steps))
	if err != nil {
		t.Fatal(err)
	}
	plain, _, err := Run(implFactory(t, "mpich"), ranks, newRingApp(steps), -1)
	if err != nil {
		t.Fatal(err)
	}
	sameChecksums(t, plain.Checksums, rst.Checksums, "chain-cap restart")
}

// ---------------------------------------------------------------------
// fault injection: a rank dying mid-checkpoint must discard the
// generation.

// fragileApp computes locally and fails its snapshot on one rank — the
// moral equivalent of a rank killed between the drain and its image
// write.
type fragileApp struct {
	steps, killRank int
	rank            int
	acc             uint64
}

func newFragileFactory(steps, killRank int) app.Factory {
	return func() app.Instance { return &fragileApp{steps: steps, killRank: killRank} }
}

func (f *fragileApp) Setup(env *app.Env) error { f.rank = env.Rank; return nil }
func (f *fragileApp) Steps() int               { return f.steps }
func (f *fragileApp) Step(env *app.Env, step int) error {
	env.Compute(1000)
	f.acc += uint64(step + 1)
	return nil
}
func (f *fragileApp) Finalize(env *app.Env) error { return nil }
func (f *fragileApp) Checksum() uint64            { return f.acc }
func (f *fragileApp) Snapshot() ([]byte, error) {
	if f.rank == f.killRank {
		return nil, fmt.Errorf("rank %d killed mid-checkpoint", f.rank)
	}
	return []byte{byte(f.acc)}, nil
}
func (f *fragileApp) Restore(b []byte) error { f.acc = uint64(b[0]); return nil }
func (f *fragileApp) FootprintBytes() int64  { return 0 }

func TestKilledRankDiscardsGeneration(t *testing.T) {
	const ranks = 4
	cfg := implFactory(t, "mpich")
	st := mustOpenStore(ranks, ckptstore.Options{Delta: true, ChunkBytes: 64})
	cfg.Store = st

	s, err := StartJob(cfg, ranks, newFragileFactory(8, 2))
	if err != nil {
		t.Fatal(err)
	}
	s.Co.RequestCheckpointAtStep(4)
	if _, err := s.Wait(); err == nil {
		t.Fatal("job survived a rank dying mid-checkpoint")
	}

	// The incomplete generation is reported with the typed error...
	_, err = s.Co.Images()
	var inc *ckpt.IncompleteSetError
	if !errors.As(err, &inc) {
		t.Fatalf("want *IncompleteSetError, got %T: %v", err, err)
	}
	if inc.Want != ranks || inc.Have >= ranks {
		t.Fatalf("error fields %+v", inc)
	}
	// ...and the store never recorded a partial generation.
	if gens := st.Generations(); len(gens) != 0 {
		t.Fatalf("store recorded %d generations from a failed checkpoint", len(gens))
	}
	if _, _, err := st.MaterializeStreamHead(); err == nil {
		t.Fatal("materialized a store with no complete generation")
	}

	// A fresh job over the same store checkpoints cleanly: the failure
	// left no poisoned state behind.
	cfg.ExitAtCheckpoint = true
	if _, _, err := Run(cfg, ranks, newFragileFactory(8, -1), 4); err != nil {
		t.Fatal(err)
	}
	if gens := st.Generations(); len(gens) != 1 || !gens[0].Base() {
		t.Fatalf("recovery generation: %+v", st.Generations())
	}
}
