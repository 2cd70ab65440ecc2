package apps

import (
	"testing"
	"time"

	"manasim/internal/app"
	mana "manasim/internal/core"
	"manasim/internal/impls"
	"manasim/internal/mpi"
	"manasim/internal/simtime"
)

// tinyInput shrinks an application to test scale.
func tinyInput(ranks int) Input {
	return Input{
		Ranks: ranks, Steps: 6, SimSteps: 6,
		StepCompute:  50 * time.Microsecond,
		PollsPerStep: 8,
		Local:        4,
		FootprintMB:  1,
		Seed:         42,
	}
}

func cfgFor(t testing.TB, impl string) mana.Config {
	t.Helper()
	f, err := impls.Get(impl)
	if err != nil {
		t.Fatal(err)
	}
	return mana.Config{ImplName: impl, Factory: f, Host: simtime.Discovery()}
}

// stopAndRestart launches an n-rank job under src that checkpoints at
// step and stops there, as after a preemption, then restarts it from
// its store under dst and waits for completion.
func stopAndRestart(t *testing.T, src, dst mana.Config, n int, factory app.Factory, step int) (mana.Stats, error) {
	t.Helper()
	src.ExitAtCheckpoint = true
	s, err := mana.StartJob(src, n, factory)
	if err != nil {
		t.Fatal(err)
	}
	s.Co.RequestCheckpointAtStep(step)
	if _, err := s.Wait(); err != nil {
		t.Fatalf("checkpoint at step %d: %v", step, err)
	}
	rs, err := mana.RestartJobFromStore(dst, s.Store(), factory)
	if err != nil {
		return mana.Stats{}, err
	}
	return rs.Wait()
}

func TestFactor3(t *testing.T) {
	cases := map[int][3]int{
		27: {3, 3, 3},
		64: {4, 4, 4},
		56: {2, 4, 7},
		8:  {2, 2, 2},
		1:  {1, 1, 1},
		7:  {1, 1, 7},
	}
	for p, want := range cases {
		a, b, c := factor3(p)
		if a*b*c != p {
			t.Fatalf("factor3(%d) = %d*%d*%d", p, a, b, c)
		}
		if [3]int{a, b, c} != want {
			t.Errorf("factor3(%d) = (%d,%d,%d), want %v", p, a, b, c, want)
		}
	}
}

func TestDecompNeighbors(t *testing.T) {
	d := NewDecomp3D(13, 27) // center of a 3x3x3 grid
	if d.X != 1 || d.Y != 1 || d.Z != 1 {
		t.Fatalf("center coords %+v", d)
	}
	nb := d.Neighbors()
	for _, r := range nb {
		if r == mpi.ProcNull {
			t.Fatalf("center rank has a null neighbor: %v", nb)
		}
	}
	corner := NewDecomp3D(0, 27)
	cn := corner.Neighbors()
	if cn[0] != mpi.ProcNull || cn[2] != mpi.ProcNull || cn[4] != mpi.ProcNull {
		t.Fatalf("corner lacks null faces: %v", cn)
	}
	pn := corner.NeighborsPeriodic()
	for _, r := range pn {
		if r == mpi.ProcNull {
			t.Fatalf("periodic neighbors must never be null: %v", pn)
		}
	}
	// Reciprocity: my +x neighbor's -x neighbor is me.
	for rank := 0; rank < 27; rank++ {
		d := NewDecomp3D(rank, 27)
		nb := d.NeighborsPeriodic()
		other := NewDecomp3D(nb[1], 27)
		if other.NeighborsPeriodic()[0] != rank {
			t.Fatalf("rank %d: +x/-x not reciprocal", rank)
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"hpcg", "lulesh", "comd", "lammps", "sw4"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("registry %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("registry order %v, want %v", got, want)
		}
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestTable1Inputs(t *testing.T) {
	// The default inputs reproduce Table 1's rank counts.
	wantRanks := map[string]int{"comd": 27, "hpcg": 56, "lammps": 56, "lulesh": 27, "sw4": 56}
	for name, ranks := range wantRanks {
		spec, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		in := spec.DefaultInput(SiteDiscovery)
		if in.Ranks != ranks {
			t.Errorf("%s: %d ranks, want %d (Table 1)", name, in.Ranks, ranks)
		}
		if in.FootprintMB == 0 || in.Steps == 0 || in.StepCompute == 0 {
			t.Errorf("%s: incomplete default input %+v", name, in)
		}
		if spec.InputLine(SiteDiscovery) == "" {
			t.Errorf("%s: missing input line", name)
		}
	}
	// Table 2: Perlmutter runs 64 ranks for CoMD, LAMMPS, SW4.
	for _, name := range []string{"comd", "lammps", "sw4"} {
		spec, _ := ByName(name)
		if in := spec.DefaultInput(SitePerlmutter); in.Ranks != 64 {
			t.Errorf("%s: %d ranks on Perlmutter, want 64 (Table 2)", name, in.Ranks)
		}
	}
}

func TestCompatibilityMatrix(t *testing.T) {
	// Figure 3's constraint: ExaMPI runs only CoMD and LULESH.
	exaCaps := mpi.CapSet(0).With(mpi.FeatCommCreate).With(mpi.FeatUserOps)
	full := mpi.AllFeatures()
	want := map[string]bool{"comd": true, "lulesh": true, "hpcg": false, "lammps": false, "sw4": false}
	for name, compatible := range want {
		spec, _ := ByName(name)
		if got := spec.Compatible(exaCaps); got != compatible {
			t.Errorf("%s compatible with ExaMPI = %v, want %v", name, got, compatible)
		}
		if !spec.Compatible(full) {
			t.Errorf("%s incompatible with a full implementation", name)
		}
	}
}

func TestExtrapolationFactor(t *testing.T) {
	in := Input{Steps: 50000, SimSteps: 400}
	if f := in.ExtrapolationFactor(); f != 125 {
		t.Fatalf("factor %v", f)
	}
	in = Input{Steps: 10}
	if f := in.ExtrapolationFactor(); f != 1 {
		t.Fatalf("unset SimSteps factor %v", f)
	}
}

// runBoth runs an app natively and under MANA and compares checksums.
func runBoth(t *testing.T, appName, impl string, ranks int) {
	t.Helper()
	spec, err := ByName(appName)
	if err != nil {
		t.Fatal(err)
	}
	in := tinyInput(ranks)
	cfg := cfgFor(t, impl)
	native, err := mana.RunNative(cfg, ranks, spec.New(in))
	if err != nil {
		t.Fatalf("%s native/%s: %v", appName, impl, err)
	}
	st, _, err := mana.Run(cfg, ranks, spec.New(in), -1)
	if err != nil {
		t.Fatalf("%s mana/%s: %v", appName, impl, err)
	}
	for r := range native.Checksums {
		if native.Checksums[r] != st.Checksums[r] {
			t.Fatalf("%s on %s: rank %d checksum mismatch", appName, impl, r)
		}
	}
}

func TestAppsNativeVsManaMPICH(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) { runBoth(t, name, "mpich", 8) })
	}
}

func TestAppsNativeVsManaOpenMPI(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) { runBoth(t, name, "openmpi", 8) })
	}
}

func TestCompatibleAppsOnExaMPI(t *testing.T) {
	for _, name := range []string{"comd", "lulesh"} {
		t.Run(name, func(t *testing.T) { runBoth(t, name, "exampi", 8) })
	}
}

func TestIncompatibleAppsFailOnExaMPI(t *testing.T) {
	for _, name := range []string{"hpcg", "lammps", "sw4"} {
		t.Run(name, func(t *testing.T) {
			spec, _ := ByName(name)
			cfg := cfgFor(t, "exampi")
			if _, err := mana.RunNative(cfg, 4, spec.New(tinyInput(4))); err == nil {
				t.Fatalf("%s ran on ExaMPI despite missing features", name)
			}
		})
	}
}

func TestAppsCheckpointRestart(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			spec, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			in := tinyInput(8)
			cfg := cfgFor(t, "mpich")
			plain, _, err := mana.Run(cfg, 8, spec.New(in), -1)
			if err != nil {
				t.Fatal(err)
			}
			rst, err := stopAndRestart(t, cfg, cfgFor(t, "mpich"), 8, spec.New(in), 3)
			if err != nil {
				t.Fatalf("restart: %v", err)
			}
			for r := range plain.Checksums {
				if plain.Checksums[r] != rst.Checksums[r] {
					t.Fatalf("%s: rank %d differs after restart", name, r)
				}
			}
		})
	}
}

func TestLammpsPipelineDrainsAtCheckpoint(t *testing.T) {
	// LAMMPS's pipelined ghost exchange leaves one message in flight
	// per rank at every boundary; a checkpoint must drain them all.
	spec, _ := ByName("lammps")
	in := tinyInput(8)
	// Restart must reproduce the uninterrupted run (drained messages
	// re-delivered through MANA's buffer).
	plain, _, err := mana.Run(cfgFor(t, "mpich"), 8, spec.New(in), -1)
	if err != nil {
		t.Fatal(err)
	}
	rst, err := stopAndRestart(t, cfgFor(t, "mpich"), cfgFor(t, "mpich"), 8, spec.New(in), 3)
	if err != nil {
		t.Fatal(err)
	}
	for r := range plain.Checksums {
		if plain.Checksums[r] != rst.Checksums[r] {
			t.Fatalf("rank %d differs after pipelined restart", r)
		}
	}
}

func TestAppsCrossImplRestart(t *testing.T) {
	// CoMD checkpointed under MPICH restarts under Open MPI — the
	// full generalization of the paper's GROMACS experiment (§3.6/§9).
	spec, _ := ByName("comd")
	in := tinyInput(8)
	src := cfgFor(t, "mpich")
	src.UniformHandles = true
	plain, _, err := mana.Run(src, 8, spec.New(in), -1)
	if err != nil {
		t.Fatal(err)
	}
	rst, err := stopAndRestart(t, src, cfgFor(t, "openmpi"), 8, spec.New(in), 3)
	if err != nil {
		t.Fatal(err)
	}
	for r := range plain.Checksums {
		if plain.Checksums[r] != rst.Checksums[r] {
			t.Fatalf("rank %d differs after cross-impl restart", r)
		}
	}
}

func TestFootprintsMatchTable3(t *testing.T) {
	want := map[string]int{"comd": 32, "lammps": 42, "sw4": 49, "lulesh": 207, "hpcg": 934}
	for name, mb := range want {
		spec, _ := ByName(name)
		in := spec.DefaultInput(SiteDiscovery)
		inst := spec.New(in)()
		if got := inst.FootprintBytes(); got != int64(mb)<<20 {
			t.Errorf("%s footprint %d MB, want %d (Table 3)", name, got>>20, mb)
		}
	}
}
