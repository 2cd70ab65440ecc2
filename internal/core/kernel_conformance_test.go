package mana

import (
	"reflect"
	"testing"

	"manasim/internal/apps"
	"manasim/internal/cluster"
	"manasim/internal/impls"
)

// conformanceStats runs a MANA job with a mid-run checkpoint under the
// given kernel and returns its Stats with the wall-clock field zeroed
// (the only field allowed to differ between kernels).
func conformanceStats(t *testing.T, implName, appName string, seed uint64, kind cluster.KernelKind) Stats {
	t.Helper()
	spec, err := apps.ByName(appName)
	if err != nil {
		t.Fatal(err)
	}
	in := spec.DefaultInput(apps.SiteDiscovery)
	in.Ranks = 8
	in.SimSteps = 6
	in.PollsPerStep = 4
	in.Seed = seed
	factory, err := impls.Get(implName)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{ImplName: implName, Factory: factory, Kernel: kind}
	st, _, err := Run(cfg, in.Ranks, spec.New(in), in.SimSteps/2)
	if err != nil {
		t.Fatalf("%s/%s seed=%d kernel=%v: %v", implName, appName, seed, kind, err)
	}
	if st.CkptTaken != 1 {
		t.Fatalf("%s/%s seed=%d kernel=%v: %d checkpoints, want 1", implName, appName, seed, kind, st.CkptTaken)
	}
	st.Wall = 0
	return st
}

// TestKernelConformanceAllImpls is the cross-kernel oracle: for every
// simulated MPI implementation and several seeds, a checkpointing run
// must produce byte-identical Stats — virtual times, drain cost,
// control-message counts, crossings, and application checksums — under
// the goroutine kernel and the event kernel. The goroutine kernel is
// the conformance reference; any divergence means the event kernel
// changed simulation semantics, not just scheduling.
func TestKernelConformanceAllImpls(t *testing.T) {
	for _, implName := range impls.Names() {
		// ExaMPI runs the compatible subset: CoMD stands in for the
		// pipelined workload there (as in the drain experiment).
		appName := "lammps"
		if implName == "exampi" {
			appName = "comd"
		}
		t.Run(implName, func(t *testing.T) {
			for _, seed := range []uint64{1, 2, 3} {
				gr := conformanceStats(t, implName, appName, seed, cluster.KernelGoroutine)
				ev := conformanceStats(t, implName, appName, seed, cluster.KernelEvent)
				if !reflect.DeepEqual(gr, ev) {
					t.Errorf("seed %d: kernel divergence\n goroutine: %+v\n event:     %+v", seed, gr, ev)
				}
			}
		})
	}
}

// TestEventKernelScale256 is the scale smoke for CI: a 256-rank
// checkpointing run completes on the event kernel in test time.
func TestEventKernelScale256(t *testing.T) {
	if testing.Short() {
		t.Skip("scale smoke")
	}
	spec, err := apps.ByName("lammps")
	if err != nil {
		t.Fatal(err)
	}
	in := spec.DefaultInput(apps.SiteDiscovery)
	in.Ranks = 256
	in.SimSteps = 4
	in.PollsPerStep = 2
	factory, err := impls.Get("mpich")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{ImplName: "mpich", Factory: factory, Kernel: cluster.KernelEvent}
	st, _, err := Run(cfg, in.Ranks, spec.New(in), 2)
	if err != nil {
		t.Fatal(err)
	}
	if st.CkptTaken != 1 || len(st.Checksums) != 256 {
		t.Fatalf("scale smoke stats %+v", st)
	}
}
