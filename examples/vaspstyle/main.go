// VASP-style multi-algorithm workload: the motivating case of the
// paper's introduction. VASP (~20% of NERSC CPU time) interleaves
// multiple algorithms with evolving data structures, which defeats both
// application-level checkpointing (a maintenance burden that tracks
// every algorithm change) and library-based checkpointing (which
// assumes one globally synchronized main loop).
//
// The application is internal/apps' tour: electronic-minimization steps
// (collectives on k-point communicators) alternate with
// ionic-relaxation steps (neighbour exchanges through derived
// datatypes), over communicators, groups, datatypes and a user
// reduction it built and partly freed. This program checkpoints it under
// MANA on Cray MPICH before steps of either kind, restarts each
// checkpoint from its job's store alternately on Cray MPICH and on Open
// MPI, and exits non-zero unless every restart ends with the checksums
// of the uninterrupted native run.
//
//	go run ./examples/vaspstyle
package main

import (
	"fmt"
	"log"
	"slices"

	"manasim/internal/apps"
	mana "manasim/internal/core"
	"manasim/internal/impls"
)

func config(impl string) mana.Config {
	f, err := impls.Get(impl)
	if err != nil {
		log.Fatal(err)
	}
	return mana.Config{ImplName: impl, Factory: f, UniformHandles: true}
}

func main() {
	const ranks, steps = 8, 12
	src := config("craympi")
	ref, err := mana.RunNative(src, ranks, apps.NewTour(steps))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("multi-algorithm job (minimization steps alternating with relaxation steps) under MANA/craympi")
	src.ExitAtCheckpoint = true
	for i, at := range []int{2, 5, 8, 11} {
		job, err := mana.StartJob(src, ranks, apps.NewTour(steps))
		if err != nil {
			log.Fatal(err)
		}
		job.Co.RequestCheckpointAtStep(at)
		if _, err := job.Wait(); err != nil {
			log.Fatal(err)
		}
		target := []string{"craympi", "openmpi"}[i%2]
		s, err := mana.RestartJobFromStore(config(target), job.Store(), apps.NewTour(steps))
		if err != nil {
			log.Fatal(err)
		}
		rst, err := s.Wait()
		if err != nil {
			log.Fatal(err)
		}
		if !slices.Equal(ref.Checksums, rst.Checksums) {
			log.Fatalf("restart on %s from step %d diverged from the native run", target, at)
		}
		phase := []string{"minimization", "relaxation"}[at%2]
		fmt.Printf("  checkpoint before step %2d (%s), restart on %-7s: bit-identical to native ✓\n", at, phase, target)
	}
	fmt.Println("transparent checkpointing held across algorithm phases and MPI implementations — no main-loop assumption")
}
