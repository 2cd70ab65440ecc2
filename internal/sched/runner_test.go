package sched

import (
	"slices"
	"testing"
	"time"

	"manasim/internal/impls"
)

// testRunner builds a fresh runner, over a store of its own, for a
// 4-rank 12-step job on impl.
func testRunner(t *testing.T, impl string) *runner {
	t.Helper()
	app := "lammps"
	if impl == "exampi" {
		app = "comd" // ExaMPI runs the compatible subset
	}
	s, err := New(testCluster(), Workload{Seed: 42}, "fifo", Options{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.newRunner(Class{Name: "seg", App: app, Impl: impl, Ranks: 4, Steps: 12, Polls: 4}, "seg-"+impl)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestRunnerSegmentsAllImpls proves a job's segment lifecycle on every
// implementation: launch a segment and park it at a preemption cut (a
// checkpoint committed into the job's store), resume and park again,
// then resume to completion — and the final checksums must equal an
// uninterrupted run's exactly.
func TestRunnerSegmentsAllImpls(t *testing.T) {
	for _, impl := range impls.Names() {
		t.Run(impl, func(t *testing.T) {
			base, err := testRunner(t, impl).segment(0)
			if err != nil {
				t.Fatal(err)
			}
			r := testRunner(t, impl)

			// First segment: park at ~30% of the baseline runtime.
			seg1, err := r.segment(base.VT * 3 / 10)
			if err != nil {
				t.Fatalf("segment 1: %v", err)
			}
			if !seg1.Stopped || seg1.RestartGen != -1 {
				t.Fatalf("segment 1 stopped=%v restart-gen=%d, want a fresh stopped segment", seg1.Stopped, seg1.RestartGen)
			}
			if len(r.cfg.Store.Generations()) != 1 {
				t.Fatal("no committed generation after preemption park")
			}

			// Second segment: resume, park again shortly after.
			seg2, err := r.segment(base.VT / 5)
			if err != nil {
				t.Fatalf("segment 2: %v", err)
			}
			if !seg2.Stopped || seg2.RestartGen != 0 {
				t.Fatalf("segment 2 stopped=%v restart-gen=%d, want a stopped segment resumed from gen 0", seg2.Stopped, seg2.RestartGen)
			}
			if len(r.cfg.Store.Generations()) != 2 {
				t.Fatal("second park did not commit a second generation")
			}

			// Third segment: resume to completion.
			seg3, err := r.segment(0)
			if err != nil {
				t.Fatalf("segment 3: %v", err)
			}
			if seg3.Stopped || seg3.RestartGen != 1 {
				t.Fatalf("segment 3 stopped=%v restart-gen=%d, want a completed segment resumed from gen 1", seg3.Stopped, seg3.RestartGen)
			}
			if !slices.Equal(seg3.Checksums, base.Checksums) {
				t.Fatalf("twice-preempted run diverged from uninterrupted run:\n got  %v\n want %v",
					seg3.Checksums, base.Checksums)
			}
		})
	}
}

// TestRunnerStopPastEnd: a preemption cut beyond the job's remaining
// runtime is not an error — the segment simply completes and commits
// nothing.
func TestRunnerStopPastEnd(t *testing.T) {
	r := testRunner(t, "mpich")
	st, err := r.segment(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if st.Stopped {
		t.Fatal("segment stopped despite a cut beyond the job's end")
	}
	if gens := r.cfg.Store.Generations(); len(gens) != 0 {
		t.Fatalf("completed job left %d generations behind", len(gens))
	}
}
