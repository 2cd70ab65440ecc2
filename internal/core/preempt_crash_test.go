package mana

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"manasim/internal/faults"
)

// TestCrashDuringPreemptionSweep crashes a rank at every (step, call)
// position while a preemption cut is in flight. Whatever the interleaving
// — crash before the cut's boundary, during the drain, or after the
// commit — the handle's store must hold only complete generations (no
// partial generation ever becomes visible), and a clean follow-up
// segment must finish with the fault-free checksums.
func TestCrashDuringPreemptionSweep(t *testing.T) {
	const implName = "mpich"
	spec, in := batteryInput(t, "lammps", 9)
	appf := spec.New(in)

	cleanCfg := faultCfg(t, implName, nil)
	cleanCfg.SkewBound = 2
	clean, err := RunNative(cleanCfg, in.Ranks, appf)
	if err != nil {
		t.Fatal(err)
	}
	cut := clean.VT * 2 / 5

	for step := 0; step <= in.SimSteps; step++ {
		for _, call := range []int{0, 2} {
			if step == in.SimSteps && call > 0 {
				continue // past the last boundary there are no in-step calls
			}
			t.Run(fmt.Sprintf("step%d_call%d", step, call), func(t *testing.T) {
				cfg := faultCfg(t, implName, nil)
				cfg.SkewBound = 2
				h, err := NewJobHandle(cfg, in.Ranks, appf)
				if err != nil {
					t.Fatal(err)
				}

				inj := faults.NewInjector(in.Ranks, faults.Plan{Events: []faults.Event{
					{Kind: faults.NodeCrash, Rank: step % in.Ranks, Step: step, Call: call},
				}})
				res, segErr := h.RunSegment(Segment{StopAtVT: cut, Label: "victim", Faults: inj})
				if segErr != nil {
					var ce *faults.CrashError
					if !errors.As(segErr, &ce) {
						t.Fatalf("segment failed with a non-crash error: %v", segErr)
					}
					if ce.Job != "victim" {
						t.Fatalf("crash error names job %q, want victim", ce.Job)
					}
				} else if !res.Stopped {
					t.Fatalf("segment neither crashed nor parked at the cut")
				}

				// Store audit: every backend blob must belong to a committed
				// generation or be the manifest — a crash mid-drain must not
				// leak a partial generation.
				store := h.Store()
				gens := store.Generations()
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
						t.Fatalf("orphan blob %q (partial generation) after crash at step %d call %d", k, step, call)
					}
				}

				// Recovery: a clean segment resumes from whatever committed
				// (or launches fresh) and must finish bit-identically.
				rec, err := h.RunSegment(Segment{Label: "victim"})
				if err != nil {
					t.Fatalf("recovery segment: %v", err)
				}
				if rec.Stopped {
					t.Fatal("recovery segment parked without a cut")
				}
				if !reflect.DeepEqual(rec.Stats.Checksums, clean.Checksums) {
					t.Fatalf("post-crash checksums %v, want %v", rec.Stats.Checksums, clean.Checksums)
				}
			})
		}
	}
}

// TestNodeCrashNamesJobAndNodeThroughCore: a node-targeted crash armed
// through a placed segment surfaces a CrashError carrying the owning
// job label and scheduler node, end to end through the core runtime.
func TestNodeCrashNamesJobAndNodeThroughCore(t *testing.T) {
	const implName = "mpich"
	spec, in := batteryInput(t, "lammps", 11)
	appf := spec.New(in)

	cfg := faultCfg(t, implName, nil)
	cfg.SkewBound = 2
	h, err := NewJobHandle(cfg, in.Ranks, appf)
	if err != nil {
		t.Fatal(err)
	}

	placement := make([]int, in.Ranks)
	for r := range placement {
		placement[r] = r / 2 // two ranks per node
	}
	inj := faults.NewInjector(in.Ranks, faults.Plan{Events: []faults.Event{
		{Kind: faults.NodeCrash, OnNode: true, Node: 1, At: time.Millisecond},
	}})
	_, segErr := h.RunSegment(Segment{Label: "hydro-7", Placement: placement, Faults: inj})
	var ce *faults.CrashError
	if !errors.As(segErr, &ce) {
		t.Fatalf("node crash did not surface as CrashError: %v", segErr)
	}
	if ce.Job != "hydro-7" || ce.Node != 1 {
		t.Fatalf("crash error carries job %q node %d, want hydro-7 node 1", ce.Job, ce.Node)
	}
	if ce.Rank/2 != 1 {
		t.Fatalf("crashed rank %d not on node 1", ce.Rank)
	}
}
