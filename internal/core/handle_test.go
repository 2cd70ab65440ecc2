package mana

import (
	"reflect"
	"testing"
	"time"

	"manasim/internal/impls"
)

// TestJobHandleSegmentsAllImpls proves the handle's reentrant
// lifecycle on every implementation: launch a
// segment, park it at a preemption cut (checkpoint committed into the
// handle's store), resume and park again, then resume to completion —
// and the final checksums must equal an uninterrupted run's exactly.
func TestJobHandleSegmentsAllImpls(t *testing.T) {
	for _, implName := range impls.Names() {
		t.Run(implName, func(t *testing.T) {
			spec, in := batteryInput(t, batteryApp(implName), 42)
			cfg := faultCfg(t, implName, nil)
			// A 6-step job needs a tight skew bound, or the async
			// boundary agreement clamps every cut to the final step.
			cfg.SkewBound = 2

			// Uninterrupted baseline.
			base, _, err := Run(cfg, in.Ranks, spec.New(in), -1)
			if err != nil {
				t.Fatal(err)
			}

			h, err := NewJobHandle(cfg, in.Ranks, spec.New(in))
			if err != nil {
				t.Fatal(err)
			}
			if h.Resumable() {
				t.Fatal("fresh handle claims to be resumable")
			}

			// Segment 1: park at ~30% of the baseline runtime.
			seg1, err := h.RunSegment(Segment{StopAtVT: base.VT * 3 / 10})
			if err != nil {
				t.Fatalf("segment 1: %v", err)
			}
			if !seg1.Stopped || seg1.Resumed {
				t.Fatalf("segment 1 = %+v, want fresh stopped segment", seg1)
			}
			if !h.Resumable() || len(h.store.Generations()) != 1 {
				t.Fatalf("no committed generation after preemption park")
			}

			// Segment 2: resume, park again shortly after.
			seg2, err := h.RunSegment(Segment{StopAtVT: base.VT / 5})
			if err != nil {
				t.Fatalf("segment 2: %v", err)
			}
			if !seg2.Stopped || !seg2.Resumed || seg2.RestartGen != 0 {
				t.Fatalf("segment 2 = %+v, want resumed stopped segment from gen 0", seg2)
			}
			if len(h.store.Generations()) != 2 {
				t.Fatalf("second park did not commit a second generation")
			}

			// Segment 3: resume to completion.
			seg3, err := h.RunSegment(Segment{})
			if err != nil {
				t.Fatalf("segment 3: %v", err)
			}
			if seg3.Stopped || !seg3.Resumed || seg3.RestartGen != 1 {
				t.Fatalf("segment 3 = %+v, want completed segment from gen 1", seg3)
			}
			if !reflect.DeepEqual(seg3.Stats.Checksums, base.Checksums) {
				t.Fatalf("twice-preempted run diverged from uninterrupted run:\n got  %v\n want %v",
					seg3.Stats.Checksums, base.Checksums)
			}
		})
	}
}

// TestJobHandleStopPastEnd: a preemption cut beyond the job's remaining
// runtime is not an error — the segment simply completes.
func TestJobHandleStopPastEnd(t *testing.T) {
	spec, in := batteryInput(t, "lammps", 7)
	h, err := NewJobHandle(faultCfg(t, "mpich", nil), in.Ranks, spec.New(in))
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.RunSegment(Segment{StopAtVT: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stopped {
		t.Fatalf("segment stopped despite cut beyond job end: %+v", res)
	}
	if h.Resumable() {
		t.Fatal("completed job left a generation behind")
	}
}
