package harness

import "testing"

// TestDeltaExperimentSavesBytes pins the acceptance property of the
// incremental tier: every chained restart is checksum-correct, and on
// at least one application (HPCG, whose stored matrix is static bulk)
// the delta generation writes fewer bytes than the full one.
func TestDeltaExperimentSavesBytes(t *testing.T) {
	rows, err := DeltaImages(Options{Fast: 2})
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]DeltaRow{}
	for _, r := range rows {
		if !r.RestartOK {
			t.Errorf("%s/%s: restart checksum mismatch", r.App, r.Mode)
		}
		byKey[r.App+"/"+r.Mode] = r
	}
	full, ok1 := byKey["HPCG/full"]
	delta, ok2 := byKey["HPCG/delta"]
	if !ok1 || !ok2 {
		t.Fatalf("missing HPCG rows: %v", rows)
	}
	if delta.IncrKB >= full.IncrKB {
		t.Fatalf("HPCG delta generation (%.1f KB) not smaller than full (%.1f KB)", delta.IncrKB, full.IncrKB)
	}
	// Base generations are full either way and should be near-identical.
	if delta.BaseKB < full.BaseKB*0.9 || delta.BaseKB > full.BaseKB*1.1 {
		t.Fatalf("base generations diverge: %.1f vs %.1f KB", delta.BaseKB, full.BaseKB)
	}
}

// TestDrainTelemetryReported checks that the drain experiment surfaces
// protocol cost: nonzero drain VT and control-message counts.
func TestDrainTelemetryReported(t *testing.T) {
	rows, err := DrainStrategies(Options{Fast: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.CtlMsgs == 0 {
			t.Errorf("%s/%s: no control messages counted", r.Impl, r.Strategy)
		}
		if r.DrainVTS <= 0 {
			t.Errorf("%s/%s: no drain virtual time", r.Impl, r.Strategy)
		}
	}
}
