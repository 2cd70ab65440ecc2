package harness

import "testing"

// TestBackendsExperiment pins the acceptance property of the tiered
// storage sweep: every backend restarts checksum-correct, the
// burst-buffer tier commits in less virtual time than the direct
// NFS-model path, and the tier row reports the drain lag it traded for
// that speed.
func TestBackendsExperiment(t *testing.T) {
	rows, err := Backends(Options{Fast: 2})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]BackendRow{}
	for _, r := range rows {
		if !r.RestartOK {
			t.Errorf("%s: restart checksum mismatch", r.Backend)
		}
		if r.StoredKB <= 0 {
			t.Errorf("%s: nothing stored", r.Backend)
		}
		byName[r.Backend] = r
	}
	for _, want := range []string{"mem", "fs", "obj", "tier"} {
		if _, ok := byName[want]; !ok {
			t.Fatalf("missing %s row: %v", want, rows)
		}
	}
	fs, tier, obj := byName["fs"], byName["tier"], byName["obj"]
	if tier.CommitVTS >= fs.CommitVTS {
		t.Errorf("burst-buffer commit VT %.1fs not under the NFS-model path's %.1fs", tier.CommitVTS, fs.CommitVTS)
	}
	if obj.CommitVTS >= fs.CommitVTS {
		t.Errorf("object-store commit VT %.1fs not under the NFS-model path's %.1fs", obj.CommitVTS, fs.CommitVTS)
	}
	if tier.DrainLagS <= 0 {
		t.Error("tier row reports no drain lag")
	}
	if fs.DrainLagS != 0 || obj.DrainLagS != 0 {
		t.Errorf("non-tier rows report drain lag: fs=%.1f obj=%.1f", fs.DrainLagS, obj.DrainLagS)
	}
	if tier.Profile != "burstbuffer" || obj.Profile != "objstore" {
		t.Errorf("tier and obj rows charged against %q and %q, want burstbuffer and objstore", tier.Profile, obj.Profile)
	}
}
