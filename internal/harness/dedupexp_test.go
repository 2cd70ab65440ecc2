package harness

import "testing"

// TestDedupHpcg64Shrinks pins the headline acceptance property of the
// content-addressed store: on 64-rank HPCG — whose assembled stencil
// matrix is identical on every rank — the dedup store holds at least
// 30% fewer bytes than the plain store at equal ChainCap, with the
// restart still checksum-identical to an uninterrupted run.
func TestDedupHpcg64Shrinks(t *testing.T) {
	row, err := dedupCell("hpcg", 64, "none", 2)
	if err != nil {
		t.Fatal(err)
	}
	if !row.RestartOK {
		t.Fatal("dedup restart checksum mismatch")
	}
	if row.SavedPct < 30 {
		t.Fatalf("dedup saved %.1f%% of %0.1fKB stored bytes, want >= 30%%", row.SavedPct, row.StoredKB)
	}
	if row.Ratio <= 1 || row.SharedRefs == 0 {
		t.Fatalf("no sharing on rank-identical stencil state: ratio=%.2f shared=%d", row.Ratio, row.SharedRefs)
	}
	// Commit virtual time is a max over ranks, and lowest-rank-pays
	// attribution still charges rank 0 one full image's worth of unique
	// bytes at generation 0 — dedup wins stored bytes and later
	// generations, not the first commit's critical path. It must simply
	// not degrade it materially (the charge lands after the barrier, so
	// it no longer overlaps barrier skew).
	if row.DedupCommitVTS > row.CommitVTS*1.1 {
		t.Errorf("dedup commit VT %.2fs more than 10%% above the plain store's %.2fs", row.DedupCommitVTS, row.CommitVTS)
	}
}

// TestDedupSweepRendering runs one small fast-lz cell of the sweep: its
// restart must be checksum-identical.
func TestDedupSweepRendering(t *testing.T) {
	row, err := dedupCell("comd", 8, "fast-lz", 2)
	if err != nil {
		t.Fatal(err)
	}
	if !row.RestartOK {
		t.Fatal("fast-lz dedup restart checksum mismatch")
	}
}
