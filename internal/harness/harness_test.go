package harness

import (
	"math"
	"testing"

	"manasim/internal/apps"
)

// fastOpts keeps test turnaround short.
var fastOpts = Options{Fast: 2}

func TestRunCellNativeVsMana(t *testing.T) {
	native, err := RunCell(Cell{App: "lammps", Impl: "mpich", Mode: ModeNative, Site: apps.SiteDiscovery}, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	manaM, err := RunCell(Cell{App: "lammps", Impl: "mpich", Mode: ModeManaVirtID, Site: apps.SiteDiscovery}, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	if native.CSPerSec != 0 {
		t.Error("native run reported context switches")
	}
	if manaM.CSPerSec == 0 {
		t.Error("MANA run reported no context switches")
	}
	over := manaM.OverheadPct(native)
	// LAMMPS on Discovery (Figure 2): the paper reports ~32%.
	if over < 29 || over > 35 {
		t.Errorf("LAMMPS MANA overhead %.1f%%, paper reports ~32%% (tolerance 3 pp)", over)
	}
}

func TestFigure4OverheadLowWithFSGSBASE(t *testing.T) {
	native, err := RunCell(Cell{App: "lammps", Impl: "craympi", Mode: ModeNative, Site: apps.SitePerlmutter}, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	m, err := RunCell(Cell{App: "lammps", Impl: "craympi", Mode: ModeManaVirtID, Site: apps.SitePerlmutter}, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	over := m.OverheadPct(native)
	if over < 2 || over > 8 {
		t.Errorf("Perlmutter LAMMPS overhead %.1f%%, paper reports ~5%% (tolerance 3 pp)", over)
	}
}

// TestVidDesignGapMatchesPaper checks Section 6.1's new-vs-legacy claim
// on every Figure 2 row: the single-table design is never slower than
// the legacy maps, and the largest improvement is a small positive
// fraction of runtime (paper: "up to 1.6%"). Nothing fits the gap — it
// is the translation table's per-lookup difference times the call count.
func TestVidDesignGapMatchesPaper(t *testing.T) {
	maxGap := 0.0
	for _, appName := range apps.Names() {
		legacy, err := RunCell(Cell{App: appName, Impl: "mpich", Mode: ModeManaLegacy, Site: apps.SiteDiscovery}, fastOpts)
		if err != nil {
			t.Fatal(err)
		}
		virtID, err := RunCell(Cell{App: appName, Impl: "mpich", Mode: ModeManaVirtID, Site: apps.SiteDiscovery}, fastOpts)
		if err != nil {
			t.Fatal(err)
		}
		if virtID.RuntimeS > legacy.RuntimeS {
			t.Errorf("%s: virtId %.3fs slower than legacy %.3fs", appName, virtID.RuntimeS, legacy.RuntimeS)
		}
		gap := (legacy.RuntimeS - virtID.RuntimeS) / virtID.RuntimeS * 100
		t.Logf("%s: legacy %.3fs, virtId %.3fs, gap %.2f%%", appName, legacy.RuntimeS, virtID.RuntimeS, gap)
		maxGap = math.Max(maxGap, gap)
	}
	if maxGap <= 0 || maxGap > 2 {
		t.Errorf("largest virtId-vs-legacy gap %.2f%% of runtime, paper reports up to 1.6%% (accepted: (0, 2])", maxGap)
	}
}

func TestTable1Rows(t *testing.T) {
	rows := Table1(apps.SiteDiscovery)
	if len(rows) != 5 {
		t.Fatalf("Table 1 rows: %d", len(rows))
	}
	rows2 := Table1(apps.SitePerlmutter)
	if len(rows2) != 3 {
		t.Fatalf("Table 2 rows: %d", len(rows2))
	}
	for _, r := range rows2 {
		if r.Ranks != 64 {
			t.Errorf("Perlmutter row %s has %d ranks", r.App, r.Ranks)
		}
	}
	if rows[0].App != "CoMD" || rows[0].Input != "-N 10000" {
		t.Errorf("Table 1 first row %+v, want CoMD with -N 10000", rows[0])
	}
}

func TestTable3TrendsMatchPaper(t *testing.T) {
	rows, err := Table3(Options{Fast: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	byApp := map[string]Table3Row{}
	for _, r := range rows {
		byApp[r.App] = r
	}
	// Size ordering from Table 3: CoMD < LAMMPS < SW4 < Lulesh < HPCG.
	order := []string{"CoMD", "LAMMPS", "SW4", "Lulesh-2", "HPCG"}
	for i := 1; i < len(order); i++ {
		if byApp[order[i]].SizeMB <= byApp[order[i-1]].SizeMB {
			t.Errorf("size ordering broken at %s", order[i])
		}
		if byApp[order[i]].CkptTimeS <= byApp[order[i-1]].CkptTimeS {
			t.Errorf("checkpoint time ordering broken at %s", order[i])
		}
		if byApp[order[i]].MBPerSRank <= byApp[order[i-1]].MBPerSRank {
			t.Errorf("MB/s/rank trend broken at %s", order[i])
		}
	}
	// Coarse absolute anchors (Table 3: CoMD 8.9s, HPCG 72.9s).
	if c := byApp["CoMD"].CkptTimeS; math.Abs(c-8.9) > 3 {
		t.Errorf("CoMD checkpoint %.1fs, paper 8.9s", c)
	}
	if c := byApp["HPCG"].CkptTimeS; math.Abs(c-72.9) > 12 {
		t.Errorf("HPCG checkpoint %.1fs, paper 72.9s", c)
	}
}

func TestModeAndCellLabels(t *testing.T) {
	c := Cell{App: "comd", Impl: "openmpi", Mode: ModeManaVirtID}
	if c.Label() != "MANA+virtId/OMPI" {
		t.Fatalf("label %q", c.Label())
	}
	if ModeNative.String() != "native" || ModeManaLegacy.String() != "MANA" {
		t.Fatal("mode names changed")
	}
}

func TestComputeFactors(t *testing.T) {
	// OMPI is faster natively on HPCG/LULESH and slower on the MD and
	// stencil codes (Figure 2's native bars).
	if computeFactor("hpcg", "openmpi") >= 1 || computeFactor("lulesh", "openmpi") >= 1 {
		t.Error("OMPI should be faster on HPCG/LULESH")
	}
	for _, a := range []string{"comd", "lammps", "sw4"} {
		if computeFactor(a, "openmpi") <= 1 {
			t.Errorf("OMPI should be slower on %s", a)
		}
	}
	if computeFactor("comd", "mpich") != 1 {
		t.Error("MPICH is the baseline")
	}
}
