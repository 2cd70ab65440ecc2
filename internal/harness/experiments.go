package harness

import (
	"fmt"
	"sort"

	"manasim/internal/apps"
	"manasim/internal/ckptimg"
	mana "manasim/internal/core"
	"manasim/internal/fsim"
	"manasim/internal/impls"
)

// figureSpec is one of Figures 2-4: bars of implementation x mode per
// application on one site. Within an implementation the native bar
// comes first, so every MANA bar finds its baseline already measured.
type figureSpec struct {
	title, note string
	site        apps.Site
	apps        []string
	bars        []Cell // Impl and Mode of each bar, in legend order
}

// FigureRow is one bar of a figure.
type FigureRow struct {
	App      string  `col:"App,%s"`
	Bar      string  `col:"Bar,%s"`
	RuntimeS float64 `col:"Runtime (s),%.1f"`
	// OverheadPct is the runtime overhead against the native bar of the
	// same implementation (0 for native bars).
	OverheadPct float64 `col:"Overhead,%+.1f%%"`
}

var (
	// figure2 reproduces "Application runtimes of MPI for MPICH versus
	// Open MPI" (five applications, five configurations).
	figure2 = figureSpec{
		title: "Figure 2: Application runtimes, MPICH versus Open MPI (Discovery, no FSGSBASE)",
		note:  "native/MPICH, MANA/MPICH (legacy vid), MANA+virtId/MPICH, native/OMPI, MANA+virtId/OMPI",
		site:  apps.SiteDiscovery,
		apps:  apps.Names(),
		bars: []Cell{
			{Impl: "mpich", Mode: ModeNative},
			{Impl: "mpich", Mode: ModeManaLegacy},
			{Impl: "mpich", Mode: ModeManaVirtID},
			{Impl: "openmpi", Mode: ModeNative},
			{Impl: "openmpi", Mode: ModeManaVirtID},
		},
	}
	// figure3 reproduces "Runtimes for ExaMPI on Discovery" (LULESH and
	// CoMD only: the ExaMPI-compatible subset).
	figure3 = figureSpec{
		title: "Figure 3: Runtimes for ExaMPI on Discovery",
		note:  "ExaMPI runs the compatible subset (LULESH, CoMD); MANA+virtId under ExaMPI is faster than native ExaMPI (Section 6.2)",
		site:  apps.SiteDiscovery,
		apps:  []string{"lulesh", "comd"},
		bars: []Cell{
			{Impl: "mpich", Mode: ModeNative},
			{Impl: "mpich", Mode: ModeManaLegacy},
			{Impl: "mpich", Mode: ModeManaVirtID},
			{Impl: "exampi", Mode: ModeNative},
			{Impl: "exampi", Mode: ModeManaVirtID},
		},
	}
	// figure4 reproduces "Runtimes for Cray MPI on Perlmutter" (CoMD,
	// LAMMPS, SW4 with userspace FSGSBASE).
	figure4 = figureSpec{
		title: "Figure 4: Runtimes for Cray MPI on Perlmutter (userspace FSGSBASE)",
		note:  "with FSGSBASE, MANA and MANA+virtId perform comparably to native execution (~5% or less)",
		site:  apps.SitePerlmutter,
		apps:  []string{"comd", "lammps", "sw4"},
		bars: []Cell{
			{Impl: "craympi", Mode: ModeNative},
			{Impl: "craympi", Mode: ModeManaLegacy},
			{Impl: "craympi", Mode: ModeManaVirtID},
		},
	}
)

// tables runs every bar of the figure, one row per bar.
func (f figureSpec) tables(opts Options) ([]Table, error) {
	var rows []FigureRow
	for _, appName := range f.apps {
		spec, _ := apps.ByName(appName)
		native := map[string]Measurement{}
		for _, bar := range f.bars {
			m, err := RunCell(Cell{App: appName, Impl: bar.Impl, Mode: bar.Mode, Site: f.site}, opts)
			if err != nil {
				return nil, err
			}
			row := FigureRow{App: spec.Paper, Bar: m.Cell.Label(), RuntimeS: m.RuntimeS}
			if bar.Mode == ModeNative {
				native[bar.Impl] = m
			} else {
				row.OverheadPct = m.OverheadPct(native[bar.Impl])
			}
			rows = append(rows, row)
		}
	}
	return []Table{{Title: f.title, Notes: []string{f.note}, Rows: rows}}, nil
}

// Table1Row is one row of Table 1/2 (application inputs).
type Table1Row struct {
	App   string `col:"App.,%s"`
	Ranks int    `col:"Ranks,%d"`
	Input string `col:"Input,%s"`
}

// Table1 reproduces the input table for a site (Table 1: Discovery;
// Table 2: Perlmutter).
func Table1(site apps.Site) []Table1Row {
	names := apps.Names()
	if site == apps.SitePerlmutter {
		names = []string{"comd", "lammps", "sw4"}
	}
	var rows []Table1Row
	for _, n := range names {
		spec, _ := apps.ByName(n)
		in := spec.DefaultInput(site)
		rows = append(rows, Table1Row{App: spec.Paper, Ranks: in.Ranks, Input: spec.InputLine(site)})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].App < rows[j].App })
	return rows
}

// inputTable is the Table 1/2 experiment of a site.
func inputTable(site apps.Site, title string) func(Options) ([]Table, error) {
	return func(Options) ([]Table, error) {
		return []Table{{Title: title, Rows: Table1(site)}}, nil
	}
}

// Table3Row is one row of Table 3 (checkpoint times on Discovery NFS).
type Table3Row struct {
	App        string  `col:"Application,%s"`
	SizeMB     float64 `col:"Ckpt size/rank (MB),%.0f"`
	CkptTimeS  float64 `col:"Ckpt time (s),%.1f"`
	MBPerSRank float64 `col:"MB/s/rank,%.1f"`
}

// Table3 reproduces "Checkpoint times on Discovery": each application
// checkpoints under MANA on MPICH; image sizes combine the real encoded
// upper half with the modeled working set (Table 3 footprints), and
// write time is charged by the NFSv3 model.
func Table3(opts Options) ([]Table3Row, error) {
	opts = opts.normalized()
	fs := fsim.NFSv3()
	order := []string{"comd", "lammps", "sw4", "lulesh", "hpcg"}
	var rows []Table3Row
	for _, name := range order {
		spec, err := apps.ByName(name)
		if err != nil {
			return nil, err
		}
		in := spec.DefaultInput(apps.SiteDiscovery)
		in.SimSteps = max(2, in.SimSteps/opts.Fast)
		factory, err := impls.Get("mpich")
		if err != nil {
			return nil, err
		}
		cfg := mana.Config{ImplName: "mpich", Factory: factory, FS: fs, ExitAtCheckpoint: true}
		_, images, err := mana.Run(cfg, in.Ranks, spec.New(in), in.SimSteps/2)
		if err != nil {
			return nil, fmt.Errorf("table3 %s: %w", name, err)
		}
		// Aggregate per-rank image size: real encoded bytes plus the
		// modeled working set. Only the META section matters here, so
		// the peek never decodes (or decompresses) the app state.
		var total int64
		for _, data := range images {
			img, err := ckptimg.PeekMeta(data)
			if err != nil {
				return nil, err
			}
			total += img.TotalBytes(len(data))
		}
		perRank := total / int64(len(images))
		rows = append(rows, Table3Row{
			App:        spec.Paper,
			SizeMB:     float64(perRank) / (1 << 20),
			CkptTimeS:  fs.WriteCost(perRank).Seconds(),
			MBPerSRank: fs.EffectiveMBps(perRank),
		})
	}
	return rows, nil
}

// CSRow is one entry of the Section 6.3 context-switch analysis.
type CSRow struct {
	App   string `col:"App,%s"`
	Ranks int    `col:"Ranks,%d"`
	// CSPerSec is the cluster-wide crossings per second under MANA.
	CSPerSec float64 `col:"CS/s (M),%.1f,1e-6"`
}

// ContextSwitches reproduces Section 6.3: the per-application
// context-switch rates under MANA+virtId on Discovery.
func ContextSwitches(opts Options) ([]CSRow, error) {
	var rows []CSRow
	for _, name := range apps.Names() {
		spec, _ := apps.ByName(name)
		in := spec.DefaultInput(apps.SiteDiscovery)
		m, err := RunCell(Cell{App: name, Impl: "mpich", Mode: ModeManaVirtID, Site: apps.SiteDiscovery}, opts)
		if err != nil {
			return nil, err
		}
		rows = append(rows, CSRow{App: spec.Paper, Ranks: in.Ranks, CSPerSec: m.CSPerSec})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].CSPerSec > rows[j].CSPerSec })
	return rows, nil
}
