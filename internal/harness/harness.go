// Package harness reproduces the paper's evaluation (Section 6) and the
// ablations built on it. Every figure and table is an Experiment in one
// registry (Experiments): it runs the proxy applications natively and
// under MANA across the simulated MPI implementations, once per cell,
// and returns Tables of typed rows — one row per bar for the figures.
// One renderer prints any Table as text (Render, columns from the rows'
// `col` tags), and encoding/json writes it as JSON. Each experiment's
// tables at Options{Fast: 2} are pinned by testdata/golden/<name>.json
// (TestGoldenExperiments; wall-clock fields are zeroed there).
//
// Absolute native runtimes are calibrated (the simulator does not model
// Xeon or EPYC microarchitecture); every relative quantity — MANA
// overhead, virtId-vs-legacy deltas, FSGSBASE effects, checkpoint-time
// trends, context-switch ordering — emerges from executing the real
// wrapper, virtual-id, and drain mechanisms. The calibration factors
// (computeFactor) are fitted to the paper's own bars (ROADMAP item 6).
package harness

import (
	"fmt"
	"time"

	"manasim/internal/app"
	"manasim/internal/apps"
	"manasim/internal/ckptstore"
	mana "manasim/internal/core"
	"manasim/internal/fsim"
	"manasim/internal/impls"
	"manasim/internal/simtime"

	// The harness runs checkpointing cells; wire in the drain
	// strategies explicitly rather than relying on transitive imports.
	_ "manasim/internal/ckpt/drain"
)

// Mode selects the execution configuration of one bar in a figure.
type Mode int

// Modes.
const (
	// ModeNative runs the application directly on the MPI library.
	ModeNative Mode = iota
	// ModeManaLegacy runs under MANA with the pre-paper vid design.
	ModeManaLegacy
	// ModeManaVirtID runs under MANA with the paper's new design.
	ModeManaVirtID
)

// String names the mode as the figures' legends do.
func (m Mode) String() string {
	switch m {
	case ModeNative:
		return "native"
	case ModeManaLegacy:
		return "MANA"
	case ModeManaVirtID:
		return "MANA+virtId"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Cell identifies one measurement: application x implementation x mode
// on a site.
type Cell struct {
	App  string
	Impl string
	Mode Mode
	Site apps.Site
}

// Label renders the cell as the figures label their bars.
func (c Cell) Label() string {
	impl := c.Impl
	if impl == "openmpi" {
		impl = "OMPI"
	}
	return fmt.Sprintf("%s/%s", c.Mode, impl)
}

// Measurement is the result of one cell.
type Measurement struct {
	Cell Cell
	// RuntimeS is the extrapolated virtual runtime in seconds — the bar
	// height in Figures 2-4.
	RuntimeS float64
	// CSPerSec is the cluster-wide context-switch (fs-register
	// crossing) rate, Section 6.3's metric. Zero for native runs.
	CSPerSec float64
}

// OverheadPct returns the runtime overhead of m relative to a native
// baseline measurement.
func (m Measurement) OverheadPct(native Measurement) float64 {
	if native.RuntimeS == 0 {
		return 0
	}
	return (m.RuntimeS - native.RuntimeS) / native.RuntimeS * 100
}

// Options controls harness execution.
type Options struct {
	// Fast divides each application's SimSteps to shorten runs
	// (1 = calibrated defaults).
	Fast int
	// Logf, when set, receives one progress line per cell.
	Logf func(format string, args ...any)
}

func (o Options) normalized() Options {
	if o.Fast <= 0 {
		o.Fast = 1
	}
	return o
}

// computeFactor calibrates native per-implementation performance
// differences. The factors are fitted to the bars they reproduce —
// Figure 2's native/OMPI and Figure 3's native/ExaMPI — so those cells
// match the paper by construction (ROADMAP item 6).
func computeFactor(appName, impl string) float64 {
	switch impl {
	case "openmpi":
		switch appName {
		case "hpcg":
			return 0.954 // 166s vs 174s: OMPI faster on HPCG
		case "lulesh":
			return 0.942 // 163s vs 173s
		case "comd":
			return 1.570 // 51.5s vs 32.8s
		case "lammps":
			return 1.228 // 35.5s vs 28.9s
		case "sw4":
			return 1.233 // 110s vs 89.2s
		}
	case "exampi":
		// Native ExaMPI pays the per-resolution cost mechanically; the
		// residual gap is compute-side calibration.
		switch appName {
		case "comd":
			return 1.227 // 44.0s total native (Fig. 3)
		case "lulesh":
			return 1.005 // 187.4s total native (Fig. 3)
		}
	}
	return 1
}

// pollFactor models the higher wrapper-call traffic MANA generates on
// implementations with slower network calls (Section 6.1: more internal
// MPI_Test polling under Open MPI).
func pollFactor(impl string) float64 {
	if impl == "openmpi" {
		return 1.3
	}
	return 1
}

// hostFor returns the host profile of a site.
func hostFor(site apps.Site) simtime.HostProfile {
	if site == apps.SitePerlmutter {
		return simtime.Perlmutter()
	}
	return simtime.Discovery()
}

// RunCell executes one cell once. The paper takes medians over 10
// (Discovery) and 25 (Perlmutter) trials because real hardware is
// noisy; here virtual time is a pure function of (config, seed), so a
// second run could only repeat the first. TestVirtualTimePureFunction
// and the goldens' run on two GOMAXPROCS (make determinism) hold it to
// that.
func RunCell(cell Cell, opts Options) (Measurement, error) {
	spec, err := apps.ByName(cell.App)
	if err != nil {
		return Measurement{}, err
	}
	factory, err := impls.Get(cell.Impl)
	if err != nil {
		return Measurement{}, err
	}

	in := spec.DefaultInput(cell.Site)
	in.ComputeFactor = computeFactor(cell.App, cell.Impl)
	if cell.Mode != ModeNative {
		in.PollFactor = pollFactor(cell.Impl)
	}
	if opts.Fast > 1 {
		in.SimSteps = max(1, in.SimSteps/opts.Fast)
	}
	extra := in.ExtrapolationFactor()

	cfg := mana.Config{
		ImplName: cell.Impl,
		Factory:  factory,
		Host:     hostFor(cell.Site),
		FS:       fsim.NFSv3(),
	}
	switch cell.Mode {
	case ModeManaLegacy:
		cfg.Design = mana.DesignLegacy
	case ModeManaVirtID:
		cfg.Design = mana.DesignVirtID
	}

	var st mana.Stats
	if cell.Mode == ModeNative {
		st, err = mana.RunNative(cfg, in.Ranks, spec.New(in))
	} else {
		st, err = mana.RunStats(cfg, in.Ranks, spec.New(in), -1)
	}
	if err != nil {
		return Measurement{}, fmt.Errorf("%s: %w", cell.Label(), err)
	}
	m := Measurement{Cell: cell, RuntimeS: st.VT.Seconds() * extra}
	if cell.Mode != ModeNative && m.RuntimeS > 0 {
		m.CSPerSec = float64(st.Crossings) * extra / m.RuntimeS
	}
	if opts.Logf != nil {
		opts.Logf("%s %s: %.1fs (wall %v)", cell.App, cell.Label(), m.RuntimeS, st.Wall.Round(time.Millisecond))
	}
	return m, nil
}

// chainRun is what runChain reports: the statistics of the launch
// segment, which ran up to and including the first checkpoint, and of
// the final restart, with the chains that restart resolved.
type chainRun struct {
	first, last mana.Stats
	chains      []ckptstore.ChainStats
}

// runChain drives a job along a checkpoint chain over st: it launches,
// checkpoints at steps[0] and stops (preemption); for each later step
// it restarts from the store, checkpoints there and stops; then it
// restarts from the store once more and runs to completion.
func runChain(cfg mana.Config, st *ckptstore.Store, factory app.Factory, steps ...int) (chainRun, error) {
	var out chainRun
	cfg.Store, cfg.ExitAtCheckpoint = st, true
	for i, at := range steps {
		var s *mana.Session
		var err error
		if i == 0 {
			s, err = mana.StartJob(cfg, st.Ranks(), factory)
		} else {
			s, err = mana.RestartJobFromStore(cfg, st, factory)
		}
		if err != nil {
			return chainRun{}, fmt.Errorf("checkpoint at step %d: %w", at, err)
		}
		s.Co.RequestCheckpointAtStep(at)
		st, err := s.Wait()
		if err != nil {
			return chainRun{}, fmt.Errorf("checkpoint at step %d: %w", at, err)
		}
		if i == 0 {
			out.first = st
		}
	}
	cfg.ExitAtCheckpoint = false
	s, err := mana.RestartJobFromStore(cfg, st, factory)
	if err == nil {
		out.chains = s.RestartChains()
		out.last, err = s.Wait()
	}
	if err != nil {
		return chainRun{}, fmt.Errorf("final restart: %w", err)
	}
	return out, nil
}
