package apps

import (
	"fmt"
	"time"

	"manasim/internal/app"
	"manasim/internal/mpi"
)

// Site selects the input sets of the paper's two testbeds.
type Site int

// Sites.
const (
	// SiteDiscovery is the local cluster of Table 1 (single node,
	// 27- and 56-rank jobs, no userspace FSGSBASE).
	SiteDiscovery Site = iota
	// SitePerlmutter is the production system of Table 2 (64-rank
	// jobs, userspace FSGSBASE).
	SitePerlmutter
)

// String names the site.
func (s Site) String() string {
	if s == SitePerlmutter {
		return "perlmutter"
	}
	return "discovery"
}

// Input parameterizes one application run. The calibration fields map
// the miniature kernels onto the paper's measured native runtimes; the
// structural fields (ranks, steps, message sizes, call mix) are taken
// from the applications themselves.
type Input struct {
	// Ranks is the job size (Table 1/2).
	Ranks int
	// Steps is the production iteration count the paper ran.
	Steps int
	// SimSteps is how many iterations the simulator executes; the
	// harness extrapolates virtual time and call counts to Steps.
	// Zero means run all Steps.
	SimSteps int
	// StepCompute is the calibrated per-step compute time of the
	// original application on the native/MPICH baseline.
	StepCompute time.Duration
	// ComputeFactor scales StepCompute for a different MPI
	// implementation's native performance (Figure 2's native/OMPI and
	// Figure 3's native/ExaMPI bars, to which harness.computeFactor fits
	// it).
	ComputeFactor float64
	// PollsPerStep is the per-rank progress-poll (MPI_Iprobe) count per
	// step, calibrated from the paper's Section 6.3 context-switch
	// rates and Figure 2/4 overheads.
	PollsPerStep int
	// PollFactor scales polling for implementations whose slower
	// network calls cause more MANA context switches (Section 6.1's
	// OMPI observation).
	PollFactor float64
	// Local is the per-rank problem dimension (cells or atoms scale).
	Local int
	// FootprintMB is the Table 3 checkpoint payload per rank.
	FootprintMB int
	// Seed perturbs initial conditions deterministically.
	Seed uint64
}

// normalized fills derived defaults.
func (in Input) normalized() Input {
	if in.SimSteps <= 0 || in.SimSteps > in.Steps {
		in.SimSteps = in.Steps
	}
	if in.ComputeFactor == 0 {
		in.ComputeFactor = 1
	}
	if in.PollFactor == 0 {
		in.PollFactor = 1
	}
	if in.Local <= 0 {
		in.Local = 8
	}
	return in
}

// ExtrapolationFactor is Steps/SimSteps: the harness multiplies
// measured per-run virtual time and call counts by it.
func (in Input) ExtrapolationFactor() float64 {
	n := in.normalized()
	return float64(n.Steps) / float64(n.SimSteps)
}

// EffectiveSimSteps is the number of steps a run actually executes.
func (in Input) EffectiveSimSteps() int { return in.normalized().SimSteps }

// stepCompute returns the per-step compute charge for this run.
func (in Input) stepCompute() time.Duration {
	return time.Duration(float64(in.StepCompute) * in.ComputeFactor)
}

// polls returns the per-step poll count for this run.
func (in Input) polls() int {
	return int(float64(in.PollsPerStep) * in.PollFactor)
}

// Spec describes one application in the registry.
type Spec struct {
	// Name is the application name ("comd", "hpcg", ...).
	Name string
	// Paper is the display name used in the figures.
	Paper string
	// Requires lists optional MPI features the application needs; an
	// implementation lacking one is incompatible (Figure 3 runs only
	// CoMD and LULESH on ExaMPI for this reason).
	Requires []mpi.Feature
	// DefaultInput returns the Table 1/2 input for a site.
	DefaultInput func(site Site) Input
	// New builds a per-rank instance factory for an input.
	New func(in Input) app.Factory
	// InputLine is the paper's command-line rendering (Table 1/2).
	InputLine func(site Site) string
}

// Compatible reports whether the implementation's capability set covers
// the application.
func (s Spec) Compatible(caps mpi.CapSet) bool {
	for _, f := range s.Requires {
		if !caps.Has(f) {
			return false
		}
	}
	return true
}

var registry = map[string]Spec{}

func register(s Spec) {
	if _, dup := registry[s.Name]; dup {
		panic("apps: duplicate registration of " + s.Name)
	}
	registry[s.Name] = s
}

// ByName returns the registered application spec.
func ByName(name string) (Spec, error) {
	s, ok := registry[name]
	if !ok {
		return Spec{}, fmt.Errorf("apps: unknown application %q (have %v)", name, Names())
	}
	return s, nil
}

// Names lists the registered applications in evaluation order.
func Names() []string {
	order := []string{"hpcg", "lulesh", "comd", "lammps", "sw4"}
	out := make([]string, 0, len(order))
	for _, n := range order {
		if _, ok := registry[n]; ok {
			out = append(out, n)
		}
	}
	return out
}
