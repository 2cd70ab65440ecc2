package harness

import (
	"fmt"
	"strings"

	"manasim/internal/apps"
)

// Experiment is one registered experiment: a name the CLI selects it
// by and a run that returns its tables.
type Experiment struct {
	Name string
	Run  func(Options) ([]Table, error)
}

var registry = []Experiment{
	{"table1", inputTable(apps.SiteDiscovery, "Table 1: Input for each application on a single node (Discovery)")},
	{"table2", inputTable(apps.SitePerlmutter, "Table 2: Input for each application on Perlmutter")},
	{"fig2", figure2.tables},
	{"fig3", figure3.tables},
	{"fig4", figure4.tables},
	{"cs", one("Section 6.3: Context switches per application (MANA+virtId/MPICH, Discovery)", ContextSwitches)},
	{"table3", one("Table 3: Checkpoint times on Discovery (NFSv3 model)", Table3)},
	{"drain", concat(
		one("Drain strategies: two-phase (SC'23 §5) vs topological sort (arXiv:2408.02218)", DrainStrategies),
		one("Drain rank sweep under the event kernel (MPICH, pipelined workload)", DrainScale))},
	{"delta", concat(
		one("Incremental images: full vs delta generations (arXiv:1906.05020)", DeltaImages),
		one("Restart cost vs chain depth (newest-wins resolution: winning chunks only)", DeltaChainSweep))},
	{"backends", one("Storage tiers: per-backend cost profiles (burst buffer, object store, NFS model)", Backends)},
	{"dedup", one("Content-addressed store: cross-rank + cross-generation dedup at equal ChainCap", DedupSweep)},
	{"service", serviceTables},
	{"integrity", integrityTables},
	{"sched", schedTables},
}

// Experiments lists every registered experiment in the order `all`
// runs them.
func Experiments() []Experiment {
	return append([]Experiment(nil), registry...)
}

// ExperimentNames lists the registered experiment names.
func ExperimentNames() []string {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.Name
	}
	return names
}

// LookupExperiment finds a registered experiment by name.
func LookupExperiment(name string) (Experiment, error) {
	for _, e := range registry {
		if e.Name == name {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("unknown experiment %q (registered: %s)", name, strings.Join(ExperimentNames(), ", "))
}

// one makes a single-table experiment of a typed-row run.
func one[R any](title string, run func(Options) ([]R, error)) func(Options) ([]Table, error) {
	return func(opts Options) ([]Table, error) {
		rows, err := run(opts)
		if err != nil {
			return nil, err
		}
		return []Table{{Title: title, Rows: rows}}, nil
	}
}

// concat runs experiments one after another and joins their tables.
func concat(runs ...func(Options) ([]Table, error)) func(Options) ([]Table, error) {
	return func(opts Options) ([]Table, error) {
		var tables []Table
		for _, run := range runs {
			t, err := run(opts)
			if err != nil {
				return nil, err
			}
			tables = append(tables, t...)
		}
		return tables, nil
	}
}
