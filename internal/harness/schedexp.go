package harness

import (
	"fmt"
	"time"

	"manasim/internal/sched"
)

// SchedRow is one (mix, cluster, policy) cell of the scheduler sweep.
type SchedRow struct {
	Mix     string  `json:"mix" col:"mix,%s"`
	Cluster string  `json:"cluster" col:"nodes,%s"`
	Policy  string  `json:"policy" col:"policy,%s"`
	Jobs    int     `json:"jobs"`
	Goodput float64 `json:"goodput" col:"goodput,%.4f"`
	// Rank-seconds of virtual time: baseline work delivered, node time
	// consumed, killed work lost, preemption drain overhead.
	UsefulS       float64 `json:"useful_rank_s"`
	ConsumedS     float64 `json:"consumed_rank_s"`
	LostS         float64 `json:"lost_rank_s" col:"lost(r*s),%.3f"`
	CkptOverheadS float64 `json:"ckpt_overhead_rank_s" col:"ckpt(r*s),%.3f"`
	MakespanS     float64 `json:"makespan_s"`
	AvgWaitS      float64 `json:"avg_wait_s" col:"wait(s),%.2f"`
	// UrgentAvgWaitS averages queue wait over the above-baseline
	// priority tiers — the urgent-computing responsiveness metric.
	UrgentAvgWaitS float64 `json:"urgent_avg_wait_s" col:"urgent(s),%.2f"`
	Preemptions    int     `json:"preemptions" col:"preempt,%d"`
	Kills          int     `json:"kills" col:"kills,%d"`
}

// SchedTraceEvent is one scheduler decision of a recorded trajectory.
type SchedTraceEvent struct {
	VTS     float64 `json:"vt_s"`
	Kind    string  `json:"kind"`
	Job     string  `json:"job"`
	Nodes   []int   `json:"nodes,omitempty"`
	FreedVS float64 `json:"freed_at_s,omitempty"`
}

// SchedSweepResult is the full scheduler sweep: the policy × cluster ×
// mix grid, plus the recorded preempt-policy trajectory of the burst
// mix (the acceptance cell).
type SchedSweepResult struct {
	Seed     int64      `json:"seed"`
	Policies []string   `json:"policies"`
	Clusters []string   `json:"clusters"`
	Mixes    []string   `json:"mixes"`
	Rows     []SchedRow `json:"rows"`
	// Trace records the checkpoint-preemption trajectory on the burst
	// mix per cluster, keyed by cluster label.
	Trace map[string][]SchedTraceEvent `json:"preempt_trace"`

	// Outcomes retains every cell's full outcome for the acceptance
	// tests.
	Outcomes map[string]*sched.Outcome `json:"-"`
}

// schedClasses is the sweep's job mix vocabulary: two batch classes on
// different MPI implementations plus a small urgent class.
func schedClasses() (hydro, mat, urgent sched.Class) {
	hydro = sched.Class{Name: "hydro", App: "comd", Impl: "mpich", Ranks: 4, Steps: 10, Partition: "batch", Weight: 2}
	// LAMMPS's calibrated step is sub-millisecond; dial it to the same
	// order as CoMD so batch jobs are minutes, not blips.
	mat = sched.Class{Name: "mat", App: "lammps", Impl: "openmpi", Ranks: 4, Steps: 8, Partition: "batch", Weight: 2, StepVT: 410 * time.Millisecond}
	urgent = sched.Class{Name: "urgent", App: "comd", Impl: "craympi", Ranks: 2, Steps: 4, Partition: "urgent", Weight: 1}
	return
}

// schedCluster builds the sweep's two-tier machine: a batch partition
// at priority 0 and an urgent partition at priority 10, both spanning
// every node.
func schedCluster(nodes int) sched.ClusterSpec {
	return sched.ClusterSpec{
		Nodes:        nodes,
		SlotsPerNode: 2,
		Partitions: []sched.PartitionSpec{
			{Name: "batch", Priority: 0},
			{Name: "urgent", Priority: 10},
		},
	}
}

// schedWorkload builds a mix for a cluster size. "burst" saturates the
// machine with batch work and lands urgent jobs while everything is
// busy — the preemption scenario; "poisson" draws a seeded arrival
// process over the same classes.
func schedWorkload(mix string, cs sched.ClusterSpec, seed int64) (sched.Workload, error) {
	hydro, mat, urgent := schedClasses()
	switch mix {
	case "burst":
		wl := sched.Workload{Name: "burst", Seed: seed}
		// Saturate: alternating 2-node batch jobs every 100ms until the
		// machine is full, then two more queued behind them.
		saturate := cs.Nodes / 2
		for i := 0; i < saturate+2; i++ {
			c := hydro
			if i%2 == 1 {
				c = mat
			}
			wl.Jobs = append(wl.Jobs, sched.JobSpec{
				ID:     fmt.Sprintf("j%02d-%s", i, c.Name),
				Class:  c,
				Submit: time.Duration(i) * 100 * time.Millisecond,
			})
		}
		// Urgent arrivals mid-saturation.
		for k, at := range []time.Duration{1200 * time.Millisecond, 2600 * time.Millisecond} {
			wl.Jobs = append(wl.Jobs, sched.JobSpec{
				ID:     fmt.Sprintf("u%02d-urgent", k),
				Class:  urgent,
				Submit: at,
			})
		}
		return wl, nil
	case "poisson":
		return sched.Generate("poisson", seed, []sched.Class{hydro, mat, urgent}, cs.Nodes+2, 500*time.Millisecond), nil
	default:
		return sched.Workload{}, fmt.Errorf("sched: unknown mix %q", mix)
	}
}

// SchedSweep runs the multi-job scheduler grid: every registered policy
// over two cluster sizes and two job mixes at seed 42. All quantities
// are virtual-time results — bit-reproducible.
func SchedSweep(opts Options) (*SchedSweepResult, error) {
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	const seed = 42
	res := &SchedSweepResult{
		Seed:     seed,
		Policies: []string{"fifo", "backfill", "preempt", "kill"},
		Clusters: []string{"4x2", "8x2"},
		Mixes:    []string{"burst", "poisson"},
		Trace:    map[string][]SchedTraceEvent{},
		Outcomes: map[string]*sched.Outcome{},
	}
	for _, nodes := range []int{4, 8} {
		cs := schedCluster(nodes)
		for _, mix := range res.Mixes {
			wl, err := schedWorkload(mix, cs, seed)
			if err != nil {
				return nil, err
			}
			for _, policy := range res.Policies {
				out, err := sched.Run(cs, wl, policy, sched.Options{})
				if err != nil {
					return nil, fmt.Errorf("sched sweep %s/%s/%s: %w", mix, cs.String(), policy, err)
				}
				key := fmt.Sprintf("%s/%s/%s", mix, cs.String(), policy)
				res.Outcomes[key] = out
				res.Rows = append(res.Rows, SchedRow{
					Mix:            mix,
					Cluster:        out.Cluster,
					Policy:         policy,
					Jobs:           len(out.Jobs),
					Goodput:        out.Goodput,
					UsefulS:        out.UsefulS,
					ConsumedS:      out.ConsumedS,
					LostS:          out.LostS,
					CkptOverheadS:  out.CkptOverheadS,
					MakespanS:      out.MakespanS,
					AvgWaitS:       out.AvgWaitS,
					UrgentAvgWaitS: out.UrgentAvgWaitS,
					Preemptions:    out.Preemptions,
					Kills:          out.Kills,
				})
				if mix == "burst" && policy == "preempt" {
					var tr []SchedTraceEvent
					for _, e := range out.Trace {
						tr = append(tr, SchedTraceEvent{
							VTS:     e.VT.Seconds(),
							Kind:    e.Kind,
							Job:     e.Job,
							Nodes:   e.Nodes,
							FreedVS: e.FreedAt.Seconds(),
						})
					}
					res.Trace[out.Cluster] = tr
				}
				logf("sched %-7s %-4s %-8s goodput=%.4f wait=%.2fs urgent-wait=%.2fs preempt=%d kill=%d",
					mix, cs.String(), policy, out.Goodput, out.AvgWaitS, out.UrgentAvgWaitS, out.Preemptions, out.Kills)
			}
		}
	}
	return res, nil
}

// schedTables is the scheduler sweep as one policy table.
func schedTables(opts Options) ([]Table, error) {
	res, err := SchedSweep(opts)
	if err != nil {
		return nil, err
	}
	return []Table{{
		Title: fmt.Sprintf("Cluster scheduler sweep: policies x clusters x mixes (seed %d, event kernel)", res.Seed),
		Notes: []string{"goodput = baseline rank-seconds / consumed rank-seconds; preemption = transparent checkpoint"},
		Rows:  res.Rows,
	}}, nil
}
