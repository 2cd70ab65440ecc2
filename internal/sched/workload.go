package sched

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"
)

// Class is a job template: the submit-time metadata the scheduler sees
// (size, partition, runtime estimate) plus the application the job
// actually runs.
type Class struct {
	Name string
	// App and Impl select the proxy application and the simulated MPI
	// implementation the job runs under MANA.
	App  string
	Impl string
	// Ranks is the job size; Steps the simulated iteration count.
	Ranks int
	Steps int
	// Polls overrides the per-step progress-poll count (0 = a thinned
	// scheduler default; the paper-calibrated poll densities are for
	// single-job overhead experiments, not multi-job sweeps).
	Polls int
	// StepVT overrides the per-step compute charge (0 = the app's
	// calibrated default). The calibrated steps differ by orders of
	// magnitude across applications; a mix uses this to dial
	// comparable job durations.
	StepVT time.Duration
	// Partition names the submit partition ("" = the default one); the
	// job's priority is the partition's tier.
	Partition string
	// EstVT is the user-supplied runtime estimate backfill reserves
	// against (real schedulers' walltime limits). Zero means the
	// scheduler fills it from the class's fault-free probe.
	EstVT time.Duration
	// Weight biases the workload generator's class draw (default 1).
	Weight int
}

// JobSpec is one submitted job: a class instance with an arrival time.
type JobSpec struct {
	ID     string
	Class  Class
	Submit time.Duration
}

// Workload is a deterministic arrival sequence.
type Workload struct {
	Seed int64
	Jobs []JobSpec
}

// Generate draws count arrivals from the weighted classes with
// exponential inter-arrival gaps of mean meanGap — the same seeded
// discipline the fault injector uses for its crash process. The result
// is a pure function of the arguments.
func Generate(seed int64, classes []Class, count int, meanGap time.Duration) Workload {
	rng := rand.New(rand.NewSource(seed))
	total := 0
	for _, c := range classes {
		w := c.Weight
		if w <= 0 {
			w = 1
		}
		total += w
	}
	w := Workload{Seed: seed}
	at := time.Duration(0)
	for i := 0; i < count; i++ {
		gap := time.Duration(rng.ExpFloat64() * float64(meanGap))
		at += gap
		pick := rng.Intn(total)
		var cls Class
		for _, c := range classes {
			cw := c.Weight
			if cw <= 0 {
				cw = 1
			}
			if pick < cw {
				cls = c
				break
			}
			pick -= cw
		}
		w.Jobs = append(w.Jobs, JobSpec{
			ID:     fmt.Sprintf("j%02d-%s", i, cls.Name),
			Class:  cls,
			Submit: at,
		})
	}
	return w
}

// appSeed derives the application's deterministic input seed for a
// class: every job of a class runs the identical application instance,
// which is what lets the acceptance tests compare a preempted job's
// final checksums against the class's uninterrupted probe run.
func appSeed(wlSeed int64, c Class) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%s/%d/%d", wlSeed, c.Name, c.App, c.Ranks, c.Steps)
	return h.Sum64()
}
