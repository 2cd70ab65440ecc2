// XFEL preemption: the urgent-computing scenario from the paper's
// introduction, now played out through the cluster scheduler instead of
// a hand-driven single job. A long-running hydro simulation occupies the
// machine as a preemptible batch job; an X-ray free-electron-laser
// analysis job arrives on the realtime partition and needs nodes *now*.
// Under the checkpoint-preempt policy the scheduler drains the hydro job
// through MANA — checkpoint at an agreed boundary a couple of steps
// ahead, commit, free the nodes — runs the XFEL job, then resumes the
// victim from its checkpoint as if nothing happened. The same scenario
// is replayed under kill-and-requeue and plain FIFO to show what the
// checkpoint buys.
//
//	go run ./examples/xfel-preempt
package main

import (
	"fmt"
	"log"
	"time"

	"manasim/internal/sched"
)

func main() {
	// A 4-node machine. Batch jobs submit at priority 0; the realtime
	// partition spans the same nodes one tier up — the XFEL beamline's
	// lever over the scheduler.
	spec := sched.ClusterSpec{
		Nodes:        4,
		SlotsPerNode: 1,
		Partitions: []sched.PartitionSpec{
			{Name: "batch", Priority: 0},
			{Name: "realtime", Priority: 10},
		},
	}

	// The preemptible science job: a hydro simulation filling the
	// machine for ~5 virtual seconds. The XFEL analysis is a quarter of
	// the machine for under a second, arriving mid-run.
	hydro := sched.Class{
		Name: "hydro", App: "lulesh", Impl: "mpich",
		Ranks: 4, Steps: 24, StepVT: 200 * time.Millisecond,
		Partition: "batch",
	}
	xfel := sched.Class{
		Name: "xfel", App: "comd", Impl: "craympi",
		Ranks: 2, Steps: 8, StepVT: 100 * time.Millisecond,
		Partition: "realtime",
	}
	wl := sched.Workload{
		Seed: 42,
		Jobs: []sched.JobSpec{
			{ID: "hydro-long", Class: hydro, Submit: 0},
			{ID: "xfel-burst", Class: xfel, Submit: 1500 * time.Millisecond},
		},
	}

	run := func(policy string, logf func(string, ...any)) *sched.Outcome {
		out, err := sched.Run(spec, wl, policy, sched.Options{Logf: logf})
		if err != nil {
			log.Fatalf("%s run: %v", policy, err)
		}
		return out
	}

	fmt.Println("=== checkpoint-preempt policy ===")
	pre := run("preempt", func(format string, args ...any) {
		fmt.Printf("  sched: "+format+"\n", args...)
	})
	fifo := run("fifo", nil)
	kill := run("kill", nil)

	// Prove nothing was lost: the preempted hydro job's final checksums
	// must be bit-identical to the class's uninterrupted baseline probe.
	var victim sched.JobResult
	for _, j := range pre.Jobs {
		if j.ID == "hydro-long" {
			victim = j
		}
	}
	base := pre.Baselines["hydro"]
	if victim.Preemptions < 1 || victim.Resumes < 1 {
		log.Fatalf("hydro job was not preempted+resumed (preemptions=%d resumes=%d)",
			victim.Preemptions, victim.Resumes)
	}
	if len(victim.Checksums) != len(base.Checksums) {
		log.Fatalf("checksum arity: job %d vs baseline %d", len(victim.Checksums), len(base.Checksums))
	}
	for r := range base.Checksums {
		if victim.Checksums[r] != base.Checksums[r] {
			log.Fatalf("rank %d diverged after preemption!", r)
		}
	}
	fmt.Printf("\nhydro preempted %dx, resumed %dx; final checksums bit-identical to an undisturbed run ✓\n",
		victim.Preemptions, victim.Resumes)

	urgentWait := func(o *sched.Outcome) float64 {
		for _, j := range o.Jobs {
			if j.ID == "xfel-burst" {
				return j.WaitS
			}
		}
		return -1
	}
	fmt.Println("\npolicy     xfel-wait   goodput   lost-work(rank·s)")
	for _, row := range []struct {
		name string
		o    *sched.Outcome
	}{{"fifo", fifo}, {"kill", kill}, {"preempt", pre}} {
		fmt.Printf("%-9s  %7.3fs   %.4f    %.3f\n",
			row.name, urgentWait(row.o), row.o.Goodput, row.o.LostS)
	}
	if pre.Goodput <= kill.Goodput {
		log.Fatal("checkpoint preemption did not beat kill-and-requeue on goodput")
	}
	fmt.Println("\ncheckpoint preemption: the beamline gets its nodes in the time of a" +
		"\ndrain-and-commit, and not a rank-second of the hydro run is thrown away.")
}
