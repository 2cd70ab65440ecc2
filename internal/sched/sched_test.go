package sched

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

// testCluster is the 4-node × 2-slot machine of the unit battery: a
// batch tier everyone submits to and an urgent tier spanning the same
// nodes at priority 10.
func testCluster() ClusterSpec {
	return ClusterSpec{
		Nodes:        4,
		SlotsPerNode: 2,
		Partitions: []PartitionSpec{
			{Name: "batch", Priority: 0},
			{Name: "urgent", Priority: 10},
		},
	}
}

// testClasses covers two batch applications and an urgent one across
// three MPI implementations.
func testClasses() (hydro, mat, urgent Class) {
	hydro = Class{Name: "hydro", App: "comd", Impl: "mpich", Ranks: 4, Steps: 10, Partition: "batch"}
	mat = Class{Name: "mat", App: "lammps", Impl: "openmpi", Ranks: 4, Steps: 8, Partition: "batch", StepVT: 410 * time.Millisecond}
	urgent = Class{Name: "urgent", App: "comd", Impl: "craympi", Ranks: 2, Steps: 4, Partition: "urgent"}
	return
}

// contentionWorkload saturates the cluster with batch work, then lands
// an urgent job while everything is busy — the preemption scenario.
func contentionWorkload(seed int64) Workload {
	hydro, mat, urgent := testClasses()
	return Workload{
		Seed: seed,
		Jobs: []JobSpec{
			{ID: "j0-hydro", Class: hydro, Submit: 0},
			{ID: "j1-mat", Class: mat, Submit: 50 * time.Millisecond},
			{ID: "j2-hydro", Class: hydro, Submit: 100 * time.Millisecond},
			{ID: "j3-urgent", Class: urgent, Submit: 1200 * time.Millisecond},
		},
	}
}

// classOf returns the class name of wl's job id.
func classOf(wl Workload, id string) string {
	for _, js := range wl.Jobs {
		if js.ID == id {
			return js.Class.Name
		}
	}
	return ""
}

func TestWorkloadGenerateDeterministic(t *testing.T) {
	hydro, mat, _ := testClasses()
	classes := []Class{hydro, mat}
	a := Generate(7, classes, 8, time.Second)
	b := Generate(7, classes, 8, time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Generate is not a pure function of its arguments")
	}
	if len(a.Jobs) != 8 {
		t.Fatalf("generated %d jobs, want 8", len(a.Jobs))
	}
	last := time.Duration(-1)
	for _, j := range a.Jobs {
		if j.Submit < last {
			t.Fatalf("arrivals not monotone: %v after %v", j.Submit, last)
		}
		last = j.Submit
	}
	c := Generate(8, classes, 8, time.Second)
	if reflect.DeepEqual(a.Jobs, c.Jobs) {
		t.Fatal("different seeds generated identical workloads")
	}
}

func TestClusterSpecValidation(t *testing.T) {
	if _, err := (ClusterSpec{}).withDefaults(); err == nil {
		t.Fatal("zero-node cluster accepted")
	}
	bad := ClusterSpec{Nodes: 2, Partitions: []PartitionSpec{{Name: "p", Nodes: []int{5}}}}
	if _, err := bad.withDefaults(); err == nil {
		t.Fatal("out-of-range partition node accepted")
	}
	dup := ClusterSpec{Nodes: 2, Partitions: []PartitionSpec{{Name: "p"}, {Name: "p"}}}
	if _, err := dup.withDefaults(); err == nil {
		t.Fatal("duplicate partition name accepted")
	}
	cs, err := (ClusterSpec{Nodes: 3}).withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if cs.SlotsPerNode != 1 || len(cs.Partitions) != 1 || cs.Partitions[0].Name != "batch" {
		t.Fatalf("defaults not applied: %+v", cs)
	}
}

func TestPolicyRegistry(t *testing.T) {
	names := Policies()
	want := []string{"fifo", "backfill", "preempt", "kill"}
	if len(names) < 4 || !reflect.DeepEqual(names[:4], want) {
		t.Fatalf("policy order %v, want prefix %v", names, want)
	}
	if _, err := PolicyByName("nope"); err == nil {
		t.Fatal("unknown policy resolved")
	}
	if err := Register(Policy{Name: "fifo"}); err == nil {
		t.Fatal("duplicate registration accepted")
	}
}

// TestSchedFIFOPerfectGoodput: without preemption every job runs
// exactly once, so consumed rank-seconds equal the baseline and goodput
// is exactly 1 — the invariant the preempting policies are judged
// against.
func TestSchedFIFOPerfectGoodput(t *testing.T) {
	for _, policy := range []string{"fifo", "backfill"} {
		t.Run(policy, func(t *testing.T) {
			wl := contentionWorkload(42)
			out, err := Run(testCluster(), wl, policy, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if out.Goodput != 1.0 {
				t.Fatalf("%s goodput %.6f, want exactly 1.0", policy, out.Goodput)
			}
			if out.Preemptions != 0 || out.Kills != 0 || out.LostS != 0 || out.CkptOverheadS != 0 {
				t.Fatalf("%s disturbed running jobs: %+v", policy, out)
			}
			for _, j := range out.Jobs {
				if !reflect.DeepEqual(j.Checksums, out.Baselines[classOf(wl, j.ID)].Checksums) {
					t.Fatalf("job %s checksums diverge from class baseline", j.ID)
				}
			}
		})
	}
}

// TestSchedTrajectoryDeterminism: the full outcome — every scheduling
// decision, virtual timestamp, and checksum — must be bit-identical
// across repeated runs, for every policy and several seeds.
func TestSchedTrajectoryDeterminism(t *testing.T) {
	hydro, mat, urgent := testClasses()
	for _, seed := range []int64{1, 42} {
		wl := Generate(seed, []Class{hydro, mat, urgent}, 6, 800*time.Millisecond)
		for _, policy := range []string{"fifo", "backfill", "preempt", "kill"} {
			t.Run(fmt.Sprintf("seed%d/%s", seed, policy), func(t *testing.T) {
				first, err := Run(testCluster(), wl, policy, Options{})
				if err != nil {
					t.Fatal(err)
				}
				second, err := Run(testCluster(), wl, policy, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(first, second) {
					t.Fatalf("repeated run diverges from itself:\nfirst:  %+v\nsecond: %+v", first, second)
				}
			})
		}
	}
}

// TestSchedPreemptionBitIdentical: under the checkpoint-preemption
// policy the urgent arrival must actually preempt, the victims must
// resume and finish with checksums bit-identical to their class's
// uninterrupted baseline, and no work may be lost.
func TestSchedPreemptionBitIdentical(t *testing.T) {
	wl := contentionWorkload(42)
	out, err := Run(testCluster(), wl, "preempt", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Preemptions == 0 {
		t.Fatal("contention workload caused no preemptions")
	}
	if out.LostS != 0 {
		t.Fatalf("checkpoint preemption lost %.3f rank-seconds", out.LostS)
	}
	if out.CkptOverheadS <= 0 {
		t.Fatal("preemption reported no checkpoint overhead")
	}
	if out.Goodput >= 1.0 || out.Goodput <= 0 {
		t.Fatalf("goodput %.6f out of range (0,1)", out.Goodput)
	}
	resumed := 0
	for _, j := range out.Jobs {
		if !reflect.DeepEqual(j.Checksums, out.Baselines[classOf(wl, j.ID)].Checksums) {
			t.Fatalf("job %s (%d preemptions) checksums diverge from uninterrupted baseline", j.ID, j.Preemptions)
		}
		resumed += j.Resumes
	}
	if resumed == 0 {
		t.Fatal("no job resumed from a checkpoint")
	}
}

// TestSchedPreemptBeatsKill: on the same contention workload the
// checkpoint policy must deliver strictly higher goodput than
// kill-and-requeue — the kill arm pays lost work on every eviction, the
// checkpoint arm only the drain overhead.
func TestSchedPreemptBeatsKill(t *testing.T) {
	wl := contentionWorkload(42)
	pre, err := Run(testCluster(), wl, "preempt", Options{})
	if err != nil {
		t.Fatal(err)
	}
	kill, err := Run(testCluster(), wl, "kill", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if kill.Kills == 0 {
		t.Fatal("kill policy never killed anything")
	}
	if kill.LostS <= 0 {
		t.Fatal("kill policy reports no lost work")
	}
	if pre.Goodput <= kill.Goodput {
		t.Fatalf("checkpoint preemption goodput %.4f not above kill-and-requeue %.4f", pre.Goodput, kill.Goodput)
	}
	// Killed jobs still finish correctly — they redo work, not corrupt it.
	for _, j := range kill.Jobs {
		if !reflect.DeepEqual(j.Checksums, kill.Baselines[classOf(wl, j.ID)].Checksums) {
			t.Fatalf("killed-and-requeued job %s checksums diverge", j.ID)
		}
	}
}

// TestSchedUnplaceableJob: a job larger than its partition is rejected
// up front with a diagnostic naming the job and partition.
func TestSchedUnplaceableJob(t *testing.T) {
	hydro, _, _ := testClasses()
	hydro.Ranks = 64
	wl := Workload{Seed: 1, Jobs: []JobSpec{{ID: "j0-big", Class: hydro}}}
	_, err := New(testCluster(), wl, "fifo", Options{})
	if err == nil {
		t.Fatal("oversized job accepted")
	}
}
