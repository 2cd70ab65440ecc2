package harness

import (
	"reflect"
	"testing"
)

// TestSchedSweepAcceptance is the PR's acceptance gate: the sweep
// covers ≥3 policies × ≥2 cluster sizes × ≥2 job mixes at seed 42;
// the burst mix actually exercises preemption on every cluster size;
// checkpoint-preemption delivers strictly higher goodput than
// kill-and-requeue wherever the kill arm killed anything; and no cell
// charges its checkpoints more than it wasted.
func TestSchedSweepAcceptance(t *testing.T) {
	res, err := SchedSweep(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Policies) < 3 || len(res.Clusters) < 2 || len(res.Mixes) < 2 {
		t.Fatalf("sweep grid too small: %d policies × %d clusters × %d mixes",
			len(res.Policies), len(res.Clusters), len(res.Mixes))
	}
	if want := len(res.Policies) * len(res.Clusters) * len(res.Mixes); len(res.Rows) != want {
		t.Fatalf("sweep produced %d rows, want %d", len(res.Rows), want)
	}

	cell := func(mix, cl, policy string) SchedRow {
		for _, r := range res.Rows {
			if r.Mix == mix && r.Cluster == cl && r.Policy == policy {
				return r
			}
		}
		t.Fatalf("missing sweep cell %s/%s/%s", mix, cl, policy)
		return SchedRow{}
	}

	for _, cl := range res.Clusters {
		// Non-preempting policies waste nothing: goodput exactly 1.
		for _, mix := range res.Mixes {
			for _, policy := range []string{"fifo", "backfill"} {
				if r := cell(mix, cl, policy); r.Goodput != 1.0 {
					t.Errorf("%s/%s/%s goodput %.4f, want exactly 1.0", mix, cl, policy, r.Goodput)
				}
			}
		}

		// The burst mix must exercise both preemption arms.
		pre := cell("burst", cl, "preempt")
		kill := cell("burst", cl, "kill")
		if pre.Preemptions == 0 {
			t.Errorf("burst/%s/preempt: no preemptions fired", cl)
		}
		if kill.Kills == 0 {
			t.Errorf("burst/%s/kill: no kills fired", cl)
		}
		if pre.LostS != 0 {
			t.Errorf("burst/%s/preempt lost %.3f rank-seconds; checkpoint preemption must lose nothing", cl, pre.LostS)
		}
		if kill.LostS <= 0 {
			t.Errorf("burst/%s/kill lost nothing despite %d kills", cl, kill.Kills)
		}
		if pre.Goodput <= kill.Goodput {
			t.Errorf("burst/%s: preempt goodput %.4f not strictly above kill %.4f", cl, pre.Goodput, kill.Goodput)
		}
		if len(res.Trace[cl]) == 0 {
			t.Errorf("burst/%s: preempt trajectory not recorded", cl)
		}

		// Wherever the kill arm killed, the checkpoint arm must win.
		for _, mix := range res.Mixes {
			p, k := cell(mix, cl, "preempt"), cell(mix, cl, "kill")
			if k.Kills > 0 && p.Goodput <= k.Goodput {
				t.Errorf("%s/%s: preempt goodput %.4f not above kill %.4f", mix, cl, p.Goodput, k.Goodput)
			}
		}
	}

	// Checkpoint overhead is part of the waste, never more than all of
	// it: a cell cannot charge its checkpoints more rank-seconds than it
	// consumed beyond useful work.
	for _, r := range res.Rows {
		if waste := r.ConsumedS - r.UsefulS; r.CkptOverheadS > waste+1e-9 {
			t.Errorf("%s/%s/%s: checkpoint overhead %.6f rank-s above consumed − useful %.6f",
				r.Mix, r.Cluster, r.Policy, r.CkptOverheadS, waste)
		}
	}

	// Bit-identity: every job of every cell — preempted, killed, or
	// undisturbed — finishes with its class baseline's checksums.
	for key, out := range res.Outcomes {
		for _, j := range out.Jobs {
			if !reflect.DeepEqual(j.Checksums, out.Baselines[j.Class].Checksums) {
				t.Errorf("%s: job %s checksums diverge from uninterrupted baseline", key, j.ID)
			}
		}
	}
}

// TestSchedSweepDeterministic: the sweep is a pure function of its
// seed — a second run reproduces every row and trace bit-identically.
func TestSchedSweepDeterministic(t *testing.T) {
	a, err := SchedSweep(Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SchedSweep(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Rows, b.Rows) {
		t.Fatal("sweep rows differ across runs")
	}
	if !reflect.DeepEqual(a.Trace, b.Trace) {
		t.Fatal("recorded trajectories differ across runs")
	}
	for key, out := range a.Outcomes {
		if !reflect.DeepEqual(out, b.Outcomes[key]) {
			t.Fatalf("outcome %s differs across runs", key)
		}
	}
}
