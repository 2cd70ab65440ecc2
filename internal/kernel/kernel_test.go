package kernel

import (
	"testing"
	"time"
)

// TestInitialOrderIsRankOrder pins the startup schedule: every rank is
// seeded at virtual time zero, and FIFO tie-breaking runs them in rank
// order.
func TestInitialOrderIsRankOrder(t *testing.T) {
	const n = 5
	k := New(n)
	var order []int
	for r := 0; r < n; r++ {
		rank := r
		k.Go(rank, func() { order = append(order, rank) })
	}
	k.Run()
	for r := 0; r < n; r++ {
		if order[r] != r {
			t.Fatalf("execution order %v, want ranks in order", order)
		}
	}
	if k.Stalled() {
		t.Fatal("clean run reported a stall")
	}
}

// TestWakeOrdersByVirtualTime parks two ranks, then wakes them from the
// stall handler at distinct virtual times: the later-parked rank with
// the earlier wakeup must run first.
func TestWakeOrdersByVirtualTime(t *testing.T) {
	k := New(3)
	var log []string
	k.OnStall(func() {
		log = append(log, "stall")
		k.Wake(2, 5*time.Millisecond)
		k.Wake(1, 10*time.Millisecond)
	})
	k.Go(0, func() { log = append(log, "run0") })
	k.Go(1, func() {
		log = append(log, "park1")
		k.Park(1)
		log = append(log, "woke1")
	})
	k.Go(2, func() {
		log = append(log, "park2")
		k.Park(2)
		log = append(log, "woke2")
	})
	k.Run()

	want := []string{"run0", "park1", "park2", "stall", "woke2", "woke1"}
	if len(log) != len(want) {
		t.Fatalf("log %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log %v, want %v", log, want)
		}
	}
	if !k.Stalled() {
		t.Fatal("stall handler ran but Stalled() is false")
	}
}

// TestEqualTimeWakesAreFIFO pins the tie-break: two wakeups at the same
// virtual time resume in the order the Wake calls were made, not rank
// order.
func TestEqualTimeWakesAreFIFO(t *testing.T) {
	k := New(3)
	var log []int
	k.OnStall(func() {
		k.Wake(2, 7*time.Millisecond)
		k.Wake(1, 7*time.Millisecond)
	})
	k.Go(0, func() {})
	k.Go(1, func() {
		k.Park(1)
		log = append(log, 1)
	})
	k.Go(2, func() {
		k.Park(2)
		log = append(log, 2)
	})
	k.Run()
	if len(log) != 2 || log[0] != 2 || log[1] != 1 {
		t.Fatalf("equal-time wake order %v, want [2 1]", log)
	}
}

// TestWakeWhileRunningLatches exercises the pending-wake latch: a Wake
// delivered to a still-running rank must be consumed by that rank's next
// Park without yielding, or the rank would park forever.
func TestWakeWhileRunningLatches(t *testing.T) {
	k := New(1)
	parked := false
	k.Go(0, func() {
		k.Wake(0, time.Millisecond) // running: latched, no event pushed
		k.Park(0)                   // consumes the latch, returns at once
		parked = true
	})
	k.Run()
	if !parked {
		t.Fatal("rank never returned from Park")
	}
	if k.Stalled() {
		t.Fatal("latched wake was turned into a stall")
	}
}

// TestWakeNotParkedIsNoOp: waking a rank that already finished must not
// corrupt the schedule.
func TestWakeNotParkedIsNoOp(t *testing.T) {
	k := New(2)
	k.Go(0, func() {})
	k.Go(1, func() { k.Wake(0, time.Second) }) // rank 0 is done by now
	k.Run()
	if k.Stalled() {
		t.Fatal("no-op wake reported a stall")
	}
}

// TestDeterministicAcrossRuns runs the same park/wake workload twice and
// requires identical execution traces — the property the conformance
// suite leans on.
func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() []string {
		k := New(4)
		var log []string
		k.OnStall(func() {
			k.Wake(3, 2*time.Millisecond)
			k.Wake(1, time.Millisecond)
			k.Wake(2, 2*time.Millisecond)
		})
		k.Go(0, func() { log = append(log, "r0") })
		for r := 1; r < 4; r++ {
			rank := r
			k.Go(rank, func() {
				k.Park(rank)
				log = append(log, string(rune('0'+rank)))
			})
		}
		k.Run()
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("traces differ: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces differ at %d: %v vs %v", i, a, b)
		}
	}
	// And the wake order itself: rank 1 at 1ms, then 3 before 2 (same
	// time, Wake-call order).
	want := []string{"r0", "1", "3", "2"}
	for i := range want {
		if a[i] != want[i] {
			t.Fatalf("trace %v, want %v", a, want)
		}
	}
}
