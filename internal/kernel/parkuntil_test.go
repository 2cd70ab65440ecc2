package kernel

import (
	"testing"
	"time"
)

// TestParkUntilOrdersByDeadline: ranks sleeping in virtual time resume
// in deadline order regardless of park order, and a timed park is not a
// stall (the event queue always holds the wakeup).
func TestParkUntilOrdersByDeadline(t *testing.T) {
	k := New(2)
	var log []string
	k.Go(0, func() {
		log = append(log, "park0")
		k.ParkUntil(0, 5*time.Millisecond)
		log = append(log, "woke0")
	})
	k.Go(1, func() {
		log = append(log, "park1")
		k.ParkUntil(1, 2*time.Millisecond)
		log = append(log, "woke1")
	})
	k.Run()

	want := []string{"park0", "park1", "woke1", "woke0"}
	if len(log) != len(want) {
		t.Fatalf("log %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log %v, want %v", log, want)
		}
	}
	if k.Stalled() {
		t.Fatal("timed sleep reported a stall")
	}
}

// TestParkUntilIgnoresEarlyWake: a Wake aimed at a rank that is sleeping
// on a deadline is a no-op — the rank is in the ready state, scheduled
// at its deadline — so the sleeper resumes at its deadline, re-checks
// its condition, and no event is lost.
func TestParkUntilIgnoresEarlyWake(t *testing.T) {
	k := New(2)
	var log []string
	k.Go(0, func() {
		log = append(log, "sleep0")
		k.ParkUntil(0, 10*time.Millisecond)
		log = append(log, "woke0")
	})
	k.Go(1, func() {
		// Runs at VT 0 while rank 0 sleeps: the early wake must not
		// reschedule the sleeper.
		k.Wake(0, time.Millisecond)
		log = append(log, "run1")
	})
	k.Run()

	want := []string{"sleep0", "run1", "woke0"}
	if len(log) != len(want) {
		t.Fatalf("log %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log %v, want %v", log, want)
		}
	}
}
