package transport

import (
	"errors"
	"testing"
	"time"
)

// fakeTimedScheduler records ParkUntil calls; Park/Wake satisfy the
// Scheduler interface.
type fakeTimedScheduler struct {
	parked []time.Duration
}

func (s *fakeTimedScheduler) Park(rank int)                  {}
func (s *fakeTimedScheduler) Wake(rank int, _ time.Duration) {}
func (s *fakeTimedScheduler) ParkUntil(rank int, at time.Duration) {
	s.parked = append(s.parked, at)
}

// TestSleepUntil: without a timed scheduler SleepUntil must refuse
// (nothing could wake the sleeper); with one it parks the rank at the
// requested deadline.
func TestSleepUntil(t *testing.T) {
	f := NewFabric(1)
	defer f.Close()
	if err := f.Endpoint(0).SleepUntil(time.Millisecond); !errors.Is(err, ErrNoScheduler) {
		t.Fatalf("schedulerless SleepUntil: %v", err)
	}

	f2 := NewFabric(1)
	defer f2.Close()
	sched := &fakeTimedScheduler{}
	f2.SetScheduler(sched, func(int) time.Duration { return 0 })
	if err := f2.Endpoint(0).SleepUntil(7 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(sched.parked) != 1 || sched.parked[0] != 7*time.Millisecond {
		t.Fatalf("ParkUntil calls %v, want one at 7ms", sched.parked)
	}
}
