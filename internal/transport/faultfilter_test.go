package transport

import (
	"errors"
	"testing"
	"time"
)

// TestFaultFilterDropAndDelay: a fault filter sees every outgoing
// message; a dropped message vanishes on the wire (send still counted,
// nothing deposited) and a delayed one arrives with its send timestamp
// pushed later in virtual time.
func TestFaultFilterDropAndDelay(t *testing.T) {
	f := NewFabric(2)
	defer f.Close()
	f.SetFaultFilter(func(m *Message) (bool, time.Duration) {
		switch m.Tag {
		case 1:
			return true, 0
		case 2:
			return false, time.Millisecond
		}
		return false, 0
	})
	a, b := f.Endpoint(0), f.Endpoint(1)

	if err := a.Send(1, 1, 1, []byte("dropped"), 0); err != nil {
		t.Fatal(err)
	}
	if f.InFlight() != 0 {
		t.Fatal("dropped message was deposited")
	}
	if a.Sent() != 1 {
		t.Fatalf("dropped send not counted: sent=%d", a.Sent())
	}

	if err := a.Send(1, 1, 2, []byte("delayed"), 3*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	msg, err := b.Recv(Match{Context: 1, Src: 0, Tag: 2})
	if err != nil {
		t.Fatal(err)
	}
	if msg.SendVT != 4*time.Millisecond {
		t.Fatalf("delayed SendVT %v, want 4ms", msg.SendVT)
	}

	if err := a.Send(1, 1, 3, []byte("clean"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(Match{Context: 1, Src: 0, Tag: 3}); err != nil {
		t.Fatalf("unfaulted message lost: %v", err)
	}
}

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
