package kernel

import (
	"runtime"
	"testing"
	"time"
)

// TestTokenHopAllocatesNothing: a steady-state switch between ranks
// costs no heap object. Rank 0 passes a wakeup round a ring of parked
// ranks and parks until it comes back; a lap is n park/wake hops.
func TestTokenHopAllocatesNothing(t *testing.T) {
	const n = 4
	k := New(n)
	var now time.Duration
	done := false
	hop := func(from int) {
		now += time.Microsecond
		k.Wake((from+1)%n, now)
	}
	var allocs float64
	k.Go(0, func() {
		// Let the other ranks run to their first Park.
		k.ParkUntil(0, 0)
		lap := func() {
			hop(0)
			k.Park(0)
		}
		lap()
		allocs = testing.AllocsPerRun(100, lap)
		done = true
		hop(0)
	})
	for r := 1; r < n; r++ {
		k.Go(r, func() {
			for {
				k.Park(r)
				hop(r)
				if done {
					return
				}
			}
		})
	}
	k.Run()
	if allocs != 0 {
		t.Fatalf("%v allocations per %d-hop lap, want 0", allocs, n)
	}
}

// TestRankFailureEndsRun: a rank that panics, or that calls
// runtime.Goexit (as t.FailNow does), ends Run on its goroutine the
// same way instead of hanging it, while the other rank stays parked.
func TestRankFailureEndsRun(t *testing.T) {
	for _, tc := range []struct {
		name string
		body func()
		want any // what Run raises: the panic value, or nil for Goexit
	}{
		{"panic", func() { panic("rank 1 failed") }, "rank 1 failed"},
		{"Goexit", runtime.Goexit, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := New(2)
			k.Go(0, func() { k.Park(0) })
			k.Go(1, tc.body)
			returned := false
			var raised any
			done := make(chan struct{})
			go func() {
				defer close(done)
				defer func() { raised = recover() }()
				k.Run()
				returned = true
			}()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("Run hung after the rank failed")
			}
			if returned {
				t.Fatal("Run returned normally after the rank failed")
			}
			if raised != tc.want {
				t.Fatalf("Run raised %v, want %v", raised, tc.want)
			}
		})
	}
}
