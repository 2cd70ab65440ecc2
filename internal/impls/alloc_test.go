package impls

import (
	"fmt"
	"runtime"
	"testing"

	"manasim/internal/cluster"
	"manasim/internal/mpi"
	"manasim/internal/simtime"
)

// The message path's allocation counts, on every implementation: a
// steady-state message costs no heap object, because payloads and queue
// entries are recycled by the fabric and collectives stage nothing of
// their own. Counts, not timings, so they hold on any host.

// TestSendRecvAllocatesNothing: a warmed-up blocking Send and the Recv
// that matches it allocate nothing. The job has one rank sending to
// itself, so nothing but the message path runs while it is counted.
func TestSendRecvAllocatesNothing(t *testing.T) {
	forEachImpl(t, func(t *testing.T, name string, factory Factory) {
		run(t, factory, 1, func(rank int, p mpi.Proc, clock *simtime.Clock) error {
			c := consts(t, p, mpi.ConstCommWorld, mpi.ConstFloat64)
			world, f64 := c[mpi.ConstCommWorld], c[mpi.ConstFloat64]
			const count = 32
			send := mpi.Float64Bytes(make([]float64, count))
			recv := make([]byte, 8*count)
			var err error
			one := func() {
				if err == nil {
					err = p.Send(send, count, f64, 0, 7, world)
				}
				if err == nil {
					_, err = p.Recv(recv, count, f64, 0, 7, world)
				}
			}
			one()
			allocs := testing.AllocsPerRun(200, one)
			if err != nil {
				return err
			}
			if allocs != 0 {
				return fmt.Errorf("%v allocations per Send+Recv, want 0", allocs)
			}
			return nil
		})
	})
}

// TestIsendWaitAllocatesNothing: a warmed-up Isend, its Wait and the
// Recv that consumes the message allocate nothing. Every eager send
// returns the one shared completed request, so the only per-call state
// is the handle-table slot.
func TestIsendWaitAllocatesNothing(t *testing.T) {
	forEachImpl(t, func(t *testing.T, name string, factory Factory) {
		run(t, factory, 1, func(rank int, p mpi.Proc, clock *simtime.Clock) error {
			c := consts(t, p, mpi.ConstCommWorld, mpi.ConstFloat64)
			world, f64 := c[mpi.ConstCommWorld], c[mpi.ConstFloat64]
			const count = 32
			send := mpi.Float64Bytes(make([]float64, count))
			recv := make([]byte, 8*count)
			var err error
			one := func() {
				var req mpi.Handle
				if err == nil {
					req, err = p.Isend(send, count, f64, 0, 7, world)
				}
				if err == nil {
					_, err = p.Wait(req)
				}
				if err == nil {
					_, err = p.Recv(recv, count, f64, 0, 7, world)
				}
			}
			one()
			allocs := testing.AllocsPerRun(200, one)
			if err != nil {
				return err
			}
			if allocs != 0 {
				return fmt.Errorf("%v allocations per Isend+Wait+Recv, want 0", allocs)
			}
			return nil
		})
	})
}

// alltoallAllocs returns the heap objects one rank's Alltoall call costs
// on p ranks: the difference between a job making extra calls and one
// that does not, so launch and warm-up cancel out.
func alltoallAllocs(t *testing.T, factory Factory, p int) float64 {
	t.Helper()
	const warm, extra = 4, 40
	job := func(calls int) uint64 {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		run(t, factory, p, func(rank int, proc mpi.Proc, clock *simtime.Clock) error {
			c := consts(t, proc, mpi.ConstCommWorld, mpi.ConstInt64)
			world, i64 := c[mpi.ConstCommWorld], c[mpi.ConstInt64]
			send, recv := make([]byte, 8*p), make([]byte, 8*p)
			for i := 0; i < calls; i++ {
				if err := proc.Alltoall(send, 1, i64, recv, 1, i64, world); err != nil {
					return err
				}
			}
			return nil
		})
		runtime.ReadMemStats(&m1)
		return m1.Mallocs - m0.Mallocs
	}
	base := job(warm)
	more := job(warm + extra)
	if more < base {
		return 0
	}
	return float64(more-base) / float64(extra*p)
}

// TestAlltoallAllocsFlatInRanks: an Alltoall's allocations per call do
// not grow with the communicator — at 16 ranks a call sends 15 messages
// where at 4 it sends 3, so any per-message object would show.
func TestAlltoallAllocsFlatInRanks(t *testing.T) {
	forEachImpl(t, func(t *testing.T, name string, factory Factory) {
		a4 := alltoallAllocs(t, factory, 4)
		a16 := alltoallAllocs(t, factory, 16)
		t.Logf("allocations per Alltoall call: %.2f at p=4, %.2f at p=16", a4, a16)
		if a16 > a4+0.5 {
			t.Fatalf("Alltoall allocations grow with ranks: %.2f per call at p=4, %.2f at p=16", a4, a16)
		}
	})
}

// TestLaunchAllocsPerRank bounds what launching a rank costs: building
// an idle MPICH job (fabric, lower halves, kernel coroutines), running
// it and collecting its result allocates at most launchAllocsPerRank
// objects per rank, at 8 and at 256 ranks, and at most
// launchBytesPerRank bytes per rank at 256. Every engine shares the
// predefined datatypes and operations and the fabric's world-rank list,
// and keeps its predefined communicators and groups inside itself; the
// bounds were set at 25.5 and 23.1 objects and 1.7 KB. A world-rank
// list per engine would add 2 KB per rank at 256 ranks.
func TestLaunchAllocsPerRank(t *testing.T) {
	const launchAllocsPerRank, launchBytesPerRank = 26, 2048
	factory, err := Get("mpich")
	if err != nil {
		t.Fatal(err)
	}
	idle := func(int, mpi.Proc, *simtime.Clock) error { return nil }
	for _, n := range []int{8, 256} {
		launch := func() {
			j := cluster.New(n, 0, factory, testNet)
			j.Start(idle)
			if _, err := j.WaitResult(); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(5, launch)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for range 5 {
			launch()
		}
		runtime.ReadMemStats(&m1)
		bytes := float64(m1.TotalAlloc-m0.TotalAlloc) / 5 / float64(n)
		t.Logf("%d ranks: %.1f objects, %.0f bytes per rank", n, allocs/float64(n), bytes)
		if perRank := allocs / float64(n); perRank > launchAllocsPerRank {
			t.Errorf("%d ranks: launch allocates %.1f objects per rank, want <= %d", n, perRank, launchAllocsPerRank)
		}
		if n == 256 && bytes > launchBytesPerRank {
			t.Errorf("%d ranks: launch allocates %.0f bytes per rank, want <= %d", n, bytes, launchBytesPerRank)
		}
	}
}
