package mana

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"manasim/internal/apps"
	"manasim/internal/mpi"
)

// sharedLists returns every rank's cached communicator membership by
// virtual handle, failing unless the ranks of the session hold one
// backing array per distinct membership.
func sharedLists(t *testing.T, s *Session) []map[mpi.Handle][]int {
	t.Helper()
	arrays := map[string]*int{}
	out := make([]map[mpi.Handle][]int, len(s.runtimes))
	for r, rt := range s.runtimes {
		out[r] = map[mpi.Handle][]int{}
		for virt, m := range rt.members {
			l := m.ranks
			out[r][virt] = append([]int(nil), l...)
			key := fmt.Sprint(l)
			if a, ok := arrays[key]; ok && a != &l[0] {
				t.Fatalf("rank %d holds its own copy of membership %v", r, l)
			}
			arrays[key] = &l[0]
		}
	}
	// The tour's world and its duplicate, the two halves of its split
	// and the k-point communicator that leaves rank 0 out.
	if len(arrays) < 4 {
		t.Fatalf("%d distinct memberships, want at least 4: %v", len(arrays), out)
	}
	return out
}

// TestMembershipSharedPerJob: the ranks of a job share one world-rank
// list per distinct communicator membership (a duplicate of the world
// shares the world's), and a restart under another implementation
// rebuilds the same lists, shared the same way.
func TestMembershipSharedPerJob(t *testing.T) {
	const ranks, steps, cut = 4, 6, 3
	src := implFactory(t, "mpich")
	src.UniformHandles, src.ExitAtCheckpoint = true, true
	s, err := StartJob(src, ranks, apps.NewTour(steps))
	if err != nil {
		t.Fatal(err)
	}
	s.Co.RequestCheckpointAtStep(cut)
	if st, err := s.Wait(); err != nil || !st.Stopped {
		t.Fatalf("checkpoint at step %d: stopped %v, %v", cut, st.Stopped, err)
	}
	before := sharedLists(t, s)

	dst := implFactory(t, "openmpi")
	dst.UniformHandles, dst.ExitAtCheckpoint = true, true
	r, err := RestartJobFromStore(dst, s.Store(), apps.NewTour(steps))
	if err != nil {
		t.Fatal(err)
	}
	r.Co.RequestCheckpointAtStep(cut + 1)
	if st, err := r.Wait(); err != nil || !st.Stopped {
		t.Fatalf("restart under openmpi: stopped %v, %v", st.Stopped, err)
	}
	if after := sharedLists(t, r); !reflect.DeepEqual(after, before) {
		t.Fatalf("membership after the restart\n%v\nbefore\n%v", after, before)
	}
}

// heapBytesThrough is the heap the function fn (a name as the runtime
// reports it) has allocated so far in the process, from the memory
// profile: every allocation whose stack passes through fn.
// The profile is published a garbage collection or two late.
func heapBytesThrough(fn string) int64 {
	runtime.GC()
	runtime.GC()
	var recs []runtime.MemProfileRecord
	for {
		n, ok := runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:n]
			break
		}
		recs = make([]runtime.MemProfileRecord, n+64)
	}
	var total int64
	for _, rec := range recs {
		frames := runtime.CallersFrames(rec.Stack())
		for {
			f, more := frames.Next()
			if f.Function == fn {
				total += rec.AllocBytes
				break
			}
			if !more {
				break
			}
		}
	}
	return total
}

// TestDrainAllocPerRank bounds the heap bytes one checkpoint's drain
// allocates per rank of a 256-rank pipelined LAMMPS job, under each
// strategy, counted from a memory profile that samples every
// allocation. The toposort bound holds the transport's share of the
// all-pairs announcement burst, about 26 KB per rank here. A drain that
// copies an n-entry vector per rank on top — the receive counters'
// snapshot, a per-peer countdown, a row buffer as long as the longest
// possible row, the exchange's wire copies — breaks the bound: each
// such copy is 2 KB per rank at this size.
func TestDrainAllocPerRank(t *testing.T) {
	const n = 256
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	appf, in := pipelinedLammps(t, n)
	for _, c := range []struct {
		strat, fn string
		bound     int64
	}{
		{"twophase", "manasim/internal/ckpt/drain.(*TwoPhase).Drain", 9 << 10},
		{"toposort", "manasim/internal/ckpt/drain.(*TopoSort).Drain", 40 << 10},
	} {
		cfg := faultCfg(t, "mpich", nil)
		cfg.DrainStrategy, cfg.ExitAtCheckpoint = c.strat, true
		before := heapBytesThrough(c.fn)
		st, _, err := Run(cfg, n, appf, in.SimSteps/2)
		if err != nil || st.CkptTaken != 1 {
			t.Fatalf("%s: %d checkpoints, %v", c.strat, st.CkptTaken, err)
		}
		perRank := (heapBytesThrough(c.fn) - before) / n
		t.Logf("%s: %d B per rank", c.strat, perRank)
		if perRank == 0 || perRank > c.bound {
			t.Errorf("%s: the drain allocated %d B per rank, want in (0, %d]", c.strat, perRank, c.bound)
		}
	}
}
