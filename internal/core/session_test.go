package mana

import (
	"slices"
	"testing"

	"manasim/internal/mpi"
	"manasim/internal/transport"
)

// physHandles lists the lower-half handles a finished session's ranks
// hold, rank by rank: MANA's private communicator, then the physical
// handle behind every live virtual id.
func physHandles(t *testing.T, s *Session) []mpi.Handle {
	t.Helper()
	var out []mpi.Handle
	for _, rt := range s.runtimes {
		out = append(out, rt.manaComm)
		for _, it := range rt.store.Items() {
			if it.Freed {
				continue
			}
			h, err := rt.store.Phys(it.Kind, it.Virt)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, h)
		}
	}
	return out
}

// TestPhysicalHandlesFollowSession: Open MPI and ExaMPI mix the fabric's
// session into their handle addresses. A job's handles are a function
// of its configuration, not of how many fabrics the process built
// before it, and a restart — a new lower-half session — hands out
// handles that differ from those of the run that wrote its image.
func TestPhysicalHandlesFollowSession(t *testing.T) {
	const ranks, steps, ckptAt = 4, 6, 3
	for _, impl := range []string{"openmpi", "exampi"} {
		t.Run(impl, func(t *testing.T) {
			cfg := implFactory(t, impl)
			run := func() ([]mpi.Handle, *Session) {
				s, err := StartJob(cfg, ranks, newRingApp(steps))
				if err != nil {
					t.Fatal(err)
				}
				s.Co.RequestCheckpointAtStep(ckptAt)
				if _, err := s.Wait(); err != nil {
					t.Fatal(err)
				}
				return physHandles(t, s), s
			}
			first, writer := run()
			for i := 0; i < 5; i++ {
				transport.NewFabric(ranks).Close()
			}
			again, _ := run()
			if !slices.Equal(first, again) {
				t.Fatalf("handles moved after 5 unrelated fabrics:\n%x\n%x", first, again)
			}

			s, err := RestartJobFromStore(cfg, writer.Store(), newRingApp(steps))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Wait(); err != nil {
				t.Fatalf("restart: %v", err)
			}
			for r, rt := range s.runtimes {
				if rt.manaComm == writer.runtimes[r].manaComm {
					t.Fatalf("rank %d's MANA communicator %#x is the writer's", r, rt.manaComm)
				}
			}
			if slices.Equal(physHandles(t, s), first) {
				t.Fatal("the restart hands out the writer's handles")
			}
		})
	}
}
