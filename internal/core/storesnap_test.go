package mana

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

	"manasim/internal/apps"
	"manasim/internal/vid"
)

// gobRoundTrip returns what the gob codec the vid store section
// replaced delivered for a snapshot: empty item and integer lists
// decode nil.
func gobRoundTrip(t *testing.T, st vid.StoreSnapshot) vid.StoreSnapshot {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&st); err != nil {
		t.Fatal(err)
	}
	var out vid.StoreSnapshot
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestStoreSnapshotsRoundTrip: the image's vid store section carries
// every rank's snapshot exactly. For each of the five applications, the
// snapshot each committed image decodes to equals the one the rank's
// store held at the cut, as gob delivered it — on a fresh job under
// MPICH, and again on the same job restarted with uniform handles under
// Open MPI, whose rebound store is checkpointed in turn.
func TestStoreSnapshotsRoundTrip(t *testing.T) {
	const ranks = 4
	for _, name := range apps.Names() {
		t.Run(name, func(t *testing.T) {
			spec, err := apps.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			in := spec.DefaultInput(apps.SiteDiscovery)
			in.Ranks, in.SimSteps, in.Local, in.PollsPerStep = ranks, 6, 8, 2
			factory := spec.New(in)
			run := func(what string, s *Session, step int) {
				t.Helper()
				s.Co.RequestCheckpointAtStep(step)
				if _, err := s.Wait(); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				imgs, _, err := s.Co.Store().MaterializeStreamHead()
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				for r, img := range imgs {
					want := gobRoundTrip(t, s.runtimes[r].store.SnapshotStore())
					if len(want.Items) == 0 {
						t.Fatalf("%s: rank %d checkpointed an empty vid store", what, r)
					}
					if !reflect.DeepEqual(img.Store, want) {
						t.Fatalf("%s: rank %d's vid store decoded as\n%+v\nwant\n%+v", what, r, img.Store, want)
					}
				}
			}
			cfg := implFactory(t, "mpich")
			cfg.UniformHandles, cfg.ExitAtCheckpoint = true, true
			s, err := StartJob(cfg, ranks, factory)
			if err != nil {
				t.Fatal(err)
			}
			run("fresh under mpich", s, 2)

			cfg = implFactory(t, "openmpi")
			cfg.UniformHandles, cfg.ExitAtCheckpoint = true, true
			if s, err = RestartJobFromStore(cfg, s.Store(), factory); err != nil {
				t.Fatal(err)
			}
			run("restarted under openmpi", s, 4)
		})
	}
}
