package mana

import (
	"bytes"
	"hash/fnv"
	"sync"
	"testing"

	"manasim/internal/app"
	"manasim/internal/ckptstore"
)

// bulkApp is a compute-only application with a fixed-size state buffer
// whose trailing region churns every step — the static-bulk shape (and
// stable snapshot length) that lets delta chains stay chunk-aligned, so
// the resolver's newest-wins skipping is actually exercised (ringApp's
// gob snapshot wobbles in size).
type bulkApp struct {
	steps int
	buf   []byte
}

func newBulkApp(steps int) app.Factory {
	return func() app.Instance { return &bulkApp{steps: steps} }
}

func (b *bulkApp) Setup(env *app.Env) error {
	b.buf = make([]byte, 8192)
	for i := range b.buf {
		b.buf[i] = byte(i * (env.Rank + 3))
	}
	return nil
}
func (b *bulkApp) Steps() int { return b.steps }
func (b *bulkApp) Step(env *app.Env, step int) error {
	env.Compute(1000)
	// Setup does not run on a restarted instance, so the mutation must
	// derive from env, not state captured there.
	for i := 6144; i < len(b.buf); i++ {
		b.buf[i] = byte(i ^ (step+1)*131 ^ env.Rank*17)
	}
	return nil
}
func (b *bulkApp) Finalize(env *app.Env) error { return nil }
func (b *bulkApp) Checksum() uint64 {
	h := fnv.New64a()
	h.Write(b.buf)
	return h.Sum64()
}
func (b *bulkApp) Snapshot() ([]byte, error) { return append([]byte(nil), b.buf...), nil }
func (b *bulkApp) Restore(data []byte) error {
	b.buf = append([]byte(nil), data...)
	return nil
}
func (b *bulkApp) FootprintBytes() int64 { return 1 << 20 }

// snapshotRecorder keeps the last checkpoint snapshot each rank took:
// after a chain is built, last[r] is exactly the application state rank
// r committed into the head generation.
type snapshotRecorder struct {
	mu   sync.Mutex
	last map[int][]byte
}

// wrap returns f's application with every snapshot recorded.
func (rec *snapshotRecorder) wrap(f app.Factory) app.Factory {
	return func() app.Instance { return &recordedApp{Instance: f(), rec: rec} }
}

// recordedApp is an application whose snapshots a snapshotRecorder
// keeps, by the rank it last ran as.
type recordedApp struct {
	app.Instance
	rec  *snapshotRecorder
	rank int
}

func (a *recordedApp) Setup(env *app.Env) error {
	a.rank = env.Rank
	return a.Instance.Setup(env)
}

func (a *recordedApp) Step(env *app.Env, step int) error {
	a.rank = env.Rank
	return a.Instance.Step(env, step)
}

func (a *recordedApp) Snapshot() ([]byte, error) {
	data, err := a.Instance.Snapshot()
	if err == nil {
		a.rec.mu.Lock()
		a.rec.last[a.rank] = append([]byte(nil), data...)
		a.rec.mu.Unlock()
	}
	return data, err
}

// buildChain drives run -> checkpoint -> restart segments until every
// boundary in ckpts has committed a generation into st.
func buildChain(t *testing.T, cfg Config, st *ckptstore.Store, factory app.Factory, ranks int, ckpts []int) {
	t.Helper()
	cfg.Store = st
	cfg.ExitAtCheckpoint = true
	if _, _, err := Run(cfg, ranks, factory, ckpts[0]); err != nil {
		t.Fatalf("generation 0: %v", err)
	}
	for _, at := range ckpts[1:] {
		s, err := RestartJobFromStore(cfg, st, factory)
		if err != nil {
			t.Fatalf("restart for checkpoint@%d: %v", at, err)
		}
		s.Co.RequestCheckpointAtStep(at)
		if _, err := s.Wait(); err != nil {
			t.Fatalf("checkpoint@%d: %v", at, err)
		}
	}
}

// TestStreamRestartAllImpls is the acceptance property of the restart
// pipeline: on every simulated MPI implementation, the head generation
// of a base+delta chain resolves to exactly the application state each
// rank committed, and a job restarted from it finishes with the same
// checksums as an uninterrupted run.
func TestStreamRestartAllImpls(t *testing.T) {
	const ranks, steps = 4, 10
	apps := []struct {
		name    string
		factory func(int) app.Factory
	}{
		{"ring", newRingApp},
		{"bulk", newBulkApp},
	}
	for _, impl := range []string{"mpich", "craympi", "openmpi", "exampi"} {
		for _, a := range apps {
			t.Run(impl+"/"+a.name, func(t *testing.T) {
				cfg := implFactory(t, impl)
				plain, _, err := Run(cfg, ranks, a.factory(steps), -1)
				if err != nil {
					t.Fatal(err)
				}
				st := mustOpenStore(ranks, ckptstore.Options{Delta: true, ChunkBytes: 512, ChainCap: 8})
				rec := &snapshotRecorder{last: make(map[int][]byte)}
				buildChain(t, cfg, st, rec.wrap(a.factory(steps)), ranks, []int{2, 4, 6})

				// The resolved state is the committed snapshot, byte for
				// byte.
				imgs, stats, err := st.MaterializeStreamHead()
				if err != nil {
					t.Fatal(err)
				}
				for r, img := range imgs {
					if committed, ok := rec.last[r]; !ok || !bytes.Equal(img.AppState, committed) {
						t.Fatalf("rank %d: resolved app state differs from the committed snapshot", r)
					}
				}
				if a.name == "bulk" {
					for r, cs := range stats {
						if cs.Links != 2 {
							t.Fatalf("rank %d did not resolve a 2-link chain: %+v", r, cs)
						}
						if cs.ChunksSkipped == 0 {
							t.Fatalf("rank %d inflated every chunk: %+v", r, cs)
						}
					}
				}

				// The restarted job completes with the uninterrupted
				// run's checksums.
				cfg.Store = st
				rst, err := restartWait(cfg, st, a.factory(steps))
				if err != nil {
					t.Fatal(err)
				}
				sameChecksums(t, plain.Checksums, rst.Checksums, impl+"/"+a.name+" restart")
			})
		}
	}
}

// aliasingBulkApp is a bulkApp whose Restore breaks the app.Instance
// contract: it keeps the snapshot slice instead of copying it.
type aliasingBulkApp struct{ bulkApp }

func (b *aliasingBulkApp) Restore(data []byte) error {
	b.buf = data
	return nil
}

// TestRestoredRanksSurviveSharedBuffer: the store resolves every rank
// into one reused state buffer and each rank restores before the next
// resolves. Rank 0's restored state must still be its own after rank 1
// has resolved over the buffer — which holds because Restore copies
// (the control, an application that keeps the slice, ends up holding
// rank 1's state on rank 0).
func TestRestoredRanksSurviveSharedBuffer(t *testing.T) {
	const ranks, steps = 2, 6
	cfg := implFactory(t, "mpich")
	st := mustOpenStore(ranks, ckptstore.Options{Delta: true, ChunkBytes: 512})
	rec := &snapshotRecorder{last: make(map[int][]byte)}
	buildChain(t, cfg, st, rec.wrap(newBulkApp(steps)), ranks, []int{2, 4})
	if bytes.Equal(rec.last[0], rec.last[1]) {
		t.Fatal("the two ranks committed the same state")
	}
	head := len(st.Generations()) - 1

	restore := func(factory app.Factory) []app.Instance {
		t.Helper()
		var insts []app.Instance
		// Ranks restore in rank order.
		if _, err := restartFromGeneration(cfg, st, head, func() app.Instance {
			inst := factory()
			insts = append(insts, inst)
			return inst
		}); err != nil {
			t.Fatal(err)
		}
		return insts
	}
	for r, inst := range restore(newBulkApp(steps)) {
		if got, _ := inst.Snapshot(); !bytes.Equal(got, rec.last[r]) {
			t.Fatalf("rank %d: restored state differs from the committed one after later ranks resolved", r)
		}
	}
	control := restore(func() app.Instance { return &aliasingBulkApp{bulkApp{steps: steps}} })
	if got, _ := control[0].Snapshot(); !bytes.Equal(got, rec.last[1]) {
		t.Fatal("control: rank 0's kept slice was not overwritten by rank 1; the buffer is not shared")
	}
}
