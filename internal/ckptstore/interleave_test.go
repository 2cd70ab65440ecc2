package ckptstore

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"manasim/internal/ckptimg"
)

// encodeGen encodes one generation of images for every rank against the
// store's delta plan, without committing.
func encodeGen(t *testing.T, s *Store, n, step int, app func(rank int) []byte) [][]byte {
	t.Helper()
	images := make([][]byte, n)
	for r := 0; r < n; r++ {
		img := testImage(r, n, step, app(r))
		var data []byte
		var err error
		if parent, pgen, ok := s.PlanDelta(r); ok {
			data, _, err = ckptimg.EncodeDelta(img, parent, pgen, s.EncodeOptions())
		} else {
			data, err = ckptimg.EncodeOpts(img, s.EncodeOptions())
		}
		if err != nil {
			t.Fatal(err)
		}
		images[r] = data
	}
	return images
}

// TestInterleavedStoreOps interleaves every kind of store and tier
// operation on one goroutine, the way the simulator drives a store:
// one caller at a time, the kernel's handoff ordering the next.
//
//   - commit-mem, commit-fs: after every commit, every committed
//     generation materializes to its exact bytes, with base bytes read.
//   - dedup-prune: head materializes interleave with commits whose
//     RetainBases pass evicts shared blobs; each generation resolves to
//     its exact bytes or fails ErrPruned, and pruning does happen.
//   - tier: Puts, read-through Gets, Deletes and DrainBarriers
//     interleave on one tier backend; a barrier flushes exactly the
//     surviving keys to the back tier.
func TestInterleavedStoreOps(t *testing.T) {
	for _, backend := range []string{"mem", "fs"} {
		t.Run("commit-"+backend, func(t *testing.T) {
			const n, gens = 4, 6
			opts := Options{Backend: backend, Delta: true, ChunkBytes: 128, ChainCap: 3}
			if backend == "fs" {
				opts.Dir = t.TempDir()
			}
			s := mustOpen(n, opts)
			for gen := 0; gen < gens; gen++ {
				commitGen(t, s, n, gen, func(r int) []byte { return appState(1000+r, gen) })
				for seq := 0; seq <= gen; seq++ {
					imgs, stats, err := s.MaterializeStream(seq)
					if err != nil {
						t.Fatalf("materialize gen %d after commit %d: %v", seq, gen, err)
					}
					for r, img := range imgs {
						if !bytes.Equal(img.AppState, appState(1000+r, seq)) {
							t.Fatalf("gen %d rank %d: app state mismatch", seq, r)
						}
						if stats[r].BaseBytes <= 0 {
							t.Fatalf("gen %d rank %d: no base bytes in %+v", seq, r, stats[r])
						}
					}
				}
			}
		})
	}

	t.Run("dedup-prune", func(t *testing.T) {
		const n, gens = 4, 12
		opts := dedupOptions()
		opts.RetainBases = 2
		s := mustOpen(n, opts)
		state := func(gen int) func(r int) []byte {
			return func(r int) []byte { return sharedAppState(8<<10, r, gen) }
		}
		pruned := 0
		for gen := 0; gen < gens; gen++ {
			commitGen(t, s, n, gen, state(gen))
			for seq := 0; seq <= gen; seq++ {
				imgs, _, err := s.MaterializeStream(seq)
				if errors.Is(err, ErrPruned) {
					pruned++
					continue
				}
				if err != nil {
					t.Fatalf("materialize gen %d after commit %d: %v", seq, gen, err)
				}
				for r, img := range imgs {
					if !bytes.Equal(img.AppState, state(seq)(r)) {
						t.Fatalf("gen %d rank %d: wrong bytes after commit %d", seq, r, gen)
					}
				}
			}
			imgs, _, err := s.MaterializeStreamHead()
			if err != nil {
				t.Fatalf("head after commit %d: %v", gen, err)
			}
			for r, img := range imgs {
				if !bytes.Equal(img.AppState, state(gen)(r)) {
					t.Fatalf("head rank %d: wrong bytes after commit %d", r, gen)
				}
			}
		}
		if pruned == 0 {
			t.Fatal("retention never pruned a generation")
		}
		if ds := s.DedupStats(); ds.Blobs == 0 || ds.StoredBytes <= 0 {
			t.Fatalf("blob table emptied by prunes: %+v", ds)
		}
	})

	t.Run("tier", func(t *testing.T) {
		tier, back := newTestTier(t)
		const writers, keysPer = 4, 16
		want := map[string][]byte{}
		for i := 0; i < keysPer; i++ {
			for w := 0; w < writers; w++ {
				k := fmt.Sprintf("gen%04d/rank%02d", i, w)
				data := bytes.Repeat([]byte{byte(w), byte(i)}, 128)
				if err := tier.Put(k, bytes.Clone(data)); err != nil {
					t.Fatal(err)
				}
				got, err := tier.Get(k)
				if err != nil || !bytes.Equal(got, data) {
					t.Fatalf("read-through of %s: %v", k, err)
				}
				want[k] = data
				if i%4 == 3 {
					if err := tier.Delete(k); err != nil {
						t.Fatal(err)
					}
					delete(want, k)
				}
			}
			if i%5 == 4 {
				if err := tier.(Drainer).DrainBarrier(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := tier.(Drainer).DrainBarrier(); err != nil {
			t.Fatal(err)
		}
		keys, err := back.List()
		if err != nil {
			t.Fatal(err)
		}
		if len(keys) != len(want) {
			t.Fatalf("back tier holds %d keys, want %d", len(keys), len(want))
		}
		for _, k := range keys {
			got, err := back.Get(k)
			if err != nil || !bytes.Equal(got, want[k]) {
				t.Fatalf("back tier %s: %v", k, err)
			}
		}
	})
}

// TestCommitBadDeltaCancelsAndDiscards proves first-error cancellation
// end to end: two ranks' delta images are corrupt, so Commit fails
// naming the lower of them, the chain records nothing, and the backend
// holds no blob of the failed generation.
func TestCommitBadDeltaCancelsAndDiscards(t *testing.T) {
	const n = 4
	s := mustOpen(n, Options{Delta: true, ChunkBytes: 128})
	commitGen(t, s, n, 0, func(r int) []byte { return appState(1000, 0) })

	images := encodeGen(t, s, n, 1, func(r int) []byte { return appState(1000, 1) })
	// Flip a payload bit in the deltas of ranks 3 and 2: IsDelta still
	// holds (the header is intact) but the section CRC fails validation.
	for _, r := range []int{3, 2} {
		images[r][len(images[r])/2] ^= 0x40
	}
	if _, err := s.Commit(images); err == nil {
		t.Fatal("commit of a corrupt delta succeeded")
	} else if !strings.HasPrefix(err.Error(), "ckptstore: generation 1 rank 2: ") {
		t.Fatalf("error does not name the first failing rank: %v", err)
	}

	if gens := s.Generations(); len(gens) != 1 {
		t.Fatalf("failed commit recorded a generation: %v", gens)
	}
	keys, err := s.b.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if strings.HasPrefix(k, "gen0001/") {
			t.Fatalf("failed commit left blob %q behind", k)
		}
	}
	// The store still accepts the repaired generation.
	commitGen(t, s, n, 1, func(r int) []byte { return appState(1000, 1) })
	if gens := s.Generations(); len(gens) != 2 || gens[1].DeltaRanks != n {
		t.Fatalf("recovery generation: %+v", s.Generations())
	}
}

// failingBackend wraps a backend and fails Put for one key.
type failingBackend struct {
	Backend
	failKey string
}

func (b *failingBackend) Put(key string, data []byte) error {
	if key == b.failKey {
		return fmt.Errorf("injected put failure for %q", key)
	}
	return b.Backend.Put(key, data)
}

// TestCommitPutFailureLeavesNoPartialGeneration injects a backend
// write failure mid-generation: the sibling blobs that did land must be
// deleted and the manifest must not advance.
func TestCommitPutFailureLeavesNoPartialGeneration(t *testing.T) {
	const n = 8
	inner := newMemBackend()
	s := &Store{
		b:     &failingBackend{Backend: inner, failKey: key(0, 5)},
		n:     n,
		opts:  Options{}.withDefaults(),
		index: make([]rankIndex, n),
	}
	images := make([][]byte, n)
	for r := 0; r < n; r++ {
		data, err := ckptimg.EncodeOpts(testImage(r, n, 0, appState(500, 0)), ckptimg.Options{})
		if err != nil {
			t.Fatal(err)
		}
		images[r] = data
	}
	if _, err := s.Commit(images); err == nil {
		t.Fatal("commit over a failing backend succeeded")
	}
	if gens := s.Generations(); len(gens) != 0 {
		t.Fatalf("failed commit recorded a generation: %v", gens)
	}
	keys, err := inner.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 0 {
		t.Fatalf("failed commit left blobs behind: %v", keys)
	}
}

// TestMaterializeChainStats pins the delta-aware cost model's inputs: a
// chain reads some of its base and only the winning chunks of its
// links — never more than the backend holds — and a base generation
// reads its whole image.
func TestMaterializeChainStats(t *testing.T) {
	s := mustOpen(1, Options{Delta: true, ChunkBytes: 128, ChainCap: 8})
	for gen := 0; gen < 3; gen++ {
		commitGen(t, s, 1, gen, func(int) []byte { return appState(1000, gen) })
	}
	gens := s.Generations()
	_, stats, err := s.MaterializeStream(2)
	if err != nil {
		t.Fatal(err)
	}
	st := stats[0]
	if st.Links != 2 || st.BaseBytes <= 0 || st.BaseBytes > gens[0].Bytes ||
		st.DeltaBytes <= 0 || st.DeltaBytes >= gens[1].Bytes+gens[2].Bytes {
		t.Fatalf("chain stats %+v, want 2 links reading at most base=%d and under delta=%d", st, gens[0].Bytes, gens[1].Bytes+gens[2].Bytes)
	}
	// Every output chunk is read exactly once (uncompressed base); the
	// superseded ones — generation 1's changed chunks and the base under
	// the winners — are skipped.
	if want := (1000 + 127) / 128; st.ChunksRead != want || st.ChunksSkipped == 0 {
		t.Fatalf("chunk accounting %+v, want %d read and some skipped", st, want)
	}
	// A base generation involves no chain.
	_, stats, err = s.MaterializeStream(0)
	if err != nil {
		t.Fatal(err)
	}
	if stats[0].Links != 0 || stats[0].BaseBytes != gens[0].Bytes || stats[0].DeltaBytes != 0 {
		t.Fatalf("base chain stats %+v", stats[0])
	}
}
