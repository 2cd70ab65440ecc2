package ckptstore

import (
	"bytes"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"manasim/internal/ckptimg"
)

// opLog is the backend-call sequence a recordingBackend observes, one
// "op key len" line per call.
type opLog struct {
	ops []string
}

func (l *opLog) add(op, key string, n int) {
	l.ops = append(l.ops, op+" "+key+" "+strconv.Itoa(n))
}

// recordingBackend logs every call it forwards as (op, key, len): the
// length of the blob put or got, or of the key list. prefix tells the
// store's own backend ("") from a tier backend's back tier ("back.").
type recordingBackend struct {
	Backend
	prefix string
	log    *opLog
}

func (b *recordingBackend) Put(key string, data []byte) error {
	b.log.add(b.prefix+"put", key, len(data))
	return b.Backend.Put(key, data)
}

func (b *recordingBackend) Get(key string) ([]byte, error) {
	data, err := b.Backend.Get(key)
	n := len(data)
	if err != nil {
		n = -1
	}
	b.log.add(b.prefix+"get", key, n)
	return data, err
}

func (b *recordingBackend) List() ([]string, error) {
	keys, err := b.Backend.List()
	b.log.add(b.prefix+"list", "", len(keys))
	return keys, err
}

func (b *recordingBackend) Delete(key string) error {
	b.log.add(b.prefix+"delete", key, 0)
	return b.Backend.Delete(key)
}

// DrainBarrier forwards Drainer, so the store still flushes a tier.
func (b *recordingBackend) DrainBarrier() error {
	b.log.add(b.prefix+"drain", "", 0)
	if d, ok := b.Backend.(Drainer); ok {
		return d.DrainBarrier()
	}
	return nil
}

// recordLifecycle runs one scripted store lifecycle over a recording
// backend and returns the backend calls it made: a base, two deltas
// and a second base with a delta on it, all deduplicated across ranks
// and generations; a prune of the first chain; a scrub that repairs two
// damaged blobs from a donor rank; and a RestoreStream of the head.
func recordLifecycle(t *testing.T, o Options) []string {
	t.Helper()
	const n = 3
	log := &opLog{}
	o.Delta, o.Dedup, o.ChunkBytes, o.ChainCap = true, true, 64, 8
	o.WrapBackend = func(b Backend) Backend {
		if tb, ok := b.(*tierBackend); ok {
			tb.back = &recordingBackend{Backend: tb.back, prefix: "back.", log: log}
		}
		return &recordingBackend{Backend: b, log: log}
	}
	s, err := Open(n, o)
	if err != nil {
		t.Fatal(err)
	}
	// Every rank holds the same state, so ranks share its chunks; the
	// implementation name's length differs per rank, which regroups the
	// coalesced segment runs and gives a damaged run a donor rank.
	commit := func(step int, wantDelta bool) {
		images := make([][]byte, n)
		for r := range images {
			img := testImage(r, n, step, appState(96<<10, step/2))
			img.Impl += strings.Repeat("x", 100*r)
			if parent, pgen, ok := s.PlanDelta(r); ok {
				images[r], _, err = ckptimg.EncodeDelta(img, parent, pgen, s.EncodeOptions())
			} else {
				images[r], err = ckptimg.EncodeOpts(img, s.EncodeOptions())
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		gen, err := s.Commit(images)
		if err != nil {
			t.Fatal(err)
		}
		if (gen.DeltaRanks == n) != wantDelta {
			t.Fatalf("generation %+v, want delta=%v", gen, wantDelta)
		}
	}
	commit(0, false)
	commit(2, true)
	commit(4, true)
	s.ForceBase()
	commit(6, false)
	commit(8, true)
	if err := prune(s, 1); err != nil || s.prunedTo != 3 {
		t.Fatalf("prune: %v, pruned before %d", err, s.prunedTo)
	}

	// Damage the first two blobs only rank 0's base recipe lists whose
	// bytes rank 1's base image holds as a run of whole frames.
	donor, err := s.getBlob(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	bounds, _ := ckptimg.SectionFrameBounds(donor)
	recipe, err := s.b.Get(key(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	_, keys, err := decodeRecipe(recipe)
	if err != nil {
		t.Fatal(err)
	}
	var damaged []string
	for _, bk := range keys {
		if s.blobRefs[bk] != 1 || slices.Contains(damaged, bk) {
			continue
		}
		_, length, _ := parseBlobKey(bk)
		for _, b := range bounds {
			if _, ok := slices.BinarySearch(bounds, b+int(length)); ok && blobKey(donor[b:b+int(length)]) == bk {
				damaged = append(damaged, bk)
				break
			}
		}
		if len(damaged) == 2 {
			break
		}
	}
	if len(damaged) != 2 {
		t.Fatalf("found %d donor-repairable blobs, want 2", len(damaged))
	}
	for _, bk := range damaged {
		flipByte(t, s.b, bk)
	}
	rep, err := s.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Repaired != 2 || len(rep.Findings) != 2 || len(rep.Quarantined) != 0 {
		t.Fatalf("scrub: %s, findings %+v", rep, rep.Findings)
	}

	if _, err := s.RestoreStream(4, func(img *ckptimg.Image) error {
		if !bytes.Equal(img.AppState, appState(96<<10, 4)) {
			t.Errorf("rank %d: restored state differs from the committed one", img.Rank)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return log.ops
}

// TestStoreOpsDeterministic: the sequence of backend calls a store
// makes is a pure function of its inputs — the same scripted lifecycle
// records the same (op, key, len) log on every rerun and at any
// GOMAXPROCS, on mem and on a tier with its back tier's flushes logged
// too.
func TestStoreOpsDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, backend := range []string{"mem", "tier"} {
		t.Run(backend, func(t *testing.T) {
			var first []string
			for _, procs := range []int{1, 4} {
				runtime.GOMAXPROCS(procs)
				for run := 0; run < 3; run++ {
					o := Options{Backend: backend}
					if backend == "tier" {
						o.Dir = t.TempDir()
					}
					log := recordLifecycle(t, o)
					if first == nil {
						first = log
						continue
					}
					for i := range max(len(log), len(first)) {
						if i >= len(log) || i >= len(first) || log[i] != first[i] {
							t.Fatalf("GOMAXPROCS=%d run %d: op %d of %d differs from the first run's %d: %q vs %q",
								procs, run, i, len(log), len(first), at(log, i), at(first, i))
						}
					}
				}
			}
		})
	}
}

// at returns log[i], or "<end>" past its end.
func at(log []string, i int) string {
	if i < len(log) {
		return log[i]
	}
	return "<end>"
}
