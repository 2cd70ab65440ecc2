package ckptstore

import (
	"bytes"
	"errors"
	"reflect"
	"sort"
	"strings"
	"testing"

	"manasim/internal/ckptimg"
)

// sharedAppState builds an app state with a large static region every
// rank shares (the hpcg stencil-matrix shape dedup targets) plus a
// small rank- and generation-dependent tail.
func sharedAppState(sz, rank, gen int) []byte {
	out := make([]byte, sz)
	for i := range out {
		out[i] = byte(i * 7)
	}
	for i := sz * 7 / 8; i < sz; i++ {
		out[i] = byte(i ^ rank*37 ^ gen*131)
	}
	return out
}

func dedupOptions() Options {
	return Options{Dedup: true, Delta: true, ChunkBytes: 512, ChainCap: 4}
}

// TestDedupCommitSharesBlobs pins the core property: segments identical
// across ranks are stored once, so a commit's UniqueBytes lands well
// under its logical Bytes and the blob table reports shared references.
func TestDedupCommitSharesBlobs(t *testing.T) {
	const n = 8
	s := mustOpen(n, dedupOptions())
	for gen := 0; gen < 3; gen++ {
		g := commitGen(t, s, n, gen, func(r int) []byte { return sharedAppState(8<<10, r, gen) })
		if g.UniqueBytes <= 0 || g.UniqueBytes >= g.Bytes {
			t.Fatalf("generation %d: UniqueBytes %d outside (0, Bytes=%d)", gen, g.UniqueBytes, g.Bytes)
		}
	}
	ds := s.DedupStats()
	if ds.SharedRefs == 0 {
		t.Fatal("no shared blob references after committing identical cross-rank state")
	}
	if ds.StoredBytes >= ds.LogicalBytes {
		t.Fatalf("dedup stored %d bytes for %d logical", ds.StoredBytes, ds.LogicalBytes)
	}
	if ds.Ratio() < 2 {
		t.Fatalf("dedup ratio %.2f, want >= 2 on 8 ranks sharing 7/8 of their state", ds.Ratio())
	}
}

// TestDedupMaterializeMatchesNonDedup commits the same images through a
// dedup and a plain store and demands that both resolve every
// generation to exactly the committed application state, with dedup
// stats populated.
func TestDedupMaterializeMatchesNonDedup(t *testing.T) {
	const n = 4
	plainOpts := dedupOptions()
	plainOpts.Dedup = false
	dd, plain := mustOpen(n, dedupOptions()), mustOpen(n, plainOpts)
	for gen := 0; gen < 4; gen++ {
		images := make([][]byte, n)
		for r := 0; r < n; r++ {
			img := testImage(r, n, gen, sharedAppState(4<<10, r, gen))
			var data []byte
			var err error
			if parent, pgen, ok := dd.PlanDelta(r); ok {
				data, _, err = ckptimg.EncodeDelta(img, parent, pgen, dd.EncodeOptions())
			} else {
				data, err = ckptimg.EncodeOpts(img, dd.EncodeOptions())
			}
			if err != nil {
				t.Fatal(err)
			}
			images[r] = data
		}
		if _, err := dd.Commit(images); err != nil {
			t.Fatal(err)
		}
		if _, err := plain.Commit(images); err != nil {
			t.Fatal(err)
		}
	}
	for seq := 0; seq < 4; seq++ {
		got, _, err := dd.MaterializeStream(seq)
		if err != nil {
			t.Fatalf("dedup materialize %d: %v", seq, err)
		}
		want, _, err := plain.MaterializeStream(seq)
		if err != nil {
			t.Fatalf("plain materialize %d: %v", seq, err)
		}
		for r := range got {
			committed := sharedAppState(4<<10, r, seq)
			if !bytes.Equal(got[r].AppState, committed) || !bytes.Equal(want[r].AppState, committed) {
				t.Fatalf("generation %d rank %d: resolved state differs from the committed snapshot", seq, r)
			}
			recipe, err := dd.b.Get(key(seq, r))
			if err != nil {
				t.Fatal(err)
			}
			if total, keys, err := decodeRecipe(recipe); err != nil || total == 0 || len(keys) == 0 {
				t.Fatalf("generation %d rank %d: resolved through no blob (%d bytes, %d keys, %v)", seq, r, total, len(keys), err)
			}
		}
	}
}

// TestDedupSharedAcrossGenerations: a base re-storing segments an
// earlier generation already holds references the existing blobs, so
// the repeat base's UniqueBytes collapse to recipes plus the tail.
func TestDedupSharedAcrossGenerations(t *testing.T) {
	opts := dedupOptions()
	opts.ChainCap = ChainCapNone // every generation a full base
	s := mustOpen(2, opts)
	first := commitGen(t, s, 2, 0, func(r int) []byte { return sharedAppState(8<<10, r, 0) })
	blobsAfterFirst := s.DedupStats()
	// Same step, same state: the images are byte-identical, so the
	// repeat commit introduces no content blobs at all — its unique
	// bytes are the recipes plus whatever tiny metadata run changed.
	repeat := commitGen(t, s, 2, 0, func(r int) []byte { return sharedAppState(8<<10, r, 0) })
	if got := s.DedupStats(); got.StoredBytes != blobsAfterFirst.StoredBytes || got.Blobs != blobsAfterFirst.Blobs {
		t.Fatalf("re-committed identical base grew the blob table: %+v -> %+v", blobsAfterFirst, got)
	}
	if repeat.UniqueBytes >= first.UniqueBytes/2 {
		t.Fatalf("re-committed identical base charged %d unique bytes (first charged %d)", repeat.UniqueBytes, first.UniqueBytes)
	}
}

// TestPruneSharedBlobSurvives pins the refcount lifecycle: pruning a
// generation whose blobs a surviving generation shares must not delete
// them, and a retried prune is idempotent — references drop exactly
// once.
func TestPruneSharedBlobSurvives(t *testing.T) {
	opts := dedupOptions()
	opts.ChainCap = ChainCapNone
	s := mustOpen(1, opts)
	// Three bases over identical state: every content segment is shared
	// by all three generations.
	for gen := 0; gen < 3; gen++ {
		commitGen(t, s, 1, gen, func(int) []byte { return sharedAppState(4<<10, 0, 0) })
	}
	before := s.DedupStats()
	if err := prune(s, 1); err != nil {
		t.Fatal(err)
	}
	if got := s.prunedTo; got != 2 {
		t.Fatalf("cutoff %d, want 2", got)
	}
	// The shared blobs must survive the prune of generations 0 and 1...
	after := s.DedupStats()
	if after.StoredBytes == 0 || after.Blobs == 0 {
		t.Fatalf("pruning shared generations deleted live blobs: %+v", after)
	}
	if after.SharedRefs >= before.SharedRefs {
		t.Fatalf("prune dropped no references: %d -> %d", before.SharedRefs, after.SharedRefs)
	}
	// ...and the surviving generation still materializes bit-correct.
	imgs, _, err := s.MaterializeStream(2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(imgs[0].AppState, sharedAppState(4<<10, 0, 0)) {
		t.Fatal("surviving generation's state corrupted by prune")
	}
	// Pruning again over the same range is a no-op, not a double
	// decrement.
	if err := prune(s, 1); err != nil {
		t.Fatal(err)
	}
	if s.DedupStats() != after {
		t.Fatalf("retried prune changed the blob table: %+v -> %+v", after, s.DedupStats())
	}
	if _, _, err := s.MaterializeStream(2); err != nil {
		t.Fatalf("surviving generation unreadable after retried prune: %v", err)
	}
}

// TestDedupPruneRetryAfterFailure: a prune whose blob delete fails
// reports the error and leaves a retry safe — the recipe is gone, so
// the retry skips it instead of double-decrementing, and the cutoff
// advances once the failure clears.
func TestDedupPruneRetryAfterFailure(t *testing.T) {
	fb := &flakyBackend{Backend: newMemBackend(), failDelete: map[string]bool{}}
	s := &Store{
		b: fb, n: 1,
		opts:     dedupOptions().withDefaults(),
		index:    make([]rankIndex, 1),
		blobRefs: make(map[string]int),
	}
	s.opts.ChainCap = 0 // every generation a base
	// Two bases with disjoint states, then a third: pruning drops the
	// first two.
	for gen := 0; gen < 3; gen++ {
		commitGen(t, s, 1, gen, func(int) []byte { return sharedAppState(4<<10, 0, gen*1000) })
	}
	// Fail every blob delete once.
	for k := range s.blobRefs {
		fb.failDelete[k] = true
	}
	if err := prune(s, 1); err == nil || !strings.Contains(err.Error(), "injected delete failure") {
		t.Fatalf("prune over failing blob deletes: %v", err)
	}
	if got := s.prunedTo; got != 0 {
		t.Fatalf("cutoff advanced past failed blob deletes to %d", got)
	}
	fb.failDelete = nil
	if err := prune(s, 1); err != nil {
		t.Fatalf("retried prune: %v", err)
	}
	if got := s.prunedTo; got != 2 {
		t.Fatalf("retried cutoff %d, want 2", got)
	}
	if _, _, err := s.MaterializeStream(2); err != nil {
		t.Fatalf("head unreadable after prune retry: %v", err)
	}
}

// TestDedupCrashResume covers the content-addressed crash-resume rules:
// orphan recipes and blobs beyond the manifest are collected, refcounts
// are rebuilt from the surviving recipes, and the mode is pinned.
func TestDedupCrashResume(t *testing.T) {
	dir := t.TempDir()
	opts := dedupOptions()
	opts.Backend, opts.Dir = "fs", dir
	s := mustOpen(2, opts)
	for gen := 0; gen < 2; gen++ {
		commitGen(t, s, 2, gen, func(r int) []byte { return sharedAppState(4<<10, r, gen) })
	}
	liveStats := s.DedupStats()
	// Simulate a crash mid-commit: recipes and a blob for a generation
	// the manifest never recorded, plus a dangling content blob.
	b, err := NewBackend("fs", BackendConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	orphanSeg := []byte("orphaned segment payload never committed")
	if err := b.Put(blobKey(orphanSeg), orphanSeg); err != nil {
		t.Fatal(err)
	}
	if err := b.Put(key(7, 0), encodeRecipe(len(orphanSeg), []blobID{idOf(orphanSeg)})); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.DedupStats(); got != liveStats {
		t.Fatalf("resumed blob table %+v, want %+v", got, liveStats)
	}
	if _, err := s2.Backend().Get(blobKey(orphanSeg)); err == nil {
		t.Fatal("orphan blob survived the resume")
	}
	if _, err := s2.Backend().Get(key(7, 0)); err == nil {
		t.Fatal("orphan recipe survived the resume")
	}
	for seq := 0; seq < 2; seq++ {
		if _, _, err := s2.MaterializeStream(seq); err != nil {
			t.Fatalf("resumed materialize %d: %v", seq, err)
		}
	}

	// The manifest pins the mode: reopening without dedup must refuse.
	plain := opts
	plain.Dedup = false
	if _, err := Open(2, plain); err == nil {
		t.Fatal("non-dedup open of a dedup lineage accepted")
	}
}

// TestDedupRollbackKeepsSharedBlobs: a failed commit must delete only
// the blobs it introduced — blobs shared with committed generations
// survive the rollback and the head stays readable.
func TestDedupRollbackKeepsSharedBlobs(t *testing.T) {
	fb := &flakyBackend{Backend: newMemBackend()}
	s := &Store{
		b: fb, n: 1,
		opts:     dedupOptions().withDefaults(),
		index:    make([]rankIndex, 1),
		blobRefs: make(map[string]int),
	}
	s.opts.ChainCap = 0
	commitGen(t, s, 1, 0, func(int) []byte { return sharedAppState(4<<10, 0, 0) })
	stats := s.DedupStats()
	// The next commit shares the static region but fails at its recipe.
	fb.failPut = key(1, 0)
	img := testImage(0, 1, 1, sharedAppState(4<<10, 0, 1))
	data, err := ckptimg.EncodeOpts(img, s.EncodeOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit([][]byte{data}); err == nil {
		t.Fatal("commit over a failing recipe put succeeded")
	}
	if got := s.DedupStats(); got != stats {
		t.Fatalf("failed commit disturbed the blob table: %+v -> %+v", stats, got)
	}
	if _, _, err := s.MaterializeStream(0); err != nil {
		t.Fatalf("head unreadable after rolled-back commit: %v", err)
	}
	if errors.Is(err, ErrPruned) {
		t.Fatal("unexpected prune")
	}
}

// TestDedupManifestFailureRevertsRefs: a dedup commit that fails at its
// manifest write has already applied its refcount increments, so the
// rollback must take them back. Afterwards the refcount table equals a
// from-scratch recount of the same backend, no blob the commit
// introduced remains, and the next commit succeeds and reads back.
func TestDedupManifestFailureRevertsRefs(t *testing.T) {
	const n = 2
	var fb *flakyBackend
	o := dedupOptions()
	o.Backend, o.Dir = "fs", t.TempDir()
	o.WrapBackend = func(b Backend) Backend {
		fb = &flakyBackend{Backend: b}
		return fb
	}
	s := mustOpen(n, o)
	app := func(gen int) func(int) []byte {
		return func(r int) []byte { return sharedAppState(4<<10, r, gen) }
	}
	commitGen(t, s, n, 0, app(0))
	blobs := listBlobKeys(t, s)

	fb.failPut = manifestKey
	if _, err := s.Commit(encodeGen(t, s, n, 1, app(1))); err == nil {
		t.Fatal("commit over a failing manifest write succeeded")
	}
	fb.failPut = ""
	if got := listBlobKeys(t, s); !reflect.DeepEqual(got, blobs) {
		t.Fatalf("blobs after the failed commit %v, want the committed %v", got, blobs)
	}
	recount, err := OpenExisting(Options{Backend: "fs", Dir: o.Dir})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.blobRefs, recount.blobRefs) {
		t.Fatalf("refcounts after the failed commit %v, a recount gives %v", s.blobRefs, recount.blobRefs)
	}

	g := commitGen(t, s, n, 1, app(1))
	imgs, _, err := s.MaterializeStream(g.Seq)
	if err != nil {
		t.Fatalf("generation committed after the rollback unreadable: %v", err)
	}
	for r, img := range imgs {
		if !bytes.Equal(img.AppState, app(1)(r)) {
			t.Fatalf("rank %d restored the wrong state", r)
		}
	}
}

// TestRecipeRoundTrip pins the recipe codec and its corruption checks.
func TestRecipeRoundTrip(t *testing.T) {
	segs := [][]byte{[]byte("alpha"), []byte("beta-segment")}
	enc := encodeRecipe(17, []blobID{idOf(segs[0]), idOf(segs[1])})
	keys := []string{blobKey(segs[0]), blobKey(segs[1])}
	total, got, err := decodeRecipe(enc)
	if err != nil || total != 17 || len(got) != len(keys) {
		t.Fatalf("decode: total=%d keys=%v err=%v", total, got, err)
	}
	for i := range keys {
		if got[i] != keys[i] {
			t.Fatalf("key %d: %q != %q", i, got[i], keys[i])
		}
	}
	if _, _, err := decodeRecipe([]byte("MANACKPT not a recipe")); err == nil {
		t.Fatal("image bytes decoded as a recipe")
	}
	if _, _, err := decodeRecipe(enc[:len(enc)-3]); err == nil {
		t.Fatal("truncated recipe decoded")
	}
	if _, _, err := decodeRecipe(append(append([]byte(nil), enc...), 0xFF)); err == nil {
		t.Fatal("recipe with trailing bytes decoded")
	}
	if _, _, err := parseBlobKey("blob/zzzz-5-aa"); err == nil {
		t.Fatal("malformed blob key parsed")
	}
	if crc, n, err := parseBlobKey(blobKey([]byte("alpha"))); err != nil || n != 5 || crc == 0 {
		t.Fatalf("parseBlobKey: crc=%d n=%d err=%v", crc, n, err)
	}
}

// TestDedupResolutionErrorsTyped pins the error contract of the dedup
// read path: a damaged recipe, a content blob that contradicts its
// key, and a missing content blob all surface as *ChainLinkError
// naming the generation and rank — the same shape as plain-chain
// failures — with corruption still matchable via
// errors.Is(err, ckptimg.ErrCorrupt).
func TestDedupResolutionErrorsTyped(t *testing.T) {
	const n = 2
	mat := func(s *Store, seq int) error { _, _, err := s.MaterializeStream(seq); return err }
	t.Run("stream", func(t *testing.T) {
		// Damaged recipe: the gen key's bytes no longer decode.
		s := mustOpen(n, dedupOptions())
		commitGen(t, s, n, 0, func(r int) []byte { return sharedAppState(8<<10, r, 0) })
		if err := s.Backend().Put(key(0, 1), []byte("MANARCP1 but torn")); err != nil {
			t.Fatal(err)
		}
		err := mat(s, 0)
		var cle *ChainLinkError
		if !errors.As(err, &cle) {
			t.Fatalf("damaged recipe: want *ChainLinkError, got %T: %v", err, err)
		}
		if cle.Gen != 0 || cle.Rank != 1 {
			t.Fatalf("damaged recipe blamed gen %d rank %d, want 0/1", cle.Gen, cle.Rank)
		}

		// Corrupt content blob: stored bytes contradict the key.
		s = mustOpen(n, dedupOptions())
		commitGen(t, s, n, 0, func(r int) []byte { return sharedAppState(8<<10, r, 0) })
		blobs := listBlobKeys(t, s)
		data, err := s.Backend().Get(blobs[0])
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x40
		if err := s.Backend().Put(blobs[0], data); err != nil {
			t.Fatal(err)
		}
		err = mat(s, 0)
		cle = nil
		if !errors.As(err, &cle) {
			t.Fatalf("corrupt blob: want *ChainLinkError, got %T: %v", err, err)
		}
		if cle.Gen != 0 {
			t.Fatalf("corrupt blob blamed gen %d, want 0", cle.Gen)
		}
		if !errors.Is(err, ckptimg.ErrCorrupt) {
			t.Fatalf("corrupt blob does not match ckptimg.ErrCorrupt: %v", err)
		}

		// Missing content blob (not a prune: the generation is live).
		s = mustOpen(n, dedupOptions())
		commitGen(t, s, n, 0, func(r int) []byte { return sharedAppState(8<<10, r, 0) })
		if err := s.Backend().Delete(listBlobKeys(t, s)[0]); err != nil {
			t.Fatal(err)
		}
		err = mat(s, 0)
		cle = nil
		if !errors.As(err, &cle) {
			t.Fatalf("missing blob: want *ChainLinkError, got %T: %v", err, err)
		}
		if errors.Is(err, ErrPruned) {
			t.Fatal("missing blob on a live generation reported as ErrPruned")
		}
	})
}

// listBlobKeys returns the store's content blob keys, sorted.
func listBlobKeys(t *testing.T, s *Store) []string {
	t.Helper()
	keys, err := s.Backend().List()
	if err != nil {
		t.Fatal(err)
	}
	var blobs []string
	for _, k := range keys {
		if strings.HasPrefix(k, blobPrefix) {
			blobs = append(blobs, k)
		}
	}
	sort.Strings(blobs)
	if len(blobs) == 0 {
		t.Fatal("dedup store has no content blobs")
	}
	return blobs
}
