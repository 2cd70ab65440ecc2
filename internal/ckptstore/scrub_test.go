package ckptstore

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"manasim/internal/ckptimg"
)

// flipByte damages one stored blob in place and returns the original
// bytes so the test can restore them.
func flipByte(t *testing.T, b Backend, k string) []byte {
	t.Helper()
	orig, err := b.Get(k)
	if err != nil {
		t.Fatal(err)
	}
	mut := append([]byte(nil), orig...)
	mut[len(mut)/2] ^= 0x40
	if err := b.Put(k, mut); err != nil {
		t.Fatal(err)
	}
	return orig
}

// TestScrubCleanStore: a healthy store scrubs clean in both modes, with
// every stored byte accounted for.
func TestScrubCleanStore(t *testing.T) {
	for _, dedup := range []bool{false, true} {
		s := mustOpen(2, Options{Delta: true, Dedup: dedup, ChunkBytes: 1024})
		for g := 0; g < 3; g++ {
			commitGen(t, s, 2, g*10, func(r int) []byte { return appState(8192, g) })
		}
		rep, err := s.Scrub()
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Healthy() {
			t.Fatalf("dedup=%v: healthy store scrubbed dirty: %+v", dedup, rep.Findings)
		}
		if rep.Generations != 3 || rep.BlobsChecked == 0 || rep.BytesChecked == 0 {
			t.Fatalf("dedup=%v: report %s", dedup, rep)
		}
		if len(s.Quarantined()) != 0 {
			t.Fatalf("dedup=%v: clean scrub quarantined %v", dedup, s.Quarantined())
		}
	}
}

// TestScrubRottedMagicIsCorrupt: a plain store's rank image whose magic
// rotted after the commit is damage like any other flipped bit — scrub
// reports it as a corrupt blob and quarantines its generation.
func TestScrubRottedMagicIsCorrupt(t *testing.T) {
	s := mustOpen(2, Options{ChunkBytes: 1024})
	for g := 0; g < 2; g++ {
		commitGen(t, s, 2, g, func(r int) []byte { return appState(4096, g) })
	}
	k := key(1, 1)
	data, err := s.b.Get(k)
	if err != nil {
		t.Fatal(err)
	}
	data[2] ^= 0x01
	if err := s.b.Put(k, data); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Healthy() || len(rep.Findings) != 1 {
		t.Fatalf("rotted magic: findings %+v, want exactly one", rep.Findings)
	}
	if f := rep.Findings[0]; f.Kind != FindingCorruptBlob || f.Key != k || f.Gen != 1 || f.Rank != 1 || !errors.Is(f.Err, ckptimg.ErrCorrupt) {
		t.Fatalf("rotted magic reported as %+v, want a corrupt blob at %s", f, k)
	}
	if q := s.Quarantined(); len(q) != 1 || q[0] != 1 {
		t.Fatalf("quarantined %v, want [1]", q)
	}
}

// TestScrubQuarantineReleaseAndRebase: damage in a delta generation
// quarantines it and its chain descendants, the head quarantine forces
// the next commit to a full base, the quarantine survives reopening
// (including OpenExisting's manifest adoption), and restoring the bytes
// releases the generations on the next scrub.
func TestScrubQuarantineReleaseAndRebase(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(2, Options{Backend: "fs", Dir: dir, Delta: true, ChunkBytes: 1024})
	for g := 0; g < 3; g++ {
		commitGen(t, s, 2, g*10, func(r int) []byte { return appState(8192, g) })
	}
	orig := flipByte(t, s.b, key(1, 0))

	rep, err := s.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	var hit bool
	for _, f := range rep.Findings {
		if f.Key == key(1, 0) && f.Kind == FindingCorruptBlob && f.Gen == 1 && f.Rank == 0 {
			hit = true
		}
	}
	if !hit {
		t.Fatalf("damage not found: %+v", rep.Findings)
	}
	if q := rep.Quarantined; len(q) != 2 || q[0] != 1 || q[1] != 2 {
		t.Fatalf("quarantined %v, want [1 2] (the damaged delta and its descendant)", q)
	}
	if _, _, err := s.MaterializeStream(1); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("materialize quarantined gen 1: %v", err)
	}
	if _, _, err := s.MaterializeStream(2); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("stream quarantined gen 2: %v", err)
	}
	if _, _, err := s.MaterializeStream(0); err != nil {
		t.Fatalf("clean gen 0 refused: %v", err)
	}

	// Quarantining the head invalidates the chunk indexes: the next
	// commit must be a full base, chained on nothing damaged.
	gen := commitGen(t, s, 2, 30, func(r int) []byte { return appState(8192, 3) })
	if !gen.Base() {
		t.Fatal("commit after head quarantine chained a delta onto damage")
	}
	if _, _, err := s.MaterializeStream(gen.Seq); err != nil {
		t.Fatal(err)
	}

	// The quarantine is manifest state: a fresh process adopting the
	// manifest (OpenExisting, the scrub CLI's entry) sees it.
	s2, err := OpenExisting(Options{Backend: "fs", Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if q := s2.Quarantined(); len(q) != 2 || q[0] != 1 || q[1] != 2 {
		t.Fatalf("reopened quarantine %v, want [1 2]", q)
	}
	if !s2.IsQuarantined(1) || s2.IsQuarantined(0) {
		t.Fatal("IsQuarantined disagrees with the manifest")
	}
	if _, _, err := s2.MaterializeStream(1); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("reopened store materialized quarantined gen: %v", err)
	}

	// Restoring the damaged bytes releases the generations.
	if err := s.b.Put(key(1, 0), orig); err != nil {
		t.Fatal(err)
	}
	rep, err = s.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Released; len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("released %v, want [1 2]", got)
	}
	if _, _, err := s.MaterializeStream(1); err != nil {
		t.Fatalf("released generation refused: %v", err)
	}
}

// TestScrubOrphansAndRefDrift: keys nothing accounts for are deleted,
// refcount drift is rebuilt from the recipes, and neither quarantines
// anything.
func TestScrubOrphansAndRefDrift(t *testing.T) {
	s := mustOpen(2, Options{Dedup: true, ChunkBytes: 1024})
	for g := 0; g < 2; g++ {
		commitGen(t, s, 2, g*10, func(r int) []byte { return appState(8192, g) })
	}
	strays := []string{
		"blob/00000000-4-ffffffffffffffffffffffffffffffff",
		"gen0099/rank00",
		"junk",
	}
	for _, k := range strays {
		if err := s.b.Put(k, []byte("wxyz")); err != nil {
			t.Fatal(err)
		}
	}
	for id := range s.blobRefs {
		s.blobRefs[id]++
		break
	}

	rep, err := s.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	counts := map[FindingKind]int{}
	for _, f := range rep.Findings {
		counts[f.Kind]++
		if !f.Repaired {
			t.Fatalf("finding not repaired: %+v", f)
		}
	}
	if counts[FindingOrphanBlob] != 3 || counts[FindingRefDrift] != 1 {
		t.Fatalf("finding counts %v, want 3 orphans and 1 drift", counts)
	}
	if rep.Repaired != 4 || len(rep.Quarantined) != 0 {
		t.Fatalf("report %s", rep)
	}
	for _, k := range strays {
		if _, err := s.b.Get(k); err == nil {
			t.Fatalf("orphan %q survived the scrub", k)
		}
	}
	if rep2, err := s.Scrub(); err != nil || !rep2.Healthy() {
		t.Fatalf("second scrub not clean: %v %+v", err, rep2.Findings)
	}
	if _, _, err := s.MaterializeStreamHead(); err != nil {
		t.Fatal(err)
	}
}

// TestScrubRepairFromDonor: a damaged content blob whose bytes survive
// inside another generation's image under a different run grouping is
// re-derived from that donor; a blob embedding generation-specific
// metadata is not, and quarantines instead. Two full images of the same
// app state with different-length META sections shift every coalesced
// run boundary, so the shared app frames land in differently-grouped
// (hence differently-keyed) run blobs — the donor scenario.
func TestScrubRepairFromDonor(t *testing.T) {
	s := mustOpen(1, Options{Dedup: true, ChunkBytes: 64})
	app := make([]byte, 64<<10)
	rand.New(rand.NewSource(1)).Read(app)
	impls := []string{"mpich", "mpich-" + string(bytes.Repeat([]byte{'x'}, 96))}
	for g, impl := range impls {
		img := &ckptimg.Image{Rank: 0, NRanks: 1, Step: g, Impl: impl, Design: "virtid",
			AppState: append([]byte(nil), app...)}
		data, err := ckptimg.EncodeOpts(img, s.EncodeOptions())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Commit([][]byte{data}); err != nil {
			t.Fatal(err)
		}
	}
	recipeKeys := func(seq int) []string {
		data, err := s.b.Get(key(seq, 0))
		if err != nil {
			t.Fatal(err)
		}
		_, ids, err := decodeRecipe(data)
		if err != nil {
			t.Fatal(err)
		}
		keys := make([]string, len(ids))
		for i, id := range ids {
			keys[i] = id.key()
		}
		return keys
	}
	inG1 := map[string]bool{}
	for _, bk := range recipeKeys(1) {
		inG1[bk] = true
	}
	var unique []string
	for _, bk := range recipeKeys(0) {
		if !inG1[bk] {
			unique = append(unique, bk)
		}
	}
	if len(unique) < 2 {
		t.Fatalf("run regrouping did not happen: %d blobs unique to generation 0", len(unique))
	}

	repaired := 0
	for _, bk := range unique {
		orig, err := s.b.Get(bk)
		if err != nil {
			t.Fatal(err)
		}
		mut := append([]byte(nil), orig...)
		mut[len(mut)/2] ^= 1
		if err := s.b.Put(bk, mut); err != nil {
			t.Fatal(err)
		}
		rep, err := s.Scrub()
		if err != nil {
			t.Fatal(err)
		}
		var f *ScrubFinding
		for i := range rep.Findings {
			if rep.Findings[i].Key == bk {
				f = &rep.Findings[i]
			}
		}
		if f == nil || f.Kind != FindingCorruptBlob {
			t.Fatalf("damaged blob %q not reported corrupt: %+v", bk, rep.Findings)
		}
		if f.Repaired {
			repaired++
			if got, err := s.b.Get(bk); err != nil || !bytes.Equal(got, orig) {
				t.Fatalf("repair of %q wrote wrong bytes (%v)", bk, err)
			}
			if len(rep.Quarantined) != 0 {
				t.Fatalf("repaired damage still quarantined %v", rep.Quarantined)
			}
			if _, _, err := s.MaterializeStream(0); err != nil {
				t.Fatal(err)
			}
		} else {
			// The run embedding generation-0 metadata has no donor:
			// quarantine, then restore and release.
			if len(rep.Quarantined) == 0 {
				t.Fatalf("unrepairable blob %q quarantined nothing", bk)
			}
			if err := s.b.Put(bk, orig); err != nil {
				t.Fatal(err)
			}
			rep2, err := s.Scrub()
			if err != nil {
				t.Fatal(err)
			}
			if len(rep2.Released) == 0 {
				t.Fatal("restoring the blob did not release the generation")
			}
		}
	}
	if repaired == 0 {
		t.Fatal("no damaged blob was re-derivable from the donor generation")
	}
}
