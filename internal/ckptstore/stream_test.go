package ckptstore

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"manasim/internal/ckptimg"
)

// matchCommitted materializes seq and checks that every rank's image
// carries exactly the application state it committed (want) and the
// committed identity. It returns the per-rank chain stats for further
// assertions.
func matchCommitted(t *testing.T, s *Store, seq, step int, want func(rank int) []byte) []ChainStats {
	t.Helper()
	imgs, stats, err := s.MaterializeStream(seq)
	if err != nil {
		t.Fatalf("materialize gen %d: %v", seq, err)
	}
	for r, img := range imgs {
		if !bytes.Equal(img.AppState, want(r)) {
			t.Fatalf("gen %d rank %d: app state differs from the committed snapshot", seq, r)
		}
		if img.Step != step || img.Rank != r || img.NRanks != len(imgs) {
			t.Fatalf("gen %d rank %d: identity %d/%d@%d, committed %d/%d@%d",
				seq, r, img.Rank, img.NRanks, img.Step, r, len(imgs), step)
		}
	}
	return stats
}

// TestStreamMatchesBatchEveryGeneration is the resolver's correctness
// property at store level: for chains of every depth, in every
// compression tier, each generation resolves to exactly the
// application state every rank committed.
func TestStreamMatchesBatchEveryGeneration(t *testing.T) {
	for _, tier := range []struct {
		name     string
		compress bool
		tier     ckptimg.CompressTier
	}{
		{"raw", false, ckptimg.TierBalanced},
		{"gzip", true, ckptimg.TierBalanced},
		{"fast-lz", true, ckptimg.TierFastLZ},
	} {
		s := mustOpen(2, Options{Delta: true, ChunkBytes: 128, ChainCap: 8, Compress: tier.compress, CompressTier: tier.tier})
		state := func(gen int) func(int) []byte {
			return func(r int) []byte { return appState(1000+64*r, gen) }
		}
		for gen := 0; gen < 5; gen++ {
			commitGen(t, s, 2, gen, state(gen))
		}
		for gen := 0; gen < 5; gen++ {
			for r, st := range matchCommitted(t, s, gen, gen, state(gen)) {
				if st.Links != gen {
					t.Fatalf("%s gen %d rank %d resolved %d links", tier.name, gen, r, st.Links)
				}
			}
		}
	}
}

// TestStreamSkipsSupersededChunks pins the newest-wins win: on a chain
// whose generations mutate the same region, every older link's changed
// chunks are superseded and never inflated, each output chunk is read
// exactly once, and the resolver holds the chain's blobs, one state and
// one chunk of scratch — never a state per link.
func TestStreamSkipsSupersededChunks(t *testing.T) {
	const n, sz, chunk, gens = 1, 4096, 256, 5
	s := mustOpen(n, Options{Delta: true, ChunkBytes: chunk, ChainCap: 8})
	for gen := 0; gen < gens; gen++ {
		commitGen(t, s, n, gen, func(int) []byte { return appState(sz, gen) })
	}
	st := matchCommitted(t, s, gens-1, gens-1, func(int) []byte { return appState(sz, gens-1) })[0]
	// Every output position is read exactly once (uncompressed base).
	if want := sz / chunk; st.ChunksRead != want {
		t.Fatalf("read %d chunks, want %d", st.ChunksRead, want)
	}
	// Present in the chain: the base's chunks plus each link's changed
	// last quarter. Everything not read was skipped.
	if want := sz/chunk + (gens-1)*(sz/4)/chunk; st.ChunksRead+st.ChunksSkipped != want {
		t.Fatalf("read+skipped %d+%d, the chain holds %d chunk payloads", st.ChunksRead, st.ChunksSkipped, want)
	}
	var chainBytes, deltaBytes int64
	for _, g := range s.Generations() {
		chainBytes += g.Bytes
		if !g.Base() {
			deltaBytes += g.Bytes
		}
	}
	if st.DeltaBytes <= 0 || st.DeltaBytes >= deltaBytes {
		t.Fatalf("read %d delta bytes, want some but fewer than the %d the links hold", st.DeltaBytes, deltaBytes)
	}
	if st.PeakBytes > chainBytes+sz+chunk {
		t.Fatalf("peak %d above blobs %d + one state + one chunk", st.PeakBytes, chainBytes)
	}
}

// TestStreamLengthChangingChain covers chains whose application state
// grows and shrinks between generations: ownership still resolves per
// position, with prefix-CRC verification where chunk lengths differ.
func TestStreamLengthChangingChain(t *testing.T) {
	sizes := []int{1000, 700, 1300, 1295, 40}
	s := mustOpen(1, Options{Delta: true, ChunkBytes: 128, ChainCap: 8})
	for gen, sz := range sizes {
		commitGen(t, s, 1, gen, func(int) []byte { return appState(sz, gen) })
	}
	for gen, sz := range sizes {
		matchCommitted(t, s, gen, gen, func(int) []byte { return appState(sz, gen) })
	}
}

// TestStreamFullImageHead streams a head generation that is itself a
// base: no chain, a plain decode.
func TestStreamFullImageHead(t *testing.T) {
	s := mustOpen(2, Options{ChunkBytes: 128})
	commitGen(t, s, 2, 0, func(r int) []byte { return appState(500, r) })
	stats := matchCommitted(t, s, 0, 0, func(r int) []byte { return appState(500, r) })
	if stats[0].Links != 0 || stats[0].ChunksRead == 0 {
		t.Fatalf("full-head stats %+v", stats[0])
	}
}

// TestCorruptMiddleLinkFailsTyped is the corrupt-chain acceptance
// property: a damaged middle delta link fails materialization with a
// ChainLinkError naming the damaged generation (wrapping
// ckptimg.ErrCorrupt), and no partial state is returned.
func TestCorruptMiddleLinkFailsTyped(t *testing.T) {
	const badGen = 2
	for _, mode := range []string{"flip", "truncate"} {
		s := mustOpen(1, Options{Delta: true, ChunkBytes: 128, ChainCap: 8})
		for gen := 0; gen < 4; gen++ {
			commitGen(t, s, 1, gen, func(int) []byte { return appState(1000, gen) })
		}
		blob, err := s.b.Get(key(badGen, 0))
		if err != nil {
			t.Fatal(err)
		}
		switch mode {
		case "flip":
			blob[len(blob)/2] ^= 0x20
		case "truncate":
			blob = blob[:len(blob)-10]
		}
		if err := s.b.Put(key(badGen, 0), blob); err != nil {
			t.Fatal(err)
		}

		imgs, stats, err := s.MaterializeStream(3)
		var cle *ChainLinkError
		if !errors.As(err, &cle) {
			t.Fatalf("%s: want *ChainLinkError, got %T: %v", mode, err, err)
		}
		if cle.Gen != badGen || cle.Rank != 0 {
			t.Fatalf("%s: error names generation %d rank %d, want %d/0", mode, cle.Gen, cle.Rank, badGen)
		}
		if !errors.Is(err, ckptimg.ErrCorrupt) {
			t.Fatalf("%s: error does not wrap ErrCorrupt: %v", mode, err)
		}
		// No partially-applied state escapes.
		if imgs != nil || stats != nil {
			t.Fatalf("%s: corrupt chain returned partial results", mode)
		}
		// Resolving straight into a callback fails the same way and
		// never hands the damaged rank over.
		stats, err = s.RestoreStream(3, func(*ckptimg.Image) error {
			t.Fatalf("%s: a corrupt chain reached the callback", mode)
			return nil
		})
		if !errors.As(err, &cle) || cle.Gen != badGen || !errors.Is(err, ckptimg.ErrCorrupt) || stats != nil {
			t.Fatalf("%s: RestoreStream: %v, want a *ChainLinkError for generation %d", mode, err, badGen)
		}
		// Undamaged generations still materialize.
		if _, _, err := s.MaterializeStream(1); err != nil {
			t.Fatalf("%s: gen 1 after corruption: %v", mode, err)
		}
	}
}

// TestStreamRejectsOversizedCompressedBase swaps a compressed base for
// one from a longer lineage whose prefix matches the chain's CRCs: a
// gzip base reveals its length only at EOF, so the resolver must drain
// to the chain's expected length and refuse the excess.
func TestStreamRejectsOversizedCompressedBase(t *testing.T) {
	s := mustOpen(1, Options{Delta: true, ChunkBytes: 128, ChainCap: 8, Compress: true})
	commitGen(t, s, 1, 0, func(int) []byte { return appState(1000, 0) })
	commitGen(t, s, 1, 1, func(int) []byte { return appState(1000, 1) })
	long := append(appState(1000, 0), bytes.Repeat([]byte{7}, 512)...)
	forged, err := ckptimg.EncodeOpts(testImage(0, 1, 0, long), s.EncodeOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.b.Put(key(0, 0), forged); err != nil {
		t.Fatal(err)
	}
	_, _, err = s.MaterializeStream(1)
	var cle *ChainLinkError
	if !errors.As(err, &cle) || cle.Gen != 0 {
		t.Fatalf("streaming accepted an oversized compressed base: %v", err)
	}
}

// rankState is rank r's application state at generation gen: appState
// of sz bytes, made distinct per rank.
func rankState(r, sz, gen int) []byte {
	out := appState(sz, gen)
	for i := range out {
		out[i] ^= byte(37*r + 1)
	}
	return out
}

// TestRestoreStreamMatchesMaterialize: handing each rank's image to a
// callback resolves exactly what MaterializeStream returns — the same
// state, identity and ChainStats for every rank — in every compression
// tier, over full and delta heads and ranks whose state sizes differ
// (the reused buffer grows and shrinks between ranks). The callback
// runs once per rank, in rank order, and never overlaps itself.
func TestRestoreStreamMatchesMaterialize(t *testing.T) {
	const n, gens = 6, 4
	size := func(r int) int { return 1300 - 97*r }
	for _, tier := range []struct {
		name     string
		compress bool
		tier     ckptimg.CompressTier
	}{
		{"raw", false, ckptimg.TierBalanced},
		{"gzip", true, ckptimg.TierBalanced},
		{"fast-lz", true, ckptimg.TierFastLZ},
	} {
		s := mustOpen(n, Options{Delta: true, ChunkBytes: 128, ChainCap: 8, Compress: tier.compress, CompressTier: tier.tier})
		for gen := 0; gen < gens; gen++ {
			commitGen(t, s, n, gen, func(r int) []byte { return rankState(r, size(r), gen) })
		}
		for gen := 0; gen < gens; gen++ {
			want, wantStats, err := s.MaterializeStream(gen)
			if err != nil {
				t.Fatal(err)
			}
			var got []*ckptimg.Image
			var inside bool
			stats, err := s.RestoreStream(gen, func(img *ckptimg.Image) error {
				if inside {
					t.Errorf("%s gen %d: callback re-entered", tier.name, gen)
				}
				inside = true
				defer func() { inside = false }()
				if img.Rank != len(got) {
					t.Errorf("%s gen %d: rank %d handed over after %d ranks", tier.name, gen, img.Rank, len(got))
				}
				cp := *img
				cp.AppState = append([]byte(nil), img.AppState...)
				got = append(got, &cp)
				return nil
			})
			if err != nil {
				t.Fatalf("%s gen %d: %v", tier.name, gen, err)
			}
			if len(got) != n {
				t.Fatalf("%s gen %d: %d ranks handed over, want %d", tier.name, gen, len(got), n)
			}
			for r := range want {
				if !bytes.Equal(got[r].AppState, want[r].AppState) ||
					!bytes.Equal(got[r].AppState, rankState(r, size(r), gen)) {
					t.Fatalf("%s gen %d rank %d: restored state differs from the committed one", tier.name, gen, r)
				}
				if got[r].Step != gen || got[r].Rank != r || got[r].NRanks != n {
					t.Fatalf("%s gen %d rank %d: identity %d/%d@%d", tier.name, gen, r, got[r].Rank, got[r].NRanks, got[r].Step)
				}
				if stats[r] != wantStats[r] {
					t.Fatalf("%s gen %d rank %d: stats %+v, MaterializeStream reports %+v", tier.name, gen, r, stats[r], wantStats[r])
				}
			}
		}
	}
}

// TestRestoreStreamSharesOneBuffer: every rank resolves into the same
// state buffer, so rank 1 overwrites the bytes
// rank 0 was handed. A callback that copies what it keeps still holds
// rank 0's state intact; one that kept the slice would now hold rank 1's.
func TestRestoreStreamSharesOneBuffer(t *testing.T) {
	const sz = 1024
	for _, head := range []int{0, 2} { // a full head, then a two-link chain
		s := mustOpen(2, Options{Delta: true, ChunkBytes: 128, ChainCap: 8})
		for gen := 0; gen <= head; gen++ {
			commitGen(t, s, 2, gen, func(r int) []byte { return rankState(r, sz, gen) })
		}
		var kept, copied [2][]byte
		if _, err := s.RestoreStream(head, func(img *ckptimg.Image) error {
			kept[img.Rank] = img.AppState
			copied[img.Rank] = append([]byte(nil), img.AppState...)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if &kept[0][0] != &kept[1][0] {
			t.Fatalf("head %d: ranks 0 and 1 resolved into different buffers", head)
		}
		if !bytes.Equal(copied[0], rankState(0, sz, head)) || !bytes.Equal(copied[1], rankState(1, sz, head)) {
			t.Fatalf("head %d: a copied state differs from the committed one", head)
		}
		if !bytes.Equal(kept[0], rankState(1, sz, head)) {
			t.Fatalf("head %d: rank 1 did not resolve over rank 0's bytes", head)
		}
	}
}

// TestRestoreStreamStopsAtFirstError: the callback's error ends the
// walk — it is returned as is, no later rank is handed over, and no
// statistics come back; of several ranks that do not resolve, the
// lowest is the one reported; and a generation the store must not read
// is refused before any rank resolves.
func TestRestoreStreamStopsAtFirstError(t *testing.T) {
	const n = 4
	s := mustOpen(n, Options{Delta: true, ChunkBytes: 128})
	for gen := 0; gen < 2; gen++ {
		commitGen(t, s, n, gen, func(r int) []byte { return rankState(r, 600, gen) })
	}
	refused := errors.New("refused")
	var seen []int
	stats, err := s.RestoreStream(1, func(img *ckptimg.Image) error {
		seen = append(seen, img.Rank)
		if img.Rank == 1 {
			return refused
		}
		return nil
	})
	if !errors.Is(err, refused) || stats != nil {
		t.Fatalf("RestoreStream: %v (stats %v), want the callback's error and no stats", err, stats)
	}
	if len(seen) != 2 || seen[0] != 0 || seen[1] != 1 {
		t.Fatalf("callback saw ranks %v, want [0 1]", seen)
	}
	for _, r := range []int{3, 1} {
		flipByte(t, s.b, key(1, r))
	}
	seen = seen[:0]
	_, err = s.RestoreStream(1, func(img *ckptimg.Image) error {
		seen = append(seen, img.Rank)
		return nil
	})
	var cle *ChainLinkError
	if !errors.As(err, &cle) || cle.Rank != 1 || cle.Gen != 1 {
		t.Fatalf("RestoreStream over damaged ranks 1 and 3: %v, want rank 1's link error", err)
	}
	if len(seen) != 1 || seen[0] != 0 {
		t.Fatalf("callback saw ranks %v, want [0]", seen)
	}
	if _, err := s.RestoreStream(2, func(*ckptimg.Image) error {
		t.Fatal("a generation that does not exist reached the callback")
		return nil
	}); err == nil {
		t.Fatal("RestoreStream resolved a generation that does not exist")
	}
}

// TestRestoreStreamFlatPerRank: a rank's resolution costs a fixed
// number of heap objects however deep its chain. RestoreStream keeps
// one chunk reader per link depth, the base's reader and the check list
// from rank to rank, and the store keeps every blob key, so from the
// second rank on each rank costs the same, and each extra link costs
// exactly the one copy Backend.Get returns. The chain is uncompressed,
// which keeps pooled codecs, whose refills after a GC would make the
// count uneven, off the path.
func TestRestoreStreamFlatPerRank(t *testing.T) {
	const n, deep = 6, 8
	s := mustOpen(n, Options{Delta: true, ChunkBytes: 128, ChainCap: ChainCapUnbounded})
	for gen := 0; gen <= deep; gen++ {
		commitGen(t, s, n, gen, func(int) []byte { return appState(1000, gen) })
	}
	// perRank reports the heap objects one rank's resolution costs once
	// rank 0 has sized the readers and buffers.
	perRank := func(seq int) uint64 {
		var ms runtime.MemStats
		at := make([]uint64, 0, n)
		if _, err := s.RestoreStream(seq, func(*ckptimg.Image) error {
			runtime.ReadMemStats(&ms)
			at = append(at, ms.Mallocs)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for r := 2; r < n; r++ {
			if at[r]-at[r-1] != at[1]-at[0] {
				t.Fatalf("generation %d: rank %d cost %d heap objects, rank 1 %d", seq, r, at[r]-at[r-1], at[1]-at[0])
			}
		}
		return at[1] - at[0]
	}
	shallow, deepCost := perRank(1), perRank(deep)
	t.Logf("heap objects per rank: base+1 %d, base+%d %d", shallow, deep, deepCost)
	if got, want := deepCost-shallow, uint64(deep-1); got != want {
		t.Fatalf("a base+%d rank costs %d heap objects more than a base+1 rank, want %d: one Backend.Get copy per extra link",
			deep, got, want)
	}
}
