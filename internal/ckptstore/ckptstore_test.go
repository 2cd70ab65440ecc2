package ckptstore

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"manasim/internal/ckptimg"
)

// mustOpen is Open for tests whose options are statically valid.
func mustOpen(n int, o Options) *Store {
	s, err := Open(n, o)
	if err != nil {
		panic(err)
	}
	return s
}

// testImage builds a minimal valid image for one rank.
func testImage(rank, n, step int, app []byte) *ckptimg.Image {
	return &ckptimg.Image{
		Rank: rank, NRanks: n, Step: step,
		Impl: "mpich", Design: "virtid",
		AppState: append([]byte(nil), app...),
	}
}

// appState builds an app state of sz bytes: a static prefix plus a
// generation-dependent suffix, so consecutive generations share chunks.
func appState(sz, gen int) []byte {
	out := make([]byte, sz)
	for i := range out {
		out[i] = byte(i)
	}
	// Mutate the last quarter per generation.
	for i := sz * 3 / 4; i < sz; i++ {
		out[i] = byte(i ^ gen*131)
	}
	return out
}

// commitGen encodes and commits one generation for every rank, using
// the store's delta plan.
func commitGen(t *testing.T, s *Store, n, step int, app func(rank int) []byte) Generation {
	t.Helper()
	gen, err := s.Commit(encodeGen(t, s, n, step, app))
	if err != nil {
		t.Fatal(err)
	}
	return gen
}

func TestBackendRegistry(t *testing.T) {
	if _, err := NewBackend("no-such-backend", BackendConfig{}); err == nil {
		t.Fatal("unknown backend accepted")
	}
	names := BackendNames()
	want := map[string]bool{"mem": false, "fs": false, "obj": false, "tier": false}
	for _, n := range names {
		if _, ok := want[n]; ok {
			want[n] = true
		}
	}
	for n, seen := range want {
		if !seen {
			t.Fatalf("backend %q not registered (have %v)", n, names)
		}
	}
	if _, err := NewBackend("fs", BackendConfig{}); err == nil {
		t.Fatal("fs backend without a directory accepted")
	}
}

func TestBackendsPutGetListDelete(t *testing.T) {
	for _, mk := range []func(t *testing.T) Backend{
		func(t *testing.T) Backend { return newMemBackend() },
		func(t *testing.T) Backend {
			b, err := NewBackend("fs", BackendConfig{Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			return b
		},
		func(t *testing.T) Backend {
			b, err := NewBackend("obj", BackendConfig{})
			if err != nil {
				t.Fatal(err)
			}
			return b
		},
		func(t *testing.T) Backend {
			b, err := NewBackend("tier", BackendConfig{Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			// Cleanups run last-registered first: wait out the
			// drainer's back-tier writes before TempDir removes the
			// directory under them.
			t.Cleanup(func() { _ = b.(Drainer).DrainBarrier() })
			return b
		},
	} {
		b := mk(t)
		if err := b.Put("gen0000/rank00", []byte("abc")); err != nil {
			t.Fatal(err)
		}
		if err := b.Put("manifest", []byte("m")); err != nil {
			t.Fatal(err)
		}
		got, err := b.Get("gen0000/rank00")
		if err != nil || !bytes.Equal(got, []byte("abc")) {
			t.Fatalf("%s get: %q, %v", b.Name(), got, err)
		}
		keys, err := b.List()
		if err != nil || len(keys) != 2 || keys[0] != "gen0000/rank00" || keys[1] != "manifest" {
			t.Fatalf("%s list: %v, %v", b.Name(), keys, err)
		}
		if err := b.Delete("manifest"); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Get("manifest"); err == nil {
			t.Fatalf("%s get after delete succeeded", b.Name())
		}
		if err := b.Delete("manifest"); err != nil {
			t.Fatalf("%s deleting a missing key: %v", b.Name(), err)
		}
	}
}

func TestFSBackendRejectsTraversal(t *testing.T) {
	b, err := NewBackend("fs", BackendConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"../escape", "/abs", ""} {
		if err := b.Put(key, []byte("x")); err == nil {
			t.Fatalf("key %q accepted", key)
		}
	}
}

func TestStoreFullGenerations(t *testing.T) {
	s := mustOpen(2, Options{ChunkBytes: 64})
	if _, ok := s.Head(); ok {
		t.Fatal("empty store has a head")
	}
	if _, _, err := s.MaterializeStreamHead(); err == nil {
		t.Fatal("materialized an empty store")
	}
	g0 := commitGen(t, s, 2, 3, func(r int) []byte { return appState(300, r) })
	if !g0.Base() || g0.Seq != 0 || g0.Step != 3 {
		t.Fatalf("generation %+v", g0)
	}
	imgs, _, err := s.MaterializeStreamHead()
	if err != nil {
		t.Fatal(err)
	}
	for r, img := range imgs {
		if !bytes.Equal(img.AppState, appState(300, r)) {
			t.Fatalf("rank %d app state mismatch", r)
		}
	}
}

func TestDeltaChainMaterializesBitIdentical(t *testing.T) {
	const n, sz = 2, 1000
	s := mustOpen(n, Options{Delta: true, ChunkBytes: 128, ChainCap: 8})
	for gen := 0; gen < 4; gen++ {
		g := commitGen(t, s, n, gen+1, func(r int) []byte { return appState(sz+r, gen) })
		if gen == 0 && !g.Base() {
			t.Fatal("first generation not a base")
		}
		if gen > 0 {
			if g.DeltaRanks != n {
				t.Fatalf("generation %d: %d delta ranks, want %d", gen, g.DeltaRanks, n)
			}
			base := s.Generations()[0]
			if g.Bytes >= base.Bytes {
				t.Fatalf("delta generation %d (%d B) not smaller than base (%d B)", gen, g.Bytes, base.Bytes)
			}
		}
	}
	// Every generation materializes to the exact app state of that
	// generation, resolved through the chain.
	for gen := 0; gen < 4; gen++ {
		imgs, _, err := s.MaterializeStream(gen)
		if err != nil {
			t.Fatal(err)
		}
		for r, img := range imgs {
			if !bytes.Equal(img.AppState, appState(sz+r, gen)) {
				t.Fatalf("generation %d rank %d app state mismatch", gen, r)
			}
			if img.Step != gen+1 {
				t.Fatalf("generation %d rank %d step %d", gen, r, img.Step)
			}
		}
	}
}

func TestChainCapForcesBase(t *testing.T) {
	s := mustOpen(1, Options{Delta: true, ChunkBytes: 128, ChainCap: 2})
	for gen := 0; gen < 6; gen++ {
		commitGen(t, s, 1, gen, func(int) []byte { return appState(1000, gen) })
	}
	var kinds []bool
	for _, g := range s.Generations() {
		kinds = append(kinds, g.Base())
	}
	// base, delta, delta, base, delta, delta.
	want := []bool{true, false, false, true, false, false}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("generation kinds %v, want %v", kinds, want)
		}
	}
}

// TestCommitRefusesOpaquePayloads: in every store mode, a rank payload
// that is not a v3 image fails the commit with an error wrapping
// ckptimg.ErrCorrupt that names the rank and the generation, and the
// store records nothing.
func TestCommitRefusesOpaquePayloads(t *testing.T) {
	for _, o := range []Options{
		{ChunkBytes: 64},
		{Delta: true, ChunkBytes: 64},
		{Delta: true, Dedup: true, ChunkBytes: 64},
	} {
		s := mustOpen(2, o)
		img0, err := ckptimg.EncodeOpts(testImage(0, 2, 0, appState(200, 0)), s.EncodeOptions())
		if err != nil {
			t.Fatal(err)
		}
		rotted := append([]byte(nil), img0...)
		rotted[0] ^= 0x20
		for what, bad := range map[string][]byte{
			"not an image": []byte("not an image at all"),
			"header only":  img0[:16],
			"rotted magic": rotted,
		} {
			_, err := s.Commit([][]byte{img0, bad})
			if !errors.Is(err, ckptimg.ErrCorrupt) || !strings.Contains(err.Error(), "generation 0 rank 1") {
				t.Fatalf("%+v %s: %v, want ErrCorrupt naming generation 0 rank 1", o, what, err)
			}
			if len(s.Generations()) != 0 {
				t.Fatalf("%+v %s: a refused commit recorded a generation", o, what)
			}
			if keys, _ := s.b.List(); len(keys) != 0 {
				t.Fatalf("%+v %s: a refused commit left %v", o, what, keys)
			}
		}
	}
}

func TestCommitRejectsPartialGenerations(t *testing.T) {
	s := mustOpen(2, Options{})
	img0, _ := ckptimg.EncodeOpts(testImage(0, 2, 0, []byte("x")), ckptimg.Options{})
	if _, err := s.Commit([][]byte{img0}); err == nil {
		t.Fatal("short commit accepted")
	}
	if _, err := s.Commit([][]byte{img0, nil}); err == nil {
		t.Fatal("nil image accepted")
	}
	if len(s.Generations()) != 0 {
		t.Fatal("failed commit recorded a generation")
	}
}

func TestFSManifestResumesChain(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Backend: "fs", Dir: dir, Delta: true, ChunkBytes: 128, ChainCap: 8}
	s1 := mustOpen(1, opts)
	commitGen(t, s1, 1, 0, func(int) []byte { return appState(1000, 0) })
	commitGen(t, s1, 1, 1, func(int) []byte { return appState(1000, 1) })

	// A fresh store over the same directory resumes at generation 2 and
	// deltas against generation 1.
	s2, err := Open(1, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s2.Generations()); got != 2 {
		t.Fatalf("resumed store sees %d generations", got)
	}
	if _, pgen, ok := s2.PlanDelta(0); !ok || pgen != 1 {
		t.Fatalf("resumed plan: parent %d, ok %v", pgen, ok)
	}
	g := commitGen(t, s2, 1, 2, func(int) []byte { return appState(1000, 2) })
	if g.Base() || g.Seq != 2 {
		t.Fatalf("resumed generation %+v", g)
	}
	imgs, _, err := s2.MaterializeStreamHead()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(imgs[0].AppState, appState(1000, 2)) {
		t.Fatal("resumed chain materialized wrong app state")
	}

	// Mismatched geometry is refused.
	if _, err := Open(2, opts); err == nil {
		t.Fatal("rank-count mismatch accepted")
	}
	if _, err := Open(1, Options{Backend: "fs", Dir: dir, ChunkBytes: 256}); err == nil {
		t.Fatal("chunk-size mismatch accepted")
	}
}

func TestCompressedDeltaRoundTrip(t *testing.T) {
	s := mustOpen(1, Options{Delta: true, ChunkBytes: 128, Compress: true})
	for gen := 0; gen < 3; gen++ {
		commitGen(t, s, 1, gen, func(int) []byte { return appState(1000, gen) })
	}
	imgs, _, err := s.MaterializeStreamHead()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(imgs[0].AppState, appState(1000, 2)) {
		t.Fatal("compressed chain materialized wrong app state")
	}
}
