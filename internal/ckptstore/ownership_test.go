package ckptstore

import (
	"bytes"
	"strings"
	"testing"

	"manasim/internal/ckptimg"
)

// TestBackendsOwnBlobs: every built-in backend gives back what was Put,
// leaves the bytes it was handed as they were, and returns from Get a
// copy of the caller's own: writing into it changes no later Get. The
// tier backend's front is capped below two blobs, so its blob is
// evicted and the first Get promotes it back from the back tier — the
// front must keep a copy of its own, not the slice it hands out.
func TestBackendsOwnBlobs(t *testing.T) {
	const key, other = "gen0000/rank00", "gen0000/rank01"
	want := bytes.Repeat([]byte{0x5a, 0xa5, 0x3c}, 64)
	for _, name := range []string{"mem", "obj", "fs", "tier"} {
		t.Run(name, func(t *testing.T) {
			b, err := NewBackend(name, BackendConfig{Dir: t.TempDir(), FrontCap: int64(len(want))})
			if err != nil {
				t.Fatal(err)
			}
			data := bytes.Clone(want)
			if err := b.Put(key, data); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, want) {
				t.Fatal("Put changed the bytes it was handed")
			}
			if tb, ok := b.(*tierBackend); ok {
				if err := tb.DrainBarrier(); err != nil {
					t.Fatal(err)
				}
				// A second blob past the cap evicts the flushed first one.
				if err := b.Put(other, bytes.Clone(want)); err != nil {
					t.Fatal(err)
				}
				if tb.ops.Evictions != 1 {
					t.Fatalf("tier evicted %d blobs, want 1", tb.ops.Evictions)
				}
			}
			for i := 0; i < 3; i++ {
				got, err := b.Get(key)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("Get %d returned %d bytes that differ from the %d Put", i, len(got), len(want))
				}
				clear(got)
			}
			if tb, ok := b.(*tierBackend); ok {
				if err := tb.DrainBarrier(); err != nil {
					t.Fatal(err)
				}
				if tb.ops.Promotions != 1 {
					t.Fatalf("tier promoted %d blobs, want 1", tb.ops.Promotions)
				}
			}
		})
	}
}

// TestStoreKeepsCommittedImages: a plain mem store keeps the slice each
// image was committed in — the encoder's exact-size output is the only
// copy it holds — and a dedup store keeps every content blob in an
// array exactly its length and of its own, so no blob pins the image it
// was cut from: the images can be overwritten after the commit and
// every rank still restores.
func TestStoreKeepsCommittedImages(t *testing.T) {
	const n, sz = 3, 40 << 10
	app := func(r int) []byte { return appState(sz, r) }
	t.Run("plain", func(t *testing.T) {
		st, err := Open(n, Options{})
		if err != nil {
			t.Fatal(err)
		}
		images := encodeAll(t, st, n, app)
		if _, err := st.Commit(images); err != nil {
			t.Fatal(err)
		}
		mem := st.b.(*memBackend)
		for r, img := range images {
			if len(img) != cap(img) {
				t.Errorf("rank %d: encoder returned %d bytes in a %d-byte array", r, len(img), cap(img))
			}
			if kept := mem.blobs[key(0, r)]; len(kept) != len(img) || &kept[0] != &img[0] {
				t.Errorf("rank %d: the store keeps a copy, not the committed image", r)
			}
		}
	})
	for _, backend := range []string{"mem", "tier"} {
		t.Run("dedup/"+backend, func(t *testing.T) {
			st, err := Open(n, Options{Backend: backend, Dedup: true, ChunkBytes: 8 << 10})
			if err != nil {
				t.Fatal(err)
			}
			images := encodeAll(t, st, n, app)
			if _, err := st.Commit(images); err != nil {
				t.Fatal(err)
			}
			mem, ok := st.b.(*memBackend)
			if !ok {
				mem = st.b.(*tierBackend).front.(*memBackend)
			}
			blobs := 0
			for k, v := range mem.blobs {
				if strings.HasPrefix(k, blobPrefix) {
					blobs++
					if len(v) != cap(v) {
						t.Errorf("blob %s: %d bytes kept in a %d-byte array", k, len(v), cap(v))
					}
				}
			}
			if blobs == 0 {
				t.Fatal("dedup store kept no content blob")
			}
			for _, img := range images {
				clear(img)
			}
			imgs, _, err := st.MaterializeStream(0)
			if err != nil {
				t.Fatalf("restoring after the committed images were overwritten: %v", err)
			}
			for r, img := range imgs {
				if !bytes.Equal(img.AppState, app(r)) {
					t.Errorf("rank %d: restored state differs: a blob aliases its image", r)
				}
			}
		})
	}
}

// encodeAll encodes one full image per rank with the store's options.
func encodeAll(t *testing.T, st *Store, n int, app func(rank int) []byte) [][]byte {
	t.Helper()
	images := make([][]byte, n)
	for r := range images {
		data, err := ckptimg.EncodeOpts(testImage(r, n, 0, app(r)), st.EncodeOptions())
		if err != nil {
			t.Fatal(err)
		}
		images[r] = data
	}
	return images
}
