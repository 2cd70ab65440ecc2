package ckptimg

import (
	"bytes"
	"testing"
)

// TestSplitDedupSegmentsRoundTrip: segmentation is lossless (segments
// concatenate back to the input) and deterministic, and equal images
// produce equal segment lists — the property the content-addressed
// store keys blobs on.
func TestSplitDedupSegmentsRoundTrip(t *testing.T) {
	app := make([]byte, 24<<10)
	for i := range app {
		app[i] = byte(i * 13)
	}
	img := &Image{Rank: 0, NRanks: 2, Step: 1, Impl: "mpich", Design: "virtid", AppState: app}
	data, err := EncodeOpts(img, Options{ChunkSize: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	segs := SplitDedupSegments(data)
	if len(segs) < 2 {
		t.Fatalf("v3 image split into %d segments, want chunk-aligned segments", len(segs))
	}
	var cat []byte
	for _, s := range segs {
		cat = append(cat, s...)
	}
	if !bytes.Equal(cat, data) {
		t.Fatal("segments do not concatenate back to the image")
	}
	again := SplitDedupSegments(data)
	if len(again) != len(segs) {
		t.Fatalf("segmentation not deterministic: %d vs %d segments", len(again), len(segs))
	}
	for i := range segs {
		if !bytes.Equal(segs[i], again[i]) {
			t.Fatalf("segment %d differs across identical splits", i)
		}
	}
}

// TestSplitDedupSegmentsAlignsAppChunks: two ranks whose app states
// share a prefix produce byte-identical leading app segments — the
// cross-rank sharing dedup depends on — while their differing tails
// split into differing segments.
func TestSplitDedupSegmentsAlignsAppChunks(t *testing.T) {
	mk := func(rank int) []byte {
		app := make([]byte, 16<<10)
		for i := range app {
			app[i] = byte(i * 7)
		}
		for i := len(app) - 512; i < len(app); i++ {
			app[i] = byte(i ^ rank*37) // rank-dependent tail
		}
		img := &Image{Rank: rank, NRanks: 2, Step: 1, Impl: "mpich", Design: "virtid", AppState: app}
		data, err := EncodeOpts(img, Options{ChunkSize: 2 << 10})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b := SplitDedupSegments(mk(0)), SplitDedupSegments(mk(1))
	if len(a) != len(b) {
		t.Fatalf("rank 0 split into %d segments, rank 1 into %d", len(a), len(b))
	}
	shared := 0
	for i := range a {
		if bytes.Equal(a[i], b[i]) {
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("no byte-identical segments across ranks sharing 15.5KB of 16KB state")
	}
	if shared == len(a) {
		t.Fatal("rank-dependent tails produced no differing segment")
	}
}

// TestSplitDedupSegmentsFallback: a payload that is not a v3 image
// comes back whole, as one segment.
func TestSplitDedupSegmentsFallback(t *testing.T) {
	blob := []byte("not an image at all")
	if segs := SplitDedupSegments(blob); len(segs) != 1 || !bytes.Equal(segs[0], blob) {
		t.Fatalf("non-image payload split into %d segments", len(segs))
	}
}
