package ckptimg

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// TestOpenDeltaMatchesDecodeDelta pins the chunk-level streaming view
// against the full decoder: same linkage, same per-chunk structure, and
// InflateChunk reproduces exactly the bytes DecodeDelta inflates.
func TestOpenDeltaMatchesDecodeDelta(t *testing.T) {
	for _, compress := range []bool{false, true} {
		parent := deltaTestImage(0)
		child := deltaTestImage(1)
		idx := IndexAppState(parent.AppState, 128)
		data, _, err := EncodeDelta(child, idx, 3, Options{Compress: compress})
		if err != nil {
			t.Fatal(err)
		}

		d, err := DecodeDelta(data)
		if err != nil {
			t.Fatal(err)
		}
		r, err := OpenDelta(data, true)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()

		if r.ParentGen != d.ParentGen || r.ParentLen != d.ParentLen ||
			r.NewLen != d.NewLen || r.ChunkBytes != d.ChunkBytes {
			t.Fatalf("compress=%v: linkage %+v vs delta %+v", compress, r, d)
		}
		if r.NumChunks() != len(d.Chunks) {
			t.Fatalf("compress=%v: %d chunks vs %d", compress, r.NumChunks(), len(d.Chunks))
		}
		if r.compressed != compress {
			t.Fatalf("compress=%v: reader reports %v", compress, r.compressed)
		}
		changed := 0
		for i := 0; i < r.NumChunks(); i++ {
			ch := r.Chunk(i)
			dc := d.Chunks[i]
			if ch.CRC != dc.CRC || ch.Changed != (dc.Data != nil) {
				t.Fatalf("compress=%v: chunk %d record %+v vs %+v", compress, i, ch, dc)
			}
			if !ch.Changed {
				continue
			}
			changed++
			dst := make([]byte, r.ChunkLen(i))
			if err := r.InflateChunk(i, dst); err != nil {
				t.Fatalf("compress=%v: inflate chunk %d: %v", compress, i, err)
			}
			if !bytes.Equal(dst, dc.Data) {
				t.Fatalf("compress=%v: chunk %d content differs", compress, i)
			}
		}
		if changed == 0 || r.NumChanged != changed {
			t.Fatalf("compress=%v: NumChanged %d, counted %d", compress, r.NumChanged, changed)
		}
		// The tail decoded on request matches the full decoder's.
		if r.Image == nil || r.Image.Step != d.Image.Step || r.Image.Rank != d.Image.Rank {
			t.Fatalf("compress=%v: tail image %+v vs %+v", compress, r.Image, d.Image)
		}
		if len(r.Image.Counters) != 1 || r.Image.Counters[0].Sent != 1 {
			t.Fatalf("compress=%v: counters not decoded: %+v", compress, r.Image.Counters)
		}

		// The light parse skips the tail entirely.
		light, err := OpenDelta(data, false)
		if err != nil {
			t.Fatal(err)
		}
		defer light.Close()
		if light.Image != nil {
			t.Fatalf("compress=%v: light parse decoded a tail", compress)
		}
		if light.NumChunks() != r.NumChunks() {
			t.Fatalf("compress=%v: light parse chunk count differs", compress)
		}
	}
}

// TestOpenDeltaRejectsCorruption flips every byte in turn: the
// frame-CRC walk must catch damage anywhere, even in chunks the caller
// would never inflate.
func TestOpenDeltaRejectsCorruption(t *testing.T) {
	parent := deltaTestImage(0)
	child := deltaTestImage(1)
	idx := IndexAppState(parent.AppState, 128)
	data, _, err := EncodeDelta(child, idx, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for pos := 16; pos < len(data); pos += 17 {
		bad := append([]byte(nil), data...)
		bad[pos] ^= 0x40
		if _, err := OpenDelta(bad, false); err == nil {
			t.Fatalf("flip at %d accepted", pos)
		}
	}
	// A full image is rejected up front.
	full, err := Encode(child)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDelta(full, false); err == nil {
		t.Fatal("full image opened as delta")
	}
}

// TestAppReaderStreamsAppState pins the sequential base reader: Read
// and Skip over compressed and raw images reproduce the app state that
// Decode materializes, without the reader ever holding it whole.
func TestAppReaderStreamsAppState(t *testing.T) {
	img := deltaTestImage(2)
	for _, compress := range []bool{false, true} {
		data, err := EncodeOpts(img, Options{Compress: compress, ChunkSize: 128})
		if err != nil {
			t.Fatal(err)
		}
		// Straight read-through equals the decoded app state.
		r, err := OpenAppState(data, false)
		if err != nil {
			t.Fatal(err)
		}
		if r.Compressed() != compress {
			t.Fatalf("compress=%v: reader reports %v", compress, r.Compressed())
		}
		if want := len(img.AppState); !compress && r.Total() != want {
			t.Fatalf("total %d, want %d", r.Total(), want)
		}
		got, err := io.ReadAll(r)
		if err != nil {
			t.Fatal(err)
		}
		r.Close()
		if !bytes.Equal(got, img.AppState) {
			t.Fatalf("compress=%v: streamed app state differs", compress)
		}

		// Skip + read lands on the right region.
		r, err = OpenAppState(data, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Skip(300); err != nil {
			t.Fatal(err)
		}
		part := make([]byte, 128)
		if _, err := io.ReadFull(r, part); err != nil {
			t.Fatal(err)
		}
		r.Close()
		if !bytes.Equal(part, img.AppState[300:428]) {
			t.Fatalf("compress=%v: skip+read landed wrong", compress)
		}
	}

	// Delta images are refused with ErrDeltaImage, a header of any other
	// version as damaged bytes.
	idx := IndexAppState(img.AppState, 128)
	delta, _, err := EncodeDelta(deltaTestImage(3), idx, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenAppState(delta, false); !errors.Is(err, ErrDeltaImage) {
		t.Fatalf("delta image: %v", err)
	}
	v2, err := Encode(img)
	if err != nil {
		t.Fatal(err)
	}
	v2[8] = 2 // the format version
	if _, err := OpenAppState(v2, false); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("v2 header: %v", err)
	}
}

// TestReopenedReadersMatchFresh pins the re-open contract the restart
// resolver relies on: a ChunkReader or AppReader opened over one image
// and then another reads the second exactly as a fresh reader does, a
// re-open of a reader already sized for the image allocates nothing,
// and Close leaves no reference into the bytes last opened.
func TestReopenedReadersMatchFresh(t *testing.T) {
	// Two deltas of different shapes: 8 chunks of 128, then 4 of 256.
	long, _, err := EncodeDelta(deltaTestImage(1), IndexAppState(deltaTestImage(0).AppState, 128), 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	short, _, err := EncodeDelta(deltaTestImage(2), IndexAppState(deltaTestImage(1).AppState, 256), 4, Options{Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	var r ChunkReader
	for _, data := range [][]byte{long, short, long} {
		if err := r.Open(data, true); err != nil {
			t.Fatal(err)
		}
		fresh, err := OpenDelta(data, true)
		if err != nil {
			t.Fatal(err)
		}
		if r.deltaMeta != fresh.deltaMeta || r.NumChanged != fresh.NumChanged ||
			r.compressed != fresh.compressed || r.Image.Step != fresh.Image.Step {
			t.Fatalf("re-opened reader %+v, fresh %+v", r, fresh)
		}
		for i := range r.NumChunks() {
			got, want := r.Chunk(i), fresh.Chunk(i)
			if got.CRC != want.CRC || got.Changed != want.Changed || !bytes.Equal(got.Payload, want.Payload) {
				t.Fatalf("chunk %d: re-opened %+v, fresh %+v", i, got, want)
			}
			if got.Changed {
				dst := make([]byte, r.ChunkLen(i))
				if err := r.InflateChunk(i, dst); err != nil {
					t.Fatalf("chunk %d after re-open: %v", i, err)
				}
			}
		}
		fresh.Close()
	}
	r.Close()
	for i, ch := range r.chunks[:cap(r.chunks)] {
		if ch.Payload != nil {
			t.Fatalf("chunk %d still refers to the closed image", i)
		}
	}
	if r.Image != nil || r.inf.br.Len() != 0 {
		t.Fatal("Close kept the image or the last inflated chunk")
	}
	if n := testing.AllocsPerRun(20, func() {
		if err := r.Open(long, false); err != nil {
			t.Fatal(err)
		}
		r.Close()
	}); n != 0 {
		t.Fatalf("re-opening a sized ChunkReader allocated %v objects", n)
	}

	img := deltaTestImage(2)
	raw, err := EncodeOpts(img, Options{ChunkSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	lz, err := EncodeOpts(img, Options{Compress: true, Tier: TierFastLZ})
	if err != nil {
		t.Fatal(err)
	}
	var a AppReader
	for _, data := range [][]byte{lz, raw, lz} {
		if err := a.Open(data, false); err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(&a)
		if err != nil || !bytes.Equal(got, img.AppState) {
			t.Fatalf("re-opened AppReader read %d bytes (%v), want the image's %d", len(got), err, len(img.AppState))
		}
	}
	a.Close()
	for i, part := range a.ms.parts[:cap(a.ms.parts)] {
		if part != nil {
			t.Fatalf("app-state part %d still refers to the closed image", i)
		}
	}
	if n := testing.AllocsPerRun(20, func() {
		if err := a.Open(raw, false); err != nil {
			t.Fatal(err)
		}
		a.Close()
	}); n != 0 {
		t.Fatalf("re-opening a sized AppReader allocated %v objects", n)
	}
}
