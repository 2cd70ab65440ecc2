package ckptimg

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// deltaTestImage builds an image whose app state has a static prefix
// and a variant suffix controlled by gen.
func deltaTestImage(gen int) *Image {
	app := make([]byte, 1000)
	for i := range app {
		app[i] = byte(i)
	}
	for i := 750; i < len(app); i++ {
		app[i] = byte(i ^ gen*137)
	}
	return &Image{
		Rank: 0, NRanks: 1, Step: gen,
		Impl: "mpich", Design: "virtid",
		AppState: app,
		Counters: Counters{{Peer: 0, Sent: uint64(gen), Recv: uint64(gen) + 1}},
	}
}

func TestDeltaEncodeApplyRoundTrip(t *testing.T) {
	parent := deltaTestImage(0)
	child := deltaTestImage(1)
	idx := IndexAppState(parent.AppState, 128)

	data, st, err := EncodeDelta(child, idx, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Chunks != 8 {
		t.Fatalf("chunks %d, want 8", st.Chunks)
	}
	// Chunks 0..5 cover the static prefix [0,750); chunk 5 spans
	// [640,768) so it straddles the mutation and must ship.
	if st.Changed != 3 {
		t.Fatalf("changed %d, want 3", st.Changed)
	}
	if !IsDelta(data) {
		t.Fatal("delta image not recognized")
	}
	if _, err := Decode(data); !errors.Is(err, ErrDeltaImage) {
		t.Fatalf("Decode of a delta: %v, want ErrDeltaImage", err)
	}

	d, err := DecodeDelta(data)
	if err != nil {
		t.Fatal(err)
	}
	if d.ParentGen != 0 || d.ParentLen != 1000 || d.NewLen != 1000 || d.ChunkBytes != 128 {
		t.Fatalf("delta meta %+v", d)
	}
	img, err := d.Apply(parent.AppState)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img.AppState, child.AppState) {
		t.Fatal("applied delta app state mismatch")
	}
	if img.Step != 1 || img.Counters[0].Sent != 1 {
		t.Fatalf("carried fields lost: %+v", img)
	}
	// The delta's own index matches a fresh index of the child state.
	ix, err := IndexDelta(data)
	if err != nil {
		t.Fatal(err)
	}
	if want := IndexAppState(child.AppState, 128); !reflect.DeepEqual(ix.Index, want) {
		t.Fatalf("index %+v vs %+v", ix.Index, want)
	}
	if ix.Step != 1 || ix.ParentGen != 0 {
		t.Fatalf("indexed identity %+v", ix)
	}
}

func TestDeltaApplyWrongParent(t *testing.T) {
	parent := deltaTestImage(0)
	child := deltaTestImage(1)
	idx := IndexAppState(parent.AppState, 128)
	data, _, err := EncodeDelta(child, idx, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := DecodeDelta(data)
	if err != nil {
		t.Fatal(err)
	}
	// Wrong length.
	if _, err := d.Apply(parent.AppState[:999]); err == nil {
		t.Fatal("short parent accepted")
	}
	// Right length, wrong bytes: unchanged-chunk CRC must catch it.
	bogus := append([]byte(nil), parent.AppState...)
	bogus[10] ^= 0xFF
	if _, err := d.Apply(bogus); err == nil {
		t.Fatal("corrupt parent accepted")
	}
}

func TestDeltaCompressedRoundTrip(t *testing.T) {
	parent := deltaTestImage(0)
	child := deltaTestImage(1)
	idx := IndexAppState(parent.AppState, 128)
	data, _, err := EncodeDelta(child, idx, 0, Options{Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	d, err := DecodeDelta(data)
	if err != nil {
		t.Fatal(err)
	}
	img, err := d.Apply(parent.AppState)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img.AppState, child.AppState) {
		t.Fatal("compressed delta app state mismatch")
	}
}

func TestDeltaChunkSizeMismatchRejected(t *testing.T) {
	img := deltaTestImage(1)
	idx := IndexAppState(deltaTestImage(0).AppState, 128)
	if _, _, err := EncodeDelta(img, idx, 0, Options{ChunkSize: 256}); err == nil {
		t.Fatal("chunk-size mismatch accepted")
	}
	if _, _, err := EncodeDelta(img, ChunkIndex{}, 0, Options{}); err == nil {
		t.Fatal("empty parent index accepted")
	}
}

func TestDeltaIdenticalStateShipsNothing(t *testing.T) {
	img := deltaTestImage(3)
	idx := IndexAppState(img.AppState, 128)
	data, st, err := EncodeDelta(img, idx, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Changed != 0 {
		t.Fatalf("identical state shipped %d chunks", st.Changed)
	}
	full, err := Encode(img)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) >= len(full) {
		t.Fatalf("all-unchanged delta (%d B) not smaller than full image (%d B)", len(data), len(full))
	}
	d, err := DecodeDelta(data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.Apply(img.AppState)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.AppState, img.AppState) {
		t.Fatal("round trip mismatch")
	}
}

// ---------------------------------------------------------------------
// corruption paths: every damaged image must fail with a typed error,
// never panic.

// sectionOffsets walks a v3 image and returns the byte offset and size
// of every section payload with the given tag.
func sectionOffsets(t *testing.T, data []byte, tag uint32) [][2]int {
	t.Helper()
	var out [][2]int
	off := 16
	for off < len(data) {
		if off+16 > len(data) {
			t.Fatalf("walk fell off the image at %d", off)
		}
		secTag := binary.LittleEndian.Uint32(data[off : off+4])
		size := int(binary.LittleEndian.Uint64(data[off+4 : off+12]))
		if secTag == tag {
			out = append(out, [2]int{off + 16, size})
		}
		off += 16 + size
		if secTag == secEnd {
			break
		}
	}
	return out
}

func TestDecodeTruncatedSectionHeader(t *testing.T) {
	img := deltaTestImage(0)
	data, err := EncodeOpts(img, Options{ChunkSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	apps := sectionOffsets(t, data, secApp)
	// Cut inside the third app section's frame header.
	cut := apps[2][0] - 8
	_, err = Decode(data[:cut])
	if err == nil {
		t.Fatal("truncated section header accepted")
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
}

func TestDecodeMiddleChunkCRCMismatch(t *testing.T) {
	img := deltaTestImage(0)
	data, err := EncodeOpts(img, Options{ChunkSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	apps := sectionOffsets(t, data, secApp)
	if len(apps) < 3 {
		t.Fatalf("expected several app chunks, got %d", len(apps))
	}
	// Flip one byte in the payload of a middle app chunk.
	bad := append([]byte(nil), data...)
	mid := apps[len(apps)/2]
	bad[mid[0]+mid[1]/2] ^= 0x01
	_, err = Decode(bad)
	if err == nil {
		t.Fatal("corrupt middle chunk accepted")
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
	if !strings.Contains(err.Error(), "APPS") {
		t.Fatalf("error does not name the damaged section: %v", err)
	}
}

func TestDecodeGzipFlagOnRawPayload(t *testing.T) {
	img := deltaTestImage(0)
	data, err := Encode(img)
	if err != nil {
		t.Fatal(err)
	}
	// The header flags are not covered by a section CRC; a flipped gzip
	// bit must still fail cleanly when inflation meets raw bytes.
	bad := append([]byte(nil), data...)
	bad[12] |= byte(FlagGzip)
	_, err = Decode(bad)
	if err == nil {
		t.Fatal("gzip flag on raw payload accepted")
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
}

func TestDecodeDeltaCorruption(t *testing.T) {
	parent := deltaTestImage(0)
	child := deltaTestImage(1)
	idx := IndexAppState(parent.AppState, 128)
	data, _, err := EncodeDelta(child, idx, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Truncation mid-stream.
	if _, err := DecodeDelta(data[:len(data)/2]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated delta: %v", err)
	}
	// Flipped payload byte in a DCHK record.
	chunks := sectionOffsets(t, data, secDeltaChunk)
	bad := append([]byte(nil), data...)
	mid := chunks[len(chunks)/2]
	bad[mid[0]+mid[1]/2] ^= 0x20
	if _, err := DecodeDelta(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt delta chunk: %v", err)
	}
	// A cleanly spliced-out DCHK section (frame-aligned, so everything
	// else still parses) must fail the chunk-count check, not surface
	// later as a bogus parent mismatch in Apply.
	mid = chunks[len(chunks)/2]
	spliced := append(append([]byte(nil), data[:mid[0]-16]...), data[mid[0]+mid[1]:]...)
	_, err = DecodeDelta(spliced)
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("dropped DCHK section: %v", err)
	}
}

func TestPeekMeta(t *testing.T) {
	img := deltaTestImage(5)
	full, err := Encode(img)
	if err != nil {
		t.Fatal(err)
	}
	delta, _, err := EncodeDelta(img, IndexAppState(img.AppState, 128), 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, data := range [][]byte{full, delta} {
		m, err := PeekMeta(data)
		if err != nil {
			t.Fatal(err)
		}
		if m.Step != 5 || m.Impl != "mpich" {
			t.Fatalf("peeked meta %+v", m)
		}
	}
	if _, err := PeekMeta([]byte("garbage")); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("garbage peek: %v", err)
	}
}
