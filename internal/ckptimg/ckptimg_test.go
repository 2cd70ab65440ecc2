package ckptimg

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"manasim/internal/mpi"
	"manasim/internal/vid"
)

func sampleImage(rank, n, step int) *Image {
	return &Image{
		Rank: rank, NRanks: n, Step: step,
		Impl: "mpich", Design: "virtid",
		AppState:     []byte{1, 2, 3, byte(rank)},
		ModeledBytes: 32 << 20,
		Store: vid.StoreSnapshot{
			Design: "virtid",
			Items: []vid.Item{{
				Kind: mpi.KindComm,
				Virt: 0x2000_0001,
				GGID: 0xABCD,
				Desc: vid.Descriptor{Op: vid.DescConst, Const: mpi.ConstCommWorld},
				Seq:  1,
			}},
			Seq: 1,
		},
		Drained: []DrainedMsg{
			{GGID: 0xABCD, SrcCommRank: 1, SrcWorld: 1, Tag: 7, Payload: []byte{9, 9}},
		},
		ReqResults: []ReqResult{{Virt: 5, St: mpi.Status{Source: 1, Tag: 7, Bytes: 2}}},
		Counters:   Counters{{Peer: n - 1, Sent: 3, Recv: 2}},
	}
}

// TestEncodeToAllocatesNothing bounds encoding a fixed small image with
// every section kind into a buffer that already has room: each section
// is framed in place in the buffer, so an uncompressed image costs no
// heap object at all.
func TestEncodeToAllocatesNothing(t *testing.T) {
	img := sampleImage(1, 2, 3)
	var buf bytes.Buffer
	encode := func() {
		buf.Reset()
		if err := EncodeTo(&buf, img, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	encode()
	if allocs := testing.AllocsPerRun(100, encode); allocs != 0 {
		t.Errorf("encoding a %d-byte image allocates %.1f objects, want 0", buf.Len(), allocs)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	img := sampleImage(0, 2, 4)
	data, err := Encode(img)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rank != 0 || got.NRanks != 2 || got.Step != 4 || got.Impl != "mpich" {
		t.Fatalf("identity %+v", got)
	}
	if len(got.Drained) != 1 || got.Drained[0].GGID != 0xABCD || got.Drained[0].Payload[0] != 9 {
		t.Fatalf("drained %+v", got.Drained)
	}
	if got.Store.Items[0].Desc.Const != mpi.ConstCommWorld {
		t.Fatalf("store %+v", got.Store.Items[0])
	}
	if got.ReqResults[0].St.Bytes != 2 {
		t.Fatalf("reqresults %+v", got.ReqResults)
	}
	if want := (Counters{{Peer: 1, Sent: 3, Recv: 2}}); !reflect.DeepEqual(got.Counters, want) {
		t.Fatalf("counters %v, want %v", got.Counters, want)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	data, err := Encode(sampleImage(0, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	// Flip each byte position in the body region; every flip must be
	// detected by the CRC.
	for off := 16; off < len(data); off += 7 {
		bad := append([]byte(nil), data...)
		bad[off] ^= 0x01
		if _, err := Decode(bad); err == nil {
			t.Fatalf("flip at %d undetected", off)
		}
	}
}

func TestDecodeRejectsTruncationProperty(t *testing.T) {
	data, err := Encode(sampleImage(0, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	f := func(cut uint16) bool {
		n := int(cut) % len(data)
		_, err := Decode(data[:n])
		return err != nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsBadMagicAndVersion(t *testing.T) {
	data, _ := Encode(sampleImage(0, 1, 0))
	bad := append([]byte(nil), data...)
	bad[0] = 'X'
	if _, err := Decode(bad); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic: %v", err)
	}
	bad = append([]byte(nil), data...)
	bad[8] = 0xFF // version
	if _, err := Decode(bad); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("bad version: %v", err)
	}
}

func TestValidateSet(t *testing.T) {
	a, b := sampleImage(0, 2, 4), sampleImage(1, 2, 4)
	if err := ValidateSet([]*Image{a, b}); err != nil {
		t.Fatalf("valid set rejected: %v", err)
	}
	if err := ValidateSet(nil); err == nil {
		t.Fatal("empty set accepted")
	}
	if err := ValidateSet([]*Image{a}); err == nil {
		t.Fatal("incomplete set accepted")
	}
	if err := ValidateSet([]*Image{a, a}); err == nil {
		t.Fatal("duplicate rank accepted")
	}
	c := sampleImage(1, 2, 5) // inconsistent step
	if err := ValidateSet([]*Image{a, c}); err == nil {
		t.Fatal("inconsistent cut accepted")
	}
	d := sampleImage(1, 2, 4)
	d.Design = "legacy"
	if err := ValidateSet([]*Image{a, d}); err == nil {
		t.Fatal("mixed designs accepted")
	}
	e := sampleImage(1, 3, 4) // claims different world size
	if err := ValidateSet([]*Image{a, e}); err == nil {
		t.Fatal("mixed rank counts accepted")
	}
}

func TestTotalBytes(t *testing.T) {
	img := sampleImage(0, 1, 0)
	if got := img.TotalBytes(1000); got != 1000+32<<20 {
		t.Fatalf("total %d", got)
	}
}

// ---------------------------------------------------------------------
// format v3: sections, compression, streaming

// sameImage compares the fields a restart depends on.
func sameImage(t *testing.T, got, want *Image) {
	t.Helper()
	if got.Rank != want.Rank || got.NRanks != want.NRanks || got.Step != want.Step ||
		got.Impl != want.Impl || got.Design != want.Design ||
		got.UniformHandles != want.UniformHandles || got.ModeledBytes != want.ModeledBytes {
		t.Fatalf("identity mismatch: %+v vs %+v", got, want)
	}
	if !bytes.Equal(got.AppState, want.AppState) {
		t.Fatalf("app state %v vs %v", got.AppState, want.AppState)
	}
	if !reflect.DeepEqual(got.Store, want.Store) {
		t.Fatalf("store %+v vs %+v", got.Store, want.Store)
	}
	if !reflect.DeepEqual(got.Drained, want.Drained) {
		t.Fatalf("drained %+v vs %+v", got.Drained, want.Drained)
	}
	if !reflect.DeepEqual(got.ReqResults, want.ReqResults) {
		t.Fatalf("reqresults %+v vs %+v", got.ReqResults, want.ReqResults)
	}
	if !reflect.DeepEqual(got.Counters, want.Counters) {
		t.Fatalf("counters %v vs %v", got.Counters, want.Counters)
	}
}

func TestGzipRoundTrip(t *testing.T) {
	img := sampleImage(0, 2, 4)
	// A compressible app state larger than one chunk.
	img.AppState = bytes.Repeat([]byte("manasim"), (AppChunk/7)+1000)
	plain, err := Encode(img)
	if err != nil {
		t.Fatal(err)
	}
	packed, err := EncodeOpts(img, Options{Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(packed) >= len(plain) {
		t.Fatalf("gzip did not shrink a repetitive image: %d >= %d", len(packed), len(plain))
	}
	got, err := Decode(packed)
	if err != nil {
		t.Fatal(err)
	}
	sameImage(t, got, img)
}

func TestChunkedAppStateRoundTrip(t *testing.T) {
	img := sampleImage(0, 2, 4)
	img.AppState = make([]byte, 3*AppChunk+17)
	for i := range img.AppState {
		img.AppState[i] = byte(i * 31)
	}
	data, err := Encode(img)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	sameImage(t, got, img)
}

func TestDecodeRejectsTruncatedHeader(t *testing.T) {
	data, err := Encode(sampleImage(0, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, 7, 8, 15} {
		if _, err := Decode(data[:n]); err == nil {
			t.Fatalf("%d-byte header accepted", n)
		}
	}
}

func TestDecodeRejectsUnknownFlags(t *testing.T) {
	data, err := Encode(sampleImage(0, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), data...)
	bad[14] |= 0x80 // an undefined flag bit
	if _, err := Decode(bad); err == nil || !strings.Contains(err.Error(), "flags") {
		t.Fatalf("unknown flags: %v", err)
	}
}

func TestDecodeRejectsTrailingData(t *testing.T) {
	data, err := Encode(sampleImage(0, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	// A torn write that appended garbage (or a second image) after the
	// end marker must be rejected, as the v2 whole-body CRC did.
	if _, err := Decode(append(append([]byte(nil), data...), 0xEE)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
	if _, err := Decode(append(append([]byte(nil), data...), data...)); err == nil {
		t.Fatal("concatenated images accepted")
	}
}

func TestDecodeRejectsMissingEndMarker(t *testing.T) {
	data, err := Encode(sampleImage(0, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	// Strip the END frame (16-byte header, empty payload).
	if _, err := Decode(data[:len(data)-16]); err == nil {
		t.Fatal("image without end marker accepted")
	}
}
