package ckptimg

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestEncodersReturnExactImages: full and delta images, compressed or
// not, come back in arrays exactly their length (len == cap), so a
// store that keeps an image keeps nothing behind it. A full image is
// byte-equal to what EncodeTo streams; a delta image, which has no
// streaming encoder, is pinned by digest to the format's bytes (gzip's
// output belongs to compress/flate and is held to a second encode
// instead). The pooled scratch both encoders write into is primed with
// stale bytes first.
func TestEncodersReturnExactImages(t *testing.T) {
	cases := []struct {
		name  string
		o     Options
		delta string // SHA-256 of the delta image; "" = not pinned
	}{
		{"plain", Options{}, "a9086fd73466cfa3e32f8735987dc59833031ba486e6b2cc86617cb002f5261b"},
		{"fast-lz", Options{Compress: true, Tier: TierFastLZ}, "b2edef7d3a5e120367ba19015c65cafdf977f6a30db10d75d182ffc2b37f33d1"},
		{"gzip", Options{Compress: true}, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			stale := getBuf()
			stale.Write(bytes.Repeat([]byte{0xAA}, 64<<10))
			putBuf(stale)

			parent := sampleImage(1, 4, 2)
			parent.AppState = deltaTestImage(0).AppState
			child := sampleImage(1, 4, 3)
			child.AppState = deltaTestImage(1).AppState

			full, err := EncodeOpts(parent, c.o)
			if err != nil {
				t.Fatal(err)
			}
			var streamed bytes.Buffer
			if err := EncodeTo(&streamed, parent, c.o); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(full, streamed.Bytes()) {
				t.Error("full image differs from the streamed one")
			}
			if len(full) != cap(full) {
				t.Errorf("full image: %d bytes in a %d-byte array", len(full), cap(full))
			}

			idx := IndexAppState(parent.AppState, 128)
			delta, st, err := EncodeDelta(child, idx, 0, c.o)
			if err != nil {
				t.Fatal(err)
			}
			if st.Chunks != 8 || st.Changed != 3 {
				t.Errorf("delta stats %+v, want 3 of 8 chunks changed", st)
			}
			if len(delta) != cap(delta) {
				t.Errorf("delta image: %d bytes in a %d-byte array", len(delta), cap(delta))
			}
			if sum := sha256.Sum256(delta); c.delta != "" && hex.EncodeToString(sum[:]) != c.delta {
				t.Errorf("delta image digest %x, want %s", sum, c.delta)
			}
			again, _, err := EncodeDelta(child, idx, 0, c.o)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(delta, again) {
				t.Error("a second delta encode differs from the first")
			}
		})
	}
}
