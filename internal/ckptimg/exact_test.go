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
// streaming encoder, is pinned by digest to the bytes the format has
// always had (gzip's output belongs to compress/flate and is held to a
// second encode instead). The pooled scratch both encoders write into
// is primed with stale bytes first.
func TestEncodersReturnExactImages(t *testing.T) {
	cases := []struct {
		name  string
		o     Options
		delta string // SHA-256 of the delta image; "" = not pinned
	}{
		{"plain", Options{}, "1dff18b74e7ee3f0a6c9715dd79cb179043b2b440547a3ba6ade43f0612b26e5"},
		{"fast-lz", Options{Compress: true, Tier: TierFastLZ}, "ad66c1bcb1e33b06d8eb7a312b93c41de541fa2412972a1e07ff97b635741328"},
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
