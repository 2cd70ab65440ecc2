package ckptimg

import (
	"bytes"
	"errors"
	"testing"
)

// TestVerify: the verify-only reader accepts intact full, delta and
// compressed images and rejects every damaged shape with ErrCorrupt —
// a rotted magic and bytes that are no image at all included.
func TestVerify(t *testing.T) {
	img := sampleImage(0, 2, 4)
	img.AppState = bytes.Repeat([]byte{7}, 4096)

	full, err := Encode(img)
	if err != nil {
		t.Fatal(err)
	}
	gz, err := EncodeOpts(img, Options{Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	next := sampleImage(0, 2, 5)
	next.AppState = bytes.Repeat([]byte{7}, 4096)
	next.AppState[100] = 9
	delta, _, err := EncodeDelta(next, IndexAppState(img.AppState, 1024), 3, Options{ChunkSize: 1024})
	if err != nil {
		t.Fatal(err)
	}

	for name, data := range map[string][]byte{"full": full, "gzip": gz, "delta": delta} {
		if err := Verify(data); err != nil {
			t.Fatalf("%s image failed verify: %v", name, err)
		}
		// A bit flip anywhere past the magic must be caught.
		for _, off := range []int{9, 20, len(data) / 2, len(data) - 1} {
			mut := append([]byte(nil), data...)
			mut[off] ^= 0x10
			if err := Verify(mut); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s flip at %d not caught: %v", name, off, err)
			}
		}
		// Truncations and torn (zeroed-tail) writes too.
		if err := Verify(data[:len(data)-3]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s truncation not caught: %v", name, err)
		}
		torn := append([]byte(nil), data...)
		for i := len(torn) / 2; i < len(torn); i++ {
			torn[i] = 0
		}
		if err := Verify(torn); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s torn write not caught: %v", name, err)
		}
		// Trailing bytes after the end marker are a torn append.
		if err := Verify(append(append([]byte(nil), data...), 0xde)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s trailing byte not caught: %v", name, err)
		}
	}

	rotted := append([]byte(nil), full...)
	rotted[3] ^= 0x20
	if err := Verify(rotted); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("rotted magic: %v", err)
	}
	if err := Verify([]byte("not an image at all")); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("non-image payload: %v", err)
	}
	if err := Verify(nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("empty payload: %v", err)
	}
}
