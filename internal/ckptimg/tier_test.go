package ckptimg

import (
	"bytes"
	"encoding/binary"
	"testing"
)

func TestParseCompressTier(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want CompressTier
		ok   bool
	}{
		{"", TierBalanced, true},
		{"balanced", TierBalanced, true},
		{"default", TierBalanced, true},
		{"fast", TierFast, true},
		{"max", TierMax, true},
		{"zstd", TierBalanced, false},
	} {
		got, err := ParseCompressTier(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Fatalf("ParseCompressTier(%q) = %v, %v; want %v, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
	for _, tier := range []CompressTier{TierBalanced, TierFast, TierMax} {
		back, err := ParseCompressTier(tier.String())
		if err != nil || back != tier {
			t.Fatalf("tier %v does not round-trip through String: %v, %v", tier, back, err)
		}
	}
}

func TestCompressTierRoundTrip(t *testing.T) {
	// A compressible app state (repetitive) so tiers actually differ.
	app := bytes.Repeat([]byte("manasim checkpoint tier "), 4096)
	img := sampleImage(0, 2, 4)
	img.AppState = app
	for _, tier := range []CompressTier{TierBalanced, TierFast, TierMax} {
		data, err := EncodeOpts(img, Options{Compress: true, Tier: tier})
		if err != nil {
			t.Fatalf("tier %v: %v", tier, err)
		}
		flags := binary.LittleEndian.Uint32(data[12:16])
		if flags&FlagGzip == 0 {
			t.Fatalf("tier %v: gzip flag missing", tier)
		}
		if wantFast := tier == TierFast; (flags&FlagFastCompress != 0) != wantFast {
			t.Fatalf("tier %v: FlagFastCompress = %v, want %v", tier, flags&FlagFastCompress != 0, wantFast)
		}
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("tier %v decode: %v", tier, err)
		}
		if !bytes.Equal(got.AppState, app) {
			t.Fatalf("tier %v: app state mismatch", tier)
		}
	}
}

func TestCompressTierDeltaRoundTrip(t *testing.T) {
	const cs = 64
	parentApp := bytes.Repeat([]byte("p"), 1000)
	newApp := append([]byte(nil), parentApp...)
	copy(newApp[900:], bytes.Repeat([]byte("q"), 100))
	img := sampleImage(0, 2, 5)
	img.AppState = newApp
	parent := IndexAppState(parentApp, cs)
	for _, tier := range []CompressTier{TierFast, TierMax} {
		data, st, err := EncodeDelta(img, parent, 0, Options{Compress: true, Tier: tier})
		if err != nil {
			t.Fatalf("tier %v: %v", tier, err)
		}
		if st.Changed == 0 || st.Changed == st.Chunks {
			t.Fatalf("tier %v: unexpected stats %+v", tier, st)
		}
		flags := binary.LittleEndian.Uint32(data[12:16])
		if wantFast := tier == TierFast; (flags&FlagFastCompress != 0) != wantFast {
			t.Fatalf("tier %v: FlagFastCompress = %v, want %v", tier, flags&FlagFastCompress != 0, wantFast)
		}
		d, err := DecodeDelta(data)
		if err != nil {
			t.Fatalf("tier %v decode: %v", tier, err)
		}
		full, err := d.Apply(parentApp)
		if err != nil {
			t.Fatalf("tier %v apply: %v", tier, err)
		}
		if !bytes.Equal(full.AppState, newApp) {
			t.Fatalf("tier %v: materialized state mismatch", tier)
		}
	}
}
