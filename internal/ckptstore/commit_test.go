package ckptstore

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"runtime"
	"strings"
	"testing"

	"manasim/internal/ckptimg"
)

// Commit validates images through ckptimg's streaming readers. These
// tests pin what it refuses and what it allocates doing so.

// section is one framed section of an encoded image (tag, length,
// CRC-32, payload), so a test can damage an image behind checksums that
// still verify.
type section struct {
	tag     uint32
	payload []byte
}

const tagDCHK = 0x4443484B // one delta chunk record

func splitSections(t *testing.T, img []byte) (hdr []byte, out []section) {
	t.Helper()
	hdr, rest := img[:16], img[16:]
	for len(rest) > 0 {
		if len(rest) < 16 {
			t.Fatal("torn section header")
		}
		n := int(binary.LittleEndian.Uint64(rest[4:12]))
		out = append(out, section{binary.LittleEndian.Uint32(rest[0:4]), append([]byte(nil), rest[16:16+n]...)})
		rest = rest[16+n:]
	}
	return hdr, out
}

func joinSections(hdr []byte, secs []section) []byte {
	out := append([]byte(nil), hdr...)
	for _, s := range secs {
		var h [16]byte
		binary.LittleEndian.PutUint32(h[0:4], s.tag)
		binary.LittleEndian.PutUint64(h[4:12], uint64(len(s.payload)))
		binary.LittleEndian.PutUint32(h[12:16], crc32.ChecksumIEEE(s.payload))
		out = append(append(out, h[:]...), s.payload...)
	}
	return out
}

// TestCommitRefusesBadDeltas: every way a delta can be wrong fails the
// commit naming the rank, records no generation and leaves no blob.
func TestCommitRefusesBadDeltas(t *testing.T) {
	const n = 3
	for _, compress := range []bool{false, true} {
		opts := Options{Delta: true, ChunkBytes: 128, Compress: compress, CompressTier: ckptimg.TierFastLZ}
		s := mustOpen(n, opts)
		commitGen(t, s, n, 0, func(r int) []byte { return appState(1000, 0) })
		good := encodeGen(t, s, n, 1, func(r int) []byte { return appState(1000, 1) })

		reframe := func(fn func(secs []section) []section) []byte {
			hdr, secs := splitSections(t, good[1])
			return joinSections(hdr, fn(secs))
		}
		firstDCHK := func(secs []section, changed bool) int {
			for i, sec := range secs {
				if sec.tag == tagDCHK && (!changed || sec.payload[4] != 0) {
					return i
				}
			}
			t.Fatal("no such chunk record")
			return -1
		}
		redelta := func(parent ckptimg.ChunkIndex, parentGen int, o ckptimg.Options) []byte {
			data, _, err := ckptimg.EncodeDelta(testImage(1, n, 1, appState(1000, 1)), parent, parentGen, o)
			if err != nil {
				t.Fatal(err)
			}
			return data
		}
		parent, _, _ := s.PlanDelta(1)
		o64 := s.EncodeOptions()
		o64.ChunkSize = 64
		cases := map[string][]byte{
			"missing chunk record": reframe(func(secs []section) []section {
				i := firstDCHK(secs, false)
				return append(secs[:i], secs[i+1:]...)
			}),
			"duplicate chunk record": reframe(func(secs []section) []section {
				i := firstDCHK(secs, false)
				return append(secs[:i+1], secs[i:]...)
			}),
			"chunk content does not match its recorded CRC": reframe(func(secs []section) []section {
				secs[firstDCHK(secs, true)].payload[5] ^= 1
				return secs
			}),
			"wrong parent generation": redelta(parent, 7, s.EncodeOptions()),
			"wrong chunk size":        redelta(indexState(appState(1000, 0), 64), 0, o64),
			"truncated":               good[1][:len(good[1])-9],
		}
		for what, bad := range cases {
			if !ckptimg.IsDelta(bad) {
				t.Fatalf("%s: test image is not a delta", what)
			}
			images := [][]byte{good[0], bad, good[2]}
			_, err := s.Commit(images)
			if err == nil || !strings.Contains(err.Error(), "rank 1") {
				t.Fatalf("compress=%v %s: Commit returned %v, want an error naming rank 1", compress, what, err)
			}
			if gens := s.Generations(); len(gens) != 1 {
				t.Fatalf("%s: refused commit recorded a generation: %v", what, gens)
			}
			keys, err := s.b.List()
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range keys {
				if strings.HasPrefix(k, "gen0001/") {
					t.Fatalf("%s: refused commit left blob %q behind", what, k)
				}
			}
		}
		// The sound generation still commits as deltas.
		if gen, err := s.Commit(good); err != nil || gen.DeltaRanks != n {
			t.Fatalf("sound generation after the refusals: %+v, %v", gen, err)
		}
	}
}

// TestCommitRefusesDamagedFullImages: a full image that does not
// validate fails the commit with ckptimg.ErrCorrupt naming the rank
// and the generation; the store records nothing, and the sound
// generation still commits after.
func TestCommitRefusesDamagedFullImages(t *testing.T) {
	for _, compress := range []bool{false, true} {
		opts := Options{Delta: true, ChunkBytes: 64, Compress: compress, CompressTier: ckptimg.TierFastLZ}
		s := mustOpen(2, opts)
		sound := func(rank int) []byte {
			data, err := ckptimg.EncodeOpts(testImage(rank, 2, 0, appState(400, 0)), s.EncodeOptions())
			if err != nil {
				t.Fatal(err)
			}
			return data
		}
		full := sound(0)
		hdr, secs := splitSections(t, full)
		for i := range secs {
			if secs[i].tag == 0x53545232 { // STR2: the vid store snapshot
				secs[i].payload = []byte{0xff, 0xff, 0xff}
			}
		}
		flipped := append([]byte(nil), full...)
		flipped[len(flipped)/2] ^= 4
		for what, bad := range map[string][]byte{
			"truncated":        full[:len(full)-20],
			"flipped bit":      flipped,
			"undecodable tail": joinSections(hdr, secs),
			"trailing bytes":   append(append([]byte(nil), full...), 1, 2, 3),
			"not an image":     []byte("not an image at all"),
			"header only":      full[:16],
		} {
			_, err := s.Commit([][]byte{bad, sound(1)})
			if !errors.Is(err, ckptimg.ErrCorrupt) || !strings.Contains(err.Error(), "generation 0 rank 0") {
				t.Fatalf("compress=%v %s: %v, want ErrCorrupt naming generation 0 rank 0", compress, what, err)
			}
			if len(s.Generations()) != 0 {
				t.Fatalf("compress=%v %s: a refused commit recorded a generation", compress, what)
			}
		}
		if gen, err := s.Commit([][]byte{sound(0), sound(1)}); err != nil || gen.DeltaRanks != 0 {
			t.Fatalf("compress=%v: sound generation after the refusals: %+v, %v", compress, gen, err)
		}
		for r := 0; r < 2; r++ {
			if _, _, ok := s.PlanDelta(r); !ok {
				t.Fatalf("compress=%v: rank %d holds no chunk index", compress, r)
			}
		}
	}
}

// indexState is the chunk-CRC index of an application state, computed
// directly: the reference the commit's streaming index must equal.
func indexState(app []byte, chunk int) ckptimg.ChunkIndex {
	x := ckptimg.ChunkIndex{ChunkBytes: chunk, Total: len(app)}
	for off := 0; off < len(app); off += chunk {
		x.CRCs = append(x.CRCs, crc32.ChecksumIEEE(app[off:min(off+chunk, len(app))]))
	}
	return x
}

// TestCommitIndexMatchesState: the index a streaming commit records is
// the index of the state — a delta planned against it ships exactly the
// chunks that changed, full base or delta parent, every tier.
func TestCommitIndexMatchesState(t *testing.T) {
	for _, o := range []Options{
		{Delta: true, ChunkBytes: 128},
		{Delta: true, ChunkBytes: 128, Compress: true, CompressTier: ckptimg.TierFast},
		{Delta: true, ChunkBytes: 128, Compress: true, CompressTier: ckptimg.TierFastLZ},
		{Delta: true, ChunkBytes: 128, Compress: true, CompressTier: ckptimg.TierFastLZ, Dedup: true},
	} {
		s := mustOpen(1, o)
		for gen := 0; gen < 3; gen++ {
			commitGen(t, s, 1, gen, func(int) []byte { return appState(1000, gen) })
			got, _, ok := s.PlanDelta(0)
			want := indexState(appState(1000, gen), 128)
			if !ok || got.Total != want.Total || len(got.CRCs) != len(want.CRCs) {
				t.Fatalf("%+v gen %d: index %+v, want %+v", o, gen, got, want)
			}
			for i := range want.CRCs {
				if got.CRCs[i] != want.CRCs[i] {
					t.Fatalf("%+v gen %d: chunk %d CRC differs", o, gen, i)
				}
			}
		}
	}
}

// TestCommitDoesNotMaterialize: committing a 16-rank delta generation
// allocates less than one rank's application state. Validation streams
// each rank's changed chunks through one chunk-sized scratch buffer; a
// decoded copy per rank (16 states here) is what this rules out.
func TestCommitDoesNotMaterialize(t *testing.T) {
	const n, size, chunk = 16, 1 << 20, 16 << 10
	state := func(gen int) []byte {
		out := make([]byte, size)
		for i := range out {
			out[i] = byte(i >> 8)
		}
		for i := size / 2; i < size; i += 512 {
			out[i] = byte(gen)
		}
		return out
	}
	for _, dedup := range []bool{false, true} {
		s := mustOpen(n, Options{
			Delta: true, Dedup: dedup, ChunkBytes: chunk,
			Compress: true, CompressTier: ckptimg.TierFastLZ,
		})
		commitGen(t, s, n, 0, func(int) []byte { return state(0) })
		commitGen(t, s, n, 1, func(int) []byte { return state(1) }) // warms the codec pools
		images := encodeGen(t, s, n, 2, func(int) []byte { return state(2) })
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		gen, err := s.Commit(images)
		runtime.ReadMemStats(&after)
		if err != nil || gen.DeltaRanks != n {
			t.Fatalf("dedup=%v: %+v, %v", dedup, gen, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= size {
			t.Errorf("dedup=%v: committing %d delta ranks of a %d-byte state allocated %d bytes", dedup, n, size, got)
		}
	}
}
