package ckptimg

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

// The commit path validates with IndexFull and IndexDelta instead of
// Decode and DecodeDelta. These tests hold the two pairs to the same
// verdict on every damaged image they are shown, and to the same index
// on every sound one.

// frame is one section of an encoded image, for tests that damage an
// image behind valid frame checksums.
type frame struct {
	tag     uint32
	payload []byte
}

func splitFrames(t *testing.T, data []byte) (hdr []byte, out []frame) {
	t.Helper()
	c := &sectionCursor{data: data, off: 16}
	for c.rest() > 0 {
		tag, payload, err := c.next()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, frame{tag, append([]byte(nil), payload...)})
	}
	return data[:16], out
}

func joinFrames(hdr []byte, frames []frame) []byte {
	var buf bytes.Buffer
	buf.Write(hdr)
	for _, f := range frames {
		writeSection(&buf, f.tag, f.payload)
	}
	return buf.Bytes()
}

var indexTiers = []struct {
	name string
	o    Options
}{
	{"raw", Options{ChunkSize: 128}},
	{"gzip-fast", Options{ChunkSize: 128, Compress: true, Tier: TierFast}},
	{"fast-lz", Options{ChunkSize: 128, Compress: true, Tier: TierFastLZ}},
}

// sameVerdictFull: IndexFull fails exactly when Decode does, and agrees
// with it on the index otherwise.
func sameVerdictFull(t *testing.T, data []byte, what string) {
	t.Helper()
	img, derr := Decode(data)
	ix, ierr := IndexFull(data, 128)
	if (derr == nil) != (ierr == nil) {
		t.Fatalf("%s: Decode says %v, IndexFull says %v", what, derr, ierr)
	}
	if derr != nil {
		return
	}
	if want := IndexAppState(img.AppState, 128); !reflect.DeepEqual(ix.Index, want) || ix.Step != img.Step {
		t.Fatalf("%s: IndexFull %+v, Decode implies step %d index %+v", what, ix, img.Step, want)
	}
}

// sameVerdictDelta is sameVerdictFull for DecodeDelta and IndexDelta.
func sameVerdictDelta(t *testing.T, data, parentApp []byte, what string) {
	t.Helper()
	d, derr := DecodeDelta(data)
	ix, ierr := IndexDelta(data)
	if (derr == nil) != (ierr == nil) {
		t.Fatalf("%s: DecodeDelta says %v, IndexDelta says %v", what, derr, ierr)
	}
	if derr != nil {
		return
	}
	if ix.Step != d.Image.Step || ix.ParentGen != d.ParentGen || ix.Index.ChunkBytes != d.ChunkBytes {
		t.Fatalf("%s: IndexDelta %+v vs decoded %+v", what, ix, d)
	}
	if img, err := d.Apply(parentApp); err == nil {
		if want := IndexAppState(img.AppState, d.ChunkBytes); !reflect.DeepEqual(ix.Index, want) {
			t.Fatalf("%s: IndexDelta index %+v, applied state indexes to %+v", what, ix.Index, want)
		}
	}
}

// TestIndexMatchesDecodeUnderDamage flips every byte and tries every
// truncation of a full and a delta image in each compression tier.
func TestIndexMatchesDecodeUnderDamage(t *testing.T) {
	parent, child := deltaTestImage(0), deltaTestImage(1)
	for _, tier := range indexTiers {
		t.Run(tier.name, func(t *testing.T) {
			full, err := EncodeOpts(child, tier.o)
			if err != nil {
				t.Fatal(err)
			}
			delta, st, err := EncodeDelta(child, IndexAppState(parent.AppState, 128), 0, tier.o)
			if err != nil || st.Changed == 0 || st.Changed == st.Chunks {
				t.Fatalf("delta %+v: %v", st, err)
			}
			sameVerdictFull(t, full, "sound full image")
			sameVerdictDelta(t, delta, parent.AppState, "sound delta image")
			if _, err := IndexFull(full, 128); err != nil {
				t.Fatal(err)
			}
			if _, err := IndexDelta(delta); err != nil {
				t.Fatal(err)
			}
			for i := range full {
				bad := append([]byte(nil), full...)
				bad[i] ^= 0x21
				sameVerdictFull(t, bad, "full image, flipped byte")
				sameVerdictFull(t, full[:i], "full image, truncated")
			}
			for i := range delta {
				bad := append([]byte(nil), delta...)
				bad[i] ^= 0x21
				sameVerdictDelta(t, bad, parent.AppState, "delta image, flipped byte")
				sameVerdictDelta(t, delta[:i], parent.AppState, "delta image, truncated")
			}
			sameVerdictFull(t, append(append([]byte(nil), full...), 0), "full image, byte appended")
			sameVerdictFull(t, delta, "delta image handed to the full-image reader")
			sameVerdictDelta(t, full, nil, "full image handed to the delta reader")
		})
	}
}

// TestIndexRejectsWellFramedDamage damages images behind valid frame
// checksums — what a buggy or hostile writer produces, not a flipped
// bit — and expects both readers to refuse each case.
func TestIndexRejectsWellFramedDamage(t *testing.T) {
	parent, child := deltaTestImage(0), deltaTestImage(1)
	pidx := IndexAppState(parent.AppState, 128)
	for _, tier := range indexTiers {
		t.Run(tier.name, func(t *testing.T) {
			delta, _, err := EncodeDelta(child, pidx, 0, tier.o)
			if err != nil {
				t.Fatal(err)
			}
			hdr, frames := splitFrames(t, delta)
			firstChanged, firstAny := -1, -1
			for i, f := range frames {
				if f.tag != secDeltaChunk {
					continue
				}
				if firstAny < 0 {
					firstAny = i
				}
				if f.payload[4] != 0 && firstChanged < 0 {
					firstChanged = i
				}
			}
			if firstChanged < 0 {
				t.Fatal("no changed chunk to damage")
			}
			edit := func(fn func(fs []frame) []frame) []byte {
				fs := make([]frame, len(frames))
				for i, f := range frames {
					fs[i] = frame{f.tag, append([]byte(nil), f.payload...)}
				}
				return joinFrames(hdr, fn(fs))
			}
			cases := map[string][]byte{
				"chunk record dropped": edit(func(fs []frame) []frame {
					return append(fs[:firstAny], fs[firstAny+1:]...)
				}),
				"chunk record duplicated": edit(func(fs []frame) []frame {
					return append(fs[:firstAny+1], fs[firstAny:]...)
				}),
				"recorded content CRC wrong": edit(func(fs []frame) []frame {
					fs[firstChanged].payload[5] ^= 1
					return fs
				}),
				"chunk records before the linkage": edit(func(fs []frame) []frame {
					fs[1], fs[firstAny] = fs[firstAny], fs[1]
					return fs
				}),
				"vid store section does not decode": edit(func(fs []frame) []frame {
					for i := range fs {
						if fs[i].tag == secStore2 {
							fs[i].payload = []byte{0xff, 0xff, 0xff}
						}
					}
					return fs
				}),
			}
			for what, bad := range cases {
				if _, err := DecodeDelta(bad); err == nil {
					t.Errorf("%s: DecodeDelta accepted it", what)
				}
				if _, err := IndexDelta(bad); err == nil {
					t.Errorf("%s: IndexDelta accepted it", what)
				}
			}

			full, err := EncodeOpts(child, tier.o)
			if err != nil {
				t.Fatal(err)
			}
			fhdr, fframes := splitFrames(t, full)
			for i := range fframes {
				if fframes[i].tag == secStore2 {
					fframes[i].payload = []byte{0xff, 0xff, 0xff}
				}
			}
			bad := joinFrames(fhdr, fframes)
			if _, err := Decode(bad); err == nil {
				t.Error("full image with an undecodable vid store: Decode accepted it")
			}
			if _, err := IndexFull(bad, 128); err == nil {
				t.Error("full image with an undecodable vid store: IndexFull accepted it")
			}
		})
	}
}

// TestIndexRejectsWrongDeclaredLength: a fast-lz frame declares its raw
// length up front; a state that inflates to another length is refused,
// as is data behind the frame's last block.
func TestIndexRejectsWrongDeclaredLength(t *testing.T) {
	img := deltaTestImage(1)
	full, err := EncodeOpts(img, Options{ChunkSize: 4096, Compress: true, Tier: TierFastLZ})
	if err != nil {
		t.Fatal(err)
	}
	hdr, frames := splitFrames(t, full)
	app := -1
	for i, f := range frames {
		if f.tag == secApp {
			if app >= 0 {
				t.Fatal("expected the frame in one APPS section")
			}
			app = i
		}
	}
	lzFrame := frames[app].payload
	for what, edit := range map[string]func() []byte{
		"declares one byte more": func() []byte {
			b := append([]byte(nil), lzFrame...)
			binary.LittleEndian.PutUint64(b[4:12], uint64(len(img.AppState)+1))
			return b
		},
		"declares one byte fewer": func() []byte {
			b := append([]byte(nil), lzFrame...)
			binary.LittleEndian.PutUint64(b[4:12], uint64(len(img.AppState)-1))
			return b
		},
		"a block after the last": func() []byte {
			return append(append([]byte(nil), lzFrame...), 1, 0, 0, 0x80, 'x')
		},
	} {
		frames[app].payload = edit()
		bad := joinFrames(hdr, frames)
		if _, err := Decode(bad); err == nil {
			t.Errorf("%s: Decode accepted it", what)
		}
		if _, err := IndexFull(bad, 128); err == nil {
			t.Errorf("%s: IndexFull accepted it", what)
		}
	}
}

// TestIndexFullLegacyAndEmpty: an empty state indexes to no chunks in
// every tier. (Pre-v3 images are refused, see TestPreV3ImagesRefused in
// ckptstore.)
func TestIndexFullLegacyAndEmpty(t *testing.T) {
	empty := deltaTestImage(0)
	empty.AppState = nil
	for _, tier := range indexTiers {
		data, err := EncodeOpts(empty, tier.o)
		if err != nil {
			t.Fatal(err)
		}
		sameVerdictFull(t, data, "empty state, "+tier.name)
		if ix, err := IndexFull(data, 128); err != nil || ix.Index.Total != 0 || ix.Index.CRCs != nil {
			t.Fatalf("empty state, %s: %+v, %v", tier.name, ix, err)
		}
	}
}

// TestIndexDeltaStricterOnRawChunkLength records the one case where the
// streaming validator is stricter than DecodeDelta: an uncompressed
// chunk of the wrong length whose CRC matches its own bytes. DecodeDelta
// lets it through to Apply, which refuses it; IndexDelta refuses it at
// commit time.
func TestIndexDeltaStricterOnRawChunkLength(t *testing.T) {
	parent, child := deltaTestImage(0), deltaTestImage(1)
	delta, _, err := EncodeDelta(child, IndexAppState(parent.AppState, 128), 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	hdr, frames := splitFrames(t, delta)
	for i, f := range frames {
		if f.tag == secDeltaChunk && f.payload[4] != 0 {
			short := f.payload[:len(f.payload)-1]
			binary.LittleEndian.PutUint32(short[5:9], crc32.ChecksumIEEE(short[9:]))
			frames[i].payload = short
			break
		}
	}
	bad := joinFrames(hdr, frames)
	d, err := DecodeDelta(bad)
	if err != nil {
		t.Fatalf("DecodeDelta: %v", err)
	}
	if _, err := d.Apply(parent.AppState); err == nil {
		t.Fatal("Apply accepted a short chunk")
	}
	if _, err := IndexDelta(bad); err == nil {
		t.Fatal("IndexDelta accepted a short chunk")
	}
}

// TestEncodersReturnWhatTheyWrote: a compressed image is a small
// fraction of its state, and the slice an encoder returns must not keep
// a state-sized array alive behind it (the coordinator stages every
// rank's image, stores hold them for good).
func TestEncodersReturnWhatTheyWrote(t *testing.T) {
	app := make([]byte, 2<<20)
	for i := range app {
		app[i] = byte(i >> 9)
	}
	parent := &Image{NRanks: 1, Impl: "mpich", Design: "virtid", AppState: app}
	child := &Image{NRanks: 1, Step: 1, Impl: "mpich", Design: "virtid", AppState: append([]byte(nil), app...)}
	for i := len(app) / 2; i < len(app); i += 4096 {
		child.AppState[i] ^= 0xa5
	}
	for _, tier := range []CompressTier{TierFast, TierFastLZ} {
		o := Options{Compress: true, Tier: tier}
		full, err := EncodeOpts(parent, o)
		if err != nil {
			t.Fatal(err)
		}
		var plain bytes.Buffer
		if err := EncodeTo(&plain, parent, o); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(full, plain.Bytes()) {
			t.Errorf("%v: EncodeOpts and EncodeTo disagree", tier)
		}
		delta, st, err := EncodeDelta(child, IndexAppState(app, AppChunk), 0, o)
		if err != nil || st.Changed != st.Chunks/2 {
			t.Fatalf("%v: delta %+v: %v", tier, st, err)
		}
		for what, out := range map[string][]byte{"full": full, "delta": delta} {
			if len(out) > len(app)/8 {
				t.Errorf("%v %s: %d bytes for a %d-byte compressible state", tier, what, len(out), len(app))
			}
			if slack := cap(out) - len(out); slack > 4<<10 {
				t.Errorf("%v %s: %d-byte image pins a %d-byte array", tier, what, len(out), cap(out))
			}
		}
		if d, err := DecodeDelta(delta); err != nil {
			t.Errorf("%v: %v", tier, err)
		} else if img, err := d.Apply(app); err != nil || !bytes.Equal(img.AppState, child.AppState) {
			t.Errorf("%v: delta does not apply back: %v", tier, err)
		}
	}
}

// TestIndexScratchPooled: a commit validates every rank of every
// generation, so IndexFull and IndexDelta read application state
// through pooled chunk scratch instead of allocating a chunk per image.
// Repeated calls over a 2 MB state allocate less than one chunk per
// call on average, and callers on several goroutines at once share the
// pool and still get the index the state implies.
func TestIndexScratchPooled(t *testing.T) {
	const chunk = AppChunk
	o := Options{Compress: true, Tier: TierFastLZ}
	state := func(gen int) []byte {
		app := make([]byte, 2<<20)
		for i := range app {
			app[i] = byte(i>>9 ^ gen*(i>>18))
		}
		return app
	}
	type job struct {
		data  []byte
		delta bool
		want  ChunkIndex
	}
	var fulls, deltas []job
	for gen := 1; gen <= 3; gen++ {
		img := &Image{NRanks: 1, Step: gen, Impl: "mpich", Design: "virtid", AppState: state(gen)}
		full, err := EncodeOpts(img, o)
		if err != nil {
			t.Fatal(err)
		}
		delta, st, err := EncodeDelta(img, IndexAppState(state(gen-1), chunk), gen-1, o)
		if err != nil {
			t.Fatal(err)
		}
		if st.Changed == 0 {
			t.Fatalf("generation %d: the delta ships no chunk to inflate", gen)
		}
		want := IndexAppState(img.AppState, chunk)
		fulls = append(fulls, job{full, false, want})
		deltas = append(deltas, job{delta, true, want})
	}
	index := func(j job) (ChunkIndex, error) {
		var ix Indexed
		var err error
		if j.delta {
			ix, err = IndexDelta(j.data)
		} else {
			ix, err = IndexFull(j.data, chunk)
		}
		return ix.Index, err
	}

	for _, set := range [][]job{fulls, deltas} {
		const calls = 30
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			if _, err := index(set[i%len(set)]); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		per := (after.TotalAlloc - before.TotalAlloc) / calls
		t.Logf("delta=%v: %d bytes allocated per call", set[0].delta, per)
		if per >= chunk {
			t.Errorf("delta=%v: %d bytes allocated per call, want under one %d-byte chunk: the scratch is not pooled", set[0].delta, per, chunk)
		}
	}

	jobs := append(fulls, deltas...)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				j := jobs[(g+i)%len(jobs)]
				got, err := index(j)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, j.want) {
					t.Errorf("goroutine %d, call %d (delta=%v): index differs from the state's", g, i, j.delta)
					return
				}
			}
		}()
	}
	wg.Wait()
}
