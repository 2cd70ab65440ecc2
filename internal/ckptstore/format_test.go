package ckptstore

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"slices"
	"testing"

	"manasim/internal/ckptimg"
	"manasim/internal/mpi"
	"manasim/internal/vid"
)

// legacyTags are the section tags early v3 builds wrote with gob-coded
// payloads; the binary codec replaced each under a new tag.
var legacyTags = map[string]uint32{
	"META": 0x4D455441,
	"DRNS": 0x44524E53,
	"REQS": 0x52455153,
	"CNTR": 0x434E5452,
	"DMET": 0x444D4554,
}

// TestPreV3ImagesRefused: v3 with binary section tags is the only image
// encoding. A v2 header, and each gob-era section tag inside an
// otherwise valid image, is refused as damaged bytes by every reader —
// never decoded, never a panic — fails chain resolution with a typed
// *ChainLinkError wherever it sits in the chain, and is a scrub finding.
func TestPreV3ImagesRefused(t *testing.T) {
	const cs = 128
	forms := map[string]func(img []byte) []byte{
		"v2 header": func(img []byte) []byte {
			b := append([]byte(nil), img...)
			binary.LittleEndian.PutUint32(b[8:12], 2)
			return b
		},
	}
	for name, tag := range legacyTags {
		forms[name+" section"] = func(img []byte) []byte {
			// Lead with the legacy section, so a reader that looks at the
			// first section only (PeekMeta) meets it too.
			hdr, secs := splitSections(t, img)
			return joinSections(hdr, append([]section{{tag, []byte{0x0c, 0xff, 0x81}}}, secs...))
		}
	}
	for name, legacy := range forms {
		t.Run(name, func(t *testing.T) {
			s := mustOpen(1, Options{Delta: true, ChunkBytes: cs, ChainCap: 8})
			commitGen(t, s, 1, 0, func(int) []byte { return appState(1000, 0) })
			commitGen(t, s, 1, 1, func(int) []byte { return appState(1000, 1) })
			base, err := s.b.Get(key(0, 0))
			if err != nil {
				t.Fatal(err)
			}
			link, err := s.b.Get(key(1, 0))
			if err != nil {
				t.Fatal(err)
			}
			if ckptimg.IsDelta(base) || !ckptimg.IsDelta(link) {
				t.Fatal("want a full base under a delta link")
			}
			badBase, badLink := legacy(base), legacy(link)

			refused := func(what string, err error) {
				t.Helper()
				if !errors.Is(err, ckptimg.ErrCorrupt) {
					t.Errorf("%s: %v, want an error wrapping ckptimg.ErrCorrupt", what, err)
				}
			}
			_, err = ckptimg.Decode(badBase)
			refused("Decode", err)
			_, err = ckptimg.IndexFull(badBase, cs)
			refused("IndexFull", err)
			_, err = ckptimg.IndexDelta(badLink)
			refused("IndexDelta", err)
			_, err = ckptimg.OpenDelta(badLink, true)
			refused("OpenDelta", err)
			for what, data := range map[string][]byte{"full": badBase, "delta": badLink} {
				_, err = ckptimg.PeekMeta(data)
				refused("PeekMeta/"+what, err)
				refused("Verify/"+what, ckptimg.Verify(data))
			}

			put := func(k string, data []byte) {
				t.Helper()
				if err := s.b.Put(k, data); err != nil {
					t.Fatal(err)
				}
			}
			resolve := func(what string, seq, badGen int) {
				t.Helper()
				imgs, stats, err := s.MaterializeStream(seq)
				var cle *ChainLinkError
				if !errors.As(err, &cle) || cle.Gen != badGen || !errors.Is(err, ckptimg.ErrCorrupt) {
					t.Errorf("%s: %v, want a *ChainLinkError for generation %d wrapping ckptimg.ErrCorrupt", what, err, badGen)
				}
				if imgs != nil || stats != nil {
					t.Errorf("%s: partial results escaped", what)
				}
			}
			put(key(0, 0), badBase)
			resolve("full head", 0, 0)
			resolve("base under a delta link", 1, 0)
			put(key(0, 0), base)
			put(key(1, 0), badLink)
			resolve("delta link", 1, 1)

			put(key(0, 0), badBase)
			rep, err := s.Scrub()
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []string{key(0, 0), key(1, 0)} {
				found := false
				for _, f := range rep.Findings {
					found = found || (f.Key == k && f.Kind == FindingCorruptBlob)
				}
				if !found {
					t.Errorf("scrub did not report %s: %+v", k, rep.Findings)
				}
			}
		})
	}
}

// Section tags of the vid store snapshot: gob-coded in earlier builds,
// binary now.
const (
	tagSTOR = 0x53544F52
	tagSTR2 = 0x53545232
)

// TestRetiredStoreFormatsRefused: an image whose vid store travels in
// the gob-coded STOR section of earlier builds, and a dedup recipe in
// the text-keyed MANARCP1 format of earlier builds, are refused as
// damaged bytes: every image reader fails with ErrCorrupt, resolving
// the generation fails with a *ChainLinkError wrapping it, and scrub
// reports the key as corrupt and quarantines its generation.
func TestRetiredStoreFormatsRefused(t *testing.T) {
	refused := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, ckptimg.ErrCorrupt) {
			t.Errorf("%s: %v, want an error wrapping ckptimg.ErrCorrupt", what, err)
		}
	}
	put := func(s *Store, k string, data []byte) {
		t.Helper()
		if err := s.b.Put(k, data); err != nil {
			t.Fatal(err)
		}
	}
	// quarantined scrubs s and checks that k is a corrupt-blob finding
	// and generation 0, whose key it is, is quarantined for good.
	quarantined := func(s *Store, k string) {
		t.Helper()
		var cle *ChainLinkError
		if _, _, err := s.MaterializeStream(0); !errors.As(err, &cle) || cle.Gen != 0 {
			t.Errorf("resolving generation 0: %v, want a *ChainLinkError for it", err)
		} else {
			refused("resolving generation 0", err)
		}
		rep, err := s.Scrub()
		if err != nil {
			t.Fatal(err)
		}
		i := slices.IndexFunc(rep.Findings, func(f ScrubFinding) bool { return f.Key == k })
		if i < 0 || rep.Findings[i].Kind != FindingCorruptBlob {
			t.Errorf("scrub did not report %s as corrupt: %+v", k, rep.Findings)
		}
		if !slices.Contains(rep.Quarantined, 0) || !s.IsQuarantined(0) {
			t.Errorf("scrub quarantined %v, want generation 0 among them", rep.Quarantined)
		}
		if _, _, err := s.MaterializeStream(0); !errors.Is(err, ErrQuarantined) {
			t.Errorf("generation 0 after the scrub: %v, want ErrQuarantined", err)
		}
	}

	t.Run("STOR section", func(t *testing.T) {
		const cs = 128
		s := mustOpen(1, Options{Delta: true, ChunkBytes: cs, ChainCap: 8})
		commitGen(t, s, 1, 0, func(int) []byte { return appState(1000, 0) })
		commitGen(t, s, 1, 1, func(int) []byte { return appState(1000, 1) })
		// What an earlier build wrote: the snapshot gob-coded under STOR
		// where this build writes STR2.
		var stor bytes.Buffer
		snap := vid.StoreSnapshot{Design: "virtid", Seq: 3, Items: []vid.Item{
			{Kind: mpi.KindComm, Virt: 0x10000001, GGID: 7, Seq: 1,
				Desc: vid.Descriptor{Op: vid.DescCommSplit, Parent: 1, Ints: []int{0, 1}}},
		}}
		if err := gob.NewEncoder(&stor).Encode(&snap); err != nil {
			t.Fatal(err)
		}
		retire := func(k string) []byte {
			t.Helper()
			img, err := s.b.Get(k)
			if err != nil {
				t.Fatal(err)
			}
			hdr, secs := splitSections(t, img)
			n := 0
			for i := range secs {
				if secs[i].tag == tagSTR2 {
					secs[i] = section{tagSTOR, stor.Bytes()}
					n++
				}
			}
			if n != 1 {
				t.Fatalf("%s carries %d vid store sections", k, n)
			}
			return joinSections(hdr, secs)
		}
		base, link := retire(key(0, 0)), retire(key(1, 0))
		_, err := ckptimg.Decode(base)
		refused("Decode", err)
		_, err = ckptimg.IndexFull(base, cs)
		refused("IndexFull", err)
		_, err = ckptimg.IndexDelta(link)
		refused("IndexDelta", err)
		for _, tail := range []bool{true, false} {
			_, err = ckptimg.OpenDelta(link, tail)
			refused(fmt.Sprintf("OpenDelta(decodeTail=%v)", tail), err)
		}
		refused("Verify/full", ckptimg.Verify(base))
		refused("Verify/delta", ckptimg.Verify(link))
		put(s, key(0, 0), base)
		quarantined(s, key(0, 0))
	})

	t.Run("MANARCP1 recipe", func(t *testing.T) {
		s := mustOpen(2, dedupOptions())
		commitGen(t, s, 2, 0, func(r int) []byte { return sharedAppState(4<<10, r, 0) })
		data, err := s.b.Get(key(0, 1))
		if err != nil {
			t.Fatal(err)
		}
		total, ids, err := decodeRecipe(data)
		if err != nil {
			t.Fatal(err)
		}
		// What an earlier build wrote: each segment as its text key.
		old := binary.AppendUvarint([]byte("MANARCP1"), uint64(total))
		old = binary.AppendUvarint(old, uint64(len(ids)))
		for _, id := range ids {
			k := id.key()
			old = append(binary.AppendUvarint(old, uint64(len(k))), k...)
		}
		_, _, err = decodeRecipe(old)
		refused("decodeRecipe", err)
		put(s, key(0, 1), old)
		quarantined(s, key(0, 1))
	})
}
