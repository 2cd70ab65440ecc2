package ckptstore

import (
	"encoding/binary"
	"errors"
	"testing"

	"manasim/internal/ckptimg"
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
			s := MustOpen(1, Options{Delta: true, ChunkBytes: cs, ChainCap: 8})
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
