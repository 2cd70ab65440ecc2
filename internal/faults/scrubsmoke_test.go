package faults

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"manasim/internal/ckptimg"
	"manasim/internal/ckptstore"
)

// TestScrubFindsInjectedCorruption is the CI scrub smoke: at seed 42 a
// corruption-rate plan silently damages a deterministic set of store
// keys during commits; one scrub pass must account for every struck key
// — a typed finding naming it, or quarantine of the generation the key
// addresses (damage inside a recipe can surface as a phantom blob
// reference rather than the recipe's own key). Afterwards every
// non-quarantined generation must still materialize and every
// quarantined one must refuse with the typed sentinel — corruption is
// never silent.
func TestScrubFindsInjectedCorruption(t *testing.T) {
	inj := NewInjector(2, Plan{Seed: 42, CorruptRate: 0.25})
	s, err := ckptstore.Open(2, ckptstore.Options{
		Dedup: true, Delta: true, ChunkBytes: 1024,
		WrapBackend: inj.WrapBackend(),
	})
	if err != nil {
		t.Fatal(err)
	}
	appFor := func(g, r int) []byte {
		out := make([]byte, 16<<10)
		rand.New(rand.NewSource(int64(100 + r))).Read(out)
		for i := len(out) * 3 / 4; i < len(out); i++ {
			out[i] ^= byte(g * 31)
		}
		return out
	}
	for g := 0; g < 4; g++ {
		images := make([][]byte, 2)
		for r := 0; r < 2; r++ {
			img := &ckptimg.Image{Rank: r, NRanks: 2, Step: g * 10, Impl: "mpich",
				Design: "virtid", AppState: appFor(g, r)}
			var data []byte
			var err error
			if parent, pgen, ok := s.PlanDelta(r); ok {
				data, _, err = ckptimg.EncodeDelta(img, parent, pgen, s.EncodeOptions())
			} else {
				data, err = ckptimg.EncodeOpts(img, s.EncodeOptions())
			}
			if err != nil {
				t.Fatal(err)
			}
			images[r] = data
		}
		if _, err := s.Commit(images); err != nil {
			t.Fatal(err)
		}
	}
	struck := corruptedKeys(inj)
	if len(struck) == 0 {
		t.Fatal("seed 42 at rate 0.25 struck nothing; the smoke has no teeth")
	}

	rep, err := s.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Healthy() {
		t.Fatalf("scrub found nothing with %d keys struck", len(struck))
	}
	foundKeys := map[string]bool{}
	for _, f := range rep.Findings {
		foundKeys[f.Key] = true
	}
	quarantined := map[int]bool{}
	for _, seq := range s.Quarantined() {
		quarantined[seq] = true
	}
	for _, k := range struck {
		if foundKeys[k] {
			continue
		}
		var seq, rank int
		if n, _ := fmt.Sscanf(k, "gen%d/rank%d", &seq, &rank); n == 2 && quarantined[seq] {
			continue
		}
		t.Errorf("struck key %q neither reported nor quarantined", k)
	}

	// The degrade contract: quarantined generations refuse with the
	// typed sentinel, everything else still materializes.
	for _, g := range s.Generations() {
		_, _, err := s.MaterializeStream(g.Seq)
		if quarantined[g.Seq] {
			if !errors.Is(err, ckptstore.ErrQuarantined) {
				t.Errorf("quarantined gen %d: %v", g.Seq, err)
			}
		} else if err != nil {
			t.Errorf("surviving gen %d failed to materialize: %v", g.Seq, err)
		}
	}

	// Determinism: the same seed and commit sequence strikes the same
	// keys and scrubs to the same findings.
	if again := corruptedKeys(inj); len(again) != len(struck) {
		t.Fatal("strike set changed after scrub")
	}
}
