package ckptstore

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"testing"
)

// TestKeysMatchFmt: the key formatters append with strconv and hex
// instead of fmt and write, byte for byte, what the fmt formats they
// replaced wrote — generations past four digits and ranks past two
// included — and a recipe rebuilds exactly the keys its segments' blobs
// are stored under.
func TestKeysMatchFmt(t *testing.T) {
	for _, seq := range []int{0, 1, 9, 10, 999, 9999, 10000, 123456, math.MaxInt} {
		for _, rank := range []int{0, 1, 9, 10, 99, 100, 1023, 65536} {
			want := fmt.Sprintf("gen%04d/rank%02d", seq, rank)
			if got := key(seq, rank); got != want {
				t.Errorf("key(%d, %d) = %q, want %q", seq, rank, got, want)
			}
			if s, r, ok := parseRankKey(want); !ok || s != seq || r != rank {
				t.Errorf("parseRankKey(%q) = %d, %d, %v", want, s, r, ok)
			}
		}
	}

	var ids []blobID
	var want []string
	for _, seg := range [][]byte{nil, []byte("a"), []byte("beta-segment"), bytes.Repeat([]byte{0x5a}, 70000)} {
		sum := sha256.Sum256(seg)
		k := fmt.Sprintf("%s%08x-%d-%x", blobPrefix, crc32.ChecksumIEEE(seg), len(seg), sum[:16])
		if got := idOf(seg).key(); got != k {
			t.Errorf("blob key = %q, want %q", got, k)
		}
		ids = append(ids, idOf(seg))
		want = append(want, k)
	}
	total, got, err := decodeRecipe(encodeRecipe(70013, ids))
	var keys []string
	for _, id := range got {
		keys = append(keys, id.key())
	}
	if err != nil || total != 70013 || !slices.Equal(keys, want) {
		t.Errorf("recipe rebuilt %d, %q, %v; want 70013, %q", total, keys, err, want)
	}
}

// TestParseRankKeyExact: parseRankKey refuses every near miss of what
// key writes.
func TestParseRankKeyExact(t *testing.T) {
	for _, k := range []string{
		"gen0005/rank01x", "gen0005/rank1", "gen5/rank01", "gen00005/rank01",
		"gen+005/rank01", "gen0005/rank+1", "gen-005/rank01", "gen0005/rank-1",
		"gen 005/rank01", "xgen0005/rank01", "gen0005/rank01/", "gen0005/rank01\n",
		"gen0005rank01", "gen/rank", "gen0005/rank", "", manifestKey,
		"blob/gen0005/rank01", "gen99999999999999999999/rank01",
	} {
		if seq, rank, ok := parseRankKey(k); ok {
			t.Errorf("parseRankKey(%q) accepted it as generation %d rank %d", k, seq, rank)
		}
	}
}

// TestNearMissKeysLeftByOpenRemovedByScrub: Open's orphan prune deletes
// only keys key writes for generations the manifest does not cover; a
// key that merely resembles one is not the store's to delete there.
// Scrub, which accounts for every backend key, reports it as an orphan
// and deletes it.
func TestNearMissKeysLeftByOpenRemovedByScrub(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Backend: "fs", Dir: dir}
	s := mustOpen(2, opts)
	commitGen(t, s, 2, 0, func(int) []byte { return appState(1000, 0) })
	b, err := NewBackend("fs", BackendConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	nearMisses := []string{"gen0005/rank01x", "gen0000/rank1", "gen00009/rank00"}
	for _, k := range nearMisses {
		if err := b.Put(k, []byte("not the store's")); err != nil {
			t.Fatal(err)
		}
	}

	s2, err := Open(2, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range nearMisses {
		if _, err := s2.Backend().Get(k); err != nil {
			t.Errorf("Open deleted %q: %v", k, err)
		}
	}
	rep, err := s2.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range nearMisses {
		i := slices.IndexFunc(rep.Findings, func(f ScrubFinding) bool { return f.Key == k })
		if i < 0 || rep.Findings[i].Kind != FindingOrphanBlob || !rep.Findings[i].Repaired {
			t.Errorf("scrub did not remove %q as an orphan: %+v", k, rep.Findings)
		}
		if _, err := s2.Backend().Get(k); err == nil {
			t.Errorf("%q survived the scrub", k)
		}
	}
	if len(rep.Findings) != len(nearMisses) {
		t.Errorf("scrub findings %+v, want only the near misses", rep.Findings)
	}
	if _, _, err := s2.MaterializeStream(0); err != nil {
		t.Fatalf("generation 0 after the scrub: %v", err)
	}
}
