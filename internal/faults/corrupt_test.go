package faults

import (
	"bytes"
	"maps"
	"slices"
	"testing"
	"time"

	"manasim/internal/ckptstore"
)

// corruptedKeys lists the distinct blob keys inj has struck, sorted.
func corruptedKeys(inj *Injector) []string {
	return slices.Sorted(maps.Keys(inj.corrupted))
}

func memBackend(t *testing.T) ckptstore.Backend {
	t.Helper()
	mem, err := ckptstore.NewBackend("mem", ckptstore.BackendConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return mem
}

// TestStoreCorruptStrikesOnce: a keyed corruption silently damages the
// blob, rewrites the stored copy so the damage persists, and never
// strikes the same key twice.
func TestStoreCorruptStrikesOnce(t *testing.T) {
	inj := NewInjector(2, Plan{Seed: 1, Events: []Event{
		{Kind: StoreCorrupt, Key: "gen0000/rank00", Mode: CorruptFlip, Step: -1},
	}})
	wrap := inj.WrapBackend()
	if wrap == nil {
		t.Fatal("WrapBackend returned nil with corruption armed")
	}
	b := wrap(memBackend(t))

	orig := bytes.Repeat([]byte{0xab}, 64)
	if err := b.Put("gen0000/rank00", orig); err != nil {
		t.Fatal(err)
	}
	// The put struck (At=0 arms immediately): the stored copy differs.
	got, err := b.Get("gen0000/rank00")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, orig) {
		t.Fatal("corruption did not strike the stored blob")
	}
	// A second read sees the same damaged bytes, not fresh damage.
	again, err := b.Get("gen0000/rank00")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, again) {
		t.Fatal("corruption struck twice")
	}
	if inj.StoreCorruptions() != 1 {
		t.Fatalf("StoreCorruptions = %d, want 1", inj.StoreCorruptions())
	}
	if keys := corruptedKeys(inj); len(keys) != 1 || keys[0] != "gen0000/rank00" {
		t.Fatalf("corrupted keys = %v", keys)
	}
}

// TestStoreCorruptVTArming: a corruption scheduled at service time T
// leaves reads clean until SetBase passes T — bit-rot strikes late, not
// at write time.
func TestStoreCorruptVTArming(t *testing.T) {
	inj := NewInjector(1, Plan{Events: []Event{
		{Kind: StoreCorrupt, Key: "gen0000/rank00", Mode: CorruptTorn, At: 10 * time.Millisecond, Step: -1},
	}})
	b := inj.WrapBackend()(memBackend(t))
	orig := bytes.Repeat([]byte{0x5a}, 128)
	if err := b.Put("gen0000/rank00", orig); err != nil {
		t.Fatal(err)
	}
	got, err := b.Get("gen0000/rank00")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, orig) {
		t.Fatal("corruption struck before its service time")
	}
	inj.SetBase(10 * time.Millisecond)
	got, err = b.Get("gen0000/rank00")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, orig) {
		t.Fatal("armed corruption did not strike")
	}
	if len(got) != len(orig) {
		t.Fatalf("torn write changed the length: %d -> %d", len(orig), len(got))
	}
}

// TestCorruptedBlobsStayOwned: the decorated backend keeps the
// backend contract under strikes. A strike at write time damages a
// copy, never the bytes the caller handed to Put. Get returns bytes the
// caller owns, the damaged ones of a read-time strike included: writing
// into them changes no later Get.
func TestCorruptedBlobsStayOwned(t *testing.T) {
	orig := bytes.Repeat([]byte{0x5a}, 128)
	for _, at := range []time.Duration{0, 10 * time.Millisecond} {
		inj := NewInjector(1, Plan{Events: []Event{
			{Kind: StoreCorrupt, Key: "gen0000/rank00", Mode: CorruptFlip, At: at, Step: -1},
		}})
		b := inj.WrapBackend()(memBackend(t))
		data := bytes.Clone(orig)
		if err := b.Put("gen0000/rank00", data); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, orig) {
			t.Fatalf("strike at %v: Put damaged the caller's bytes", at)
		}
		inj.SetBase(at)
		var first []byte
		for i := 0; i < 3; i++ {
			got, err := b.Get("gen0000/rank00")
			if err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = bytes.Clone(got)
			}
			if bytes.Equal(got, orig) || !bytes.Equal(got, first) {
				t.Fatalf("strike at %v: Get %d does not return the damaged blob", at, i)
			}
			clear(got)
		}
	}
}

// TestStoreCorruptModes: each damage mode changes the bytes in its
// documented shape; the manifest key is exempt.
func TestStoreCorruptModes(t *testing.T) {
	orig := bytes.Repeat([]byte{0xc3}, 256)
	for _, mode := range []CorruptMode{CorruptFlip, CorruptTruncate, CorruptTorn} {
		inj := NewInjector(1, Plan{Events: []Event{
			{Kind: StoreCorrupt, Key: "k", Mode: mode, Step: -1},
			{Kind: StoreCorrupt, Key: "manifest", Mode: mode, Step: -1},
		}})
		b := inj.WrapBackend()(memBackend(t))
		if err := b.Put("k", orig); err != nil {
			t.Fatal(err)
		}
		got, err := b.Get("k")
		if err != nil {
			t.Fatal(err)
		}
		switch mode {
		case CorruptFlip:
			if len(got) != len(orig) || bytes.Equal(got, orig) {
				t.Fatalf("flip: len %d eq=%v", len(got), bytes.Equal(got, orig))
			}
			diff := 0
			for i := range got {
				if got[i] != orig[i] {
					diff++
				}
			}
			if diff != 1 {
				t.Fatalf("flip damaged %d bytes, want 1", diff)
			}
		case CorruptTruncate:
			if len(got) >= len(orig) {
				t.Fatalf("truncate kept %d of %d bytes", len(got), len(orig))
			}
		case CorruptTorn:
			if len(got) != len(orig) || bytes.Equal(got, orig) {
				t.Fatalf("torn: len %d eq=%v", len(got), bytes.Equal(got, orig))
			}
		}
		if err := b.Put("manifest", orig); err != nil {
			t.Fatal(err)
		}
		if m, _ := b.Get("manifest"); !bytes.Equal(m, orig) {
			t.Fatalf("mode %v corrupted the manifest", mode)
		}
	}
}

// TestCorruptRateDeterministic: the rate strike set is a pure function
// of (key, seed) — two injectors with the same seed strike the same
// keys no matter the operation order, and a different seed strikes a
// different set.
func TestCorruptRateDeterministic(t *testing.T) {
	keys := []string{
		"gen0000/rank00", "gen0000/rank01", "gen0001/rank00", "gen0001/rank01",
		"blob/0a1b2c3d-4096-0011223344556677", "blob/ffeeddcc-128-aabbccddeeff0011",
		"gen0002/rank00", "gen0002/rank01", "gen0003/rank00", "gen0003/rank01",
	}
	run := func(seed int64, reverse bool) []string {
		inj := NewInjector(2, Plan{Seed: seed, CorruptRate: 0.5})
		b := inj.WrapBackend()(memBackend(t))
		ks := append([]string(nil), keys...)
		if reverse {
			for i, j := 0, len(ks)-1; i < j; i, j = i+1, j-1 {
				ks[i], ks[j] = ks[j], ks[i]
			}
		}
		for _, k := range ks {
			if err := b.Put(k, bytes.Repeat([]byte{1}, 64)); err != nil {
				t.Fatal(err)
			}
		}
		return corruptedKeys(inj)
	}
	a, b := run(42, false), run(42, true)
	if len(a) == 0 || len(a) == len(keys) {
		t.Fatalf("rate 0.5 struck %d of %d keys", len(a), len(keys))
	}
	if len(a) != len(b) {
		t.Fatalf("operation order changed the strike set: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("operation order changed the strike set: %v vs %v", a, b)
		}
	}
	if c := run(43, false); len(c) == len(a) && func() bool {
		for i := range c {
			if c[i] != a[i] {
				return false
			}
		}
		return true
	}() {
		t.Fatal("different seeds struck identical key sets")
	}
}
