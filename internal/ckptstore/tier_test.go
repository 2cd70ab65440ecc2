package ckptstore

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// newTestTier builds a tier backend over a mem front and an fs back in
// a temp directory, returning both the composed backend and direct
// access to its back tier.
func newTestTier(t *testing.T) (Backend, Backend) {
	t.Helper()
	dir := t.TempDir()
	tier, err := NewBackend("tier", BackendConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	back, err := NewBackend("fs", BackendConfig{Dir: dir + "/back"})
	if err != nil {
		t.Fatal(err)
	}
	return tier, back
}

// TestTierWriteThroughDrainsToBack: Put acknowledges from the front
// tier; after the drain barrier the back tier holds the same bytes.
func TestTierWriteThroughDrainsToBack(t *testing.T) {
	tier, back := newTestTier(t)
	for i := 0; i < 8; i++ {
		if err := tier.Put(fmt.Sprintf("gen0000/rank%02d", i), []byte{byte(i), 1, 2}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tier.(Drainer).DrainBarrier(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		got, err := back.Get(fmt.Sprintf("gen0000/rank%02d", i))
		if err != nil || !bytes.Equal(got, []byte{byte(i), 1, 2}) {
			t.Fatalf("back tier blob %d: %v, %v", i, got, err)
		}
	}
}

// TestTierReadThroughPromotes: a key present only on the back tier (a
// resume with a cold burst buffer) is served and promoted, so the next
// read no longer needs the back tier.
func TestTierReadThroughPromotes(t *testing.T) {
	tier, back := newTestTier(t)
	if err := back.Put("manifest", []byte("durable")); err != nil {
		t.Fatal(err)
	}
	got, err := tier.Get("manifest")
	if err != nil || !bytes.Equal(got, []byte("durable")) {
		t.Fatalf("read-through: %q, %v", got, err)
	}
	// Remove the back copy: a promoted key must now be served from the
	// front tier alone.
	if err := back.Delete("manifest"); err != nil {
		t.Fatal(err)
	}
	if got, err := tier.Get("manifest"); err != nil || !bytes.Equal(got, []byte("durable")) {
		t.Fatalf("promotion missed the front tier: %q, %v", got, err)
	}
}

// TestTierListUnions: keys already flushed to the back tier and keys
// only on the back tier both appear exactly once.
func TestTierListUnions(t *testing.T) {
	tier, back := newTestTier(t)
	if err := back.Put("gen0000/rank00", []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := tier.Put("gen0001/rank00", []byte("new")); err != nil {
		t.Fatal(err)
	}
	if err := tier.(Drainer).DrainBarrier(); err != nil {
		t.Fatal(err)
	}
	keys, err := tier.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 || keys[0] != "gen0000/rank00" || keys[1] != "gen0001/rank00" {
		t.Fatalf("union list %v", keys)
	}
}

// TestTierDeleteNeverResurrects: deleting a freshly Put key must leave
// neither tier holding it once the queue is flushed.
func TestTierDeleteNeverResurrects(t *testing.T) {
	tier, back := newTestTier(t)
	for i := 0; i < 32; i++ {
		k := fmt.Sprintf("gen%04d/rank00", i)
		if err := tier.Put(k, []byte("doomed")); err != nil {
			t.Fatal(err)
		}
		if err := tier.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	if err := tier.(Drainer).DrainBarrier(); err != nil {
		t.Fatal(err)
	}
	keys, err := tier.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 0 {
		t.Fatalf("deleted keys resurrected: %v", keys)
	}
	if keys, _ := back.List(); len(keys) != 0 {
		t.Fatalf("back tier resurrected deleted keys: %v", keys)
	}
}

// TestTierDrainLagModeled: the modeled back-tier durability clock trails
// the front-tier acknowledgements — the drain-lag column of the
// backends experiment.
func TestTierDrainLagModeled(t *testing.T) {
	tier, _ := newTestTier(t)
	for i := 0; i < 4; i++ {
		if err := tier.Put(fmt.Sprintf("gen0000/rank%02d", i), make([]byte, 1<<20)); err != nil {
			t.Fatal(err)
		}
	}
	lag := tier.(*tierBackend).DrainLag()
	if lag <= 0 {
		t.Fatalf("drain lag %v, want positive (back tier slower than front)", lag)
	}
	if cm := tier.CostModel(); cm.Name != "burstbuffer" {
		t.Fatalf("tier cost model %q, want the burst-buffer front profile", cm.Name)
	}
}

// orderBackend wraps a backend, recording the order Puts land in.
type orderBackend struct {
	Backend
	order []string
}

func (b *orderBackend) Put(key string, data []byte) error {
	if err := b.Backend.Put(key, data); err != nil {
		return err
	}
	b.order = append(b.order, key)
	return nil
}

// TestTierManifestFlushesAfterBlobs pins the drainer's ordering
// invariant: nothing reaches the back tier before DrainBarrier, and
// then the blobs land in Put order with the manifest referencing them
// last — a crash mid-drain must never leave a back tier whose manifest
// lists a generation missing its blobs.
func TestTierManifestFlushesAfterBlobs(t *testing.T) {
	rec := &orderBackend{Backend: newMemBackend()}
	tb := &tierBackend{front: newMemBackend(), back: rec, queued: make(map[string]bool)}
	for r := 0; r < 2; r++ {
		if err := tb.Put(key(0, r), []byte{byte(r)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.Put(manifestKey, []byte("m")); err != nil {
		t.Fatal(err)
	}
	if len(rec.order) != 0 {
		t.Fatalf("flushed %v before the barrier", rec.order)
	}
	if err := tb.DrainBarrier(); err != nil {
		t.Fatal(err)
	}
	if want := []string{key(0, 0), key(0, 1), manifestKey}; strings.Join(rec.order, " ") != strings.Join(want, " ") {
		t.Fatalf("back-tier order %v, want %v", rec.order, want)
	}
}

// TestTierFlushFailureFailsCommit injects a back-tier write failure:
// the commit's drain barrier must surface it, the chain must not
// advance, and the store must stay usable.
func TestTierFlushFailureFailsCommit(t *testing.T) {
	inner := newMemBackend()
	tb := &tierBackend{
		front:  newMemBackend(),
		back:   &flakyBackend{Backend: inner, failPut: key(0, 1)},
		queued: make(map[string]bool),
	}
	s := &Store{b: tb, n: 2, opts: Options{}.withDefaults(), index: make([]rankIndex, 2)}

	images := encodeGen(t, s, 2, 0, func(r int) []byte { return appState(500, 0) })
	if _, err := s.Commit(images); err == nil {
		t.Fatal("commit over a failing back tier succeeded")
	} else if !strings.Contains(err.Error(), "injected put failure") {
		t.Fatalf("flush failure not surfaced: %v", err)
	}
	if gens := s.Generations(); len(gens) != 0 {
		t.Fatalf("failed commit recorded a generation: %v", gens)
	}
	// Once the back tier heals, the same generation commits.
	tb.back.(*flakyBackend).failPut = ""
	if _, err := s.Commit(images); err != nil {
		t.Fatalf("recovery commit: %v", err)
	}
}

// TestObjBackendRoundTrips pins the object-store model: the backend
// reports the objstore cost profile that checkpoint I/O is charged
// against, and its blobs round-trip through Put, Get, List and Delete.
func TestObjBackendRoundTrips(t *testing.T) {
	b, err := NewBackend("obj", BackendConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() != "obj" {
		t.Fatalf("name %q, want obj", b.Name())
	}
	if cm := b.CostModel(); cm.Name != "objstore" {
		t.Fatalf("cost model %q, want objstore", cm.Name)
	}
	blob := bytes.Repeat([]byte{1, 2, 3}, 1<<10)
	if err := b.Put("gen0000/rank00", bytes.Clone(blob)); err != nil {
		t.Fatal(err)
	}
	if got, err := b.Get("gen0000/rank00"); err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("get: %v", err)
	}
	if keys, err := b.List(); err != nil || len(keys) != 1 || keys[0] != "gen0000/rank00" {
		t.Fatalf("list: %q, %v", keys, err)
	}
	if err := b.Delete("gen0000/rank00"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Get("gen0000/rank00"); err == nil {
		t.Fatal("deleted object still readable")
	}
}

// TestTierFrontCapEvictsLRU pins the bounded burst buffer: past the
// cap, the coldest flushed blob is evicted from the front tier, recent
// blobs stay, and the victim is still served read-through from the back
// tier (counted as a miss plus a promotion).
func TestTierFrontCapEvictsLRU(t *testing.T) {
	tier, err := NewBackend("tier", BackendConfig{Dir: t.TempDir(), FrontCap: 2048})
	if err != nil {
		t.Fatal(err)
	}
	tb := tier.(*tierBackend)
	blob := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 1024) }
	for i := 0; i < 2; i++ {
		if err := tier.Put(key(0, i), blob(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tier.(Drainer).DrainBarrier(); err != nil {
		t.Fatal(err)
	}
	if tb.ops.Evictions != 0 || tb.frontBytes != 2048 {
		t.Fatalf("cap not exceeded yet, ops %+v, %d front bytes", tb.ops, tb.frontBytes)
	}
	// Touch rank 0 so rank 1 becomes the LRU victim.
	if _, err := tier.Get(key(0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := tier.Put(key(0, 2), blob(2)); err != nil {
		t.Fatal(err)
	}
	if err := tier.(Drainer).DrainBarrier(); err != nil {
		t.Fatal(err)
	}
	ops := tb.ops
	if ops.Evictions != 1 || tb.frontBytes > tb.frontCap {
		t.Fatalf("eviction did not enforce the cap: %+v, %d front bytes", ops, tb.frontBytes)
	}
	if _, err := tb.front.Get(key(0, 1)); err == nil {
		t.Fatal("LRU victim still on the front tier")
	}
	if _, err := tb.front.Get(key(0, 0)); err != nil {
		t.Fatal("recently-used blob evicted instead of the LRU one")
	}
	// The victim is still served read-through and re-promoted, which in
	// turn evicts the now-coldest blob to stay under the cap.
	before := ops
	got, err := tier.Get(key(0, 1))
	if err != nil || !bytes.Equal(got, blob(1)) {
		t.Fatalf("evicted blob unreadable: %v", err)
	}
	ops = tb.ops
	if ops.FrontMisses != before.FrontMisses+1 || ops.Promotions != before.Promotions+1 {
		t.Fatalf("miss/promotion not counted: %+v -> %+v", before, ops)
	}
	if ops.Evictions != 2 || tb.frontBytes > tb.frontCap {
		t.Fatalf("re-promotion past the cap did not evict: %+v, %d front bytes", ops, tb.frontBytes)
	}
}

// TestTierFrontCapPinsUnflushed: blobs whose only copy is the front
// tier (their back-tier flush still pending) are never evicted, even
// far past the cap — the bound overshoots until DrainBarrier flushes
// them, then the next insert evicts down to it.
func TestTierFrontCapPinsUnflushed(t *testing.T) {
	tb := &tierBackend{
		front:    newMemBackend(),
		back:     newMemBackend(),
		frontCap: 1024,
		queued:   make(map[string]bool),
		sizes:    make(map[string]int64),
	}
	for i := 0; i < 4; i++ {
		if err := tb.Put(key(0, i), bytes.Repeat([]byte{byte(i)}, 1024)); err != nil {
			t.Fatal(err)
		}
	}
	if tb.ops.Evictions != 0 || tb.frontBytes != 4096 {
		t.Fatalf("unflushed blobs evicted: %+v, %d front bytes", tb.ops, tb.frontBytes)
	}
	if err := tb.DrainBarrier(); err != nil {
		t.Fatal(err)
	}
	if err := tb.Put(key(1, 0), bytes.Repeat([]byte{9}, 512)); err != nil {
		t.Fatal(err)
	}
	if tb.ops.Evictions != 4 || tb.frontBytes != 512 {
		t.Fatalf("flushed blobs not evicted down to the cap: %+v, %d front bytes", tb.ops, tb.frontBytes)
	}
	if err := tb.DrainBarrier(); err != nil {
		t.Fatal(err)
	}
}

// TestTierFrontCapKeepsManifest: the manifest is never evicted — every
// resume starts by reading it, so it must stay at front-tier speed.
func TestTierFrontCapKeepsManifest(t *testing.T) {
	tier, err := NewBackend("tier", BackendConfig{Dir: t.TempDir(), FrontCap: 600})
	if err != nil {
		t.Fatal(err)
	}
	tb := tier.(*tierBackend)
	if err := tier.Put(manifestKey, make([]byte, 512)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := tier.Put(key(0, i), make([]byte, 512)); err != nil {
			t.Fatal(err)
		}
		if err := tier.(Drainer).DrainBarrier(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tb.front.Get(manifestKey); err != nil {
		t.Fatal("manifest evicted from the front tier")
	}
	if tb.ops.Evictions == 0 {
		t.Fatalf("no data blob evicted past the cap: %+v", tb.ops)
	}
}

// TestStoreFrontCapRestart runs a whole store over a capped tier
// backend: evictions must happen, and materialization must still
// resolve the committed state like an unbounded store's — the cap is a performance
// bound, never a correctness one.
func TestStoreFrontCapRestart(t *testing.T) {
	opts := Options{Delta: true, ChunkBytes: 512, ChainCap: 8}
	plain := mustOpen(2, opts)
	opts.Backend, opts.Dir, opts.FrontCap = "tier", t.TempDir(), 4<<10
	capped, err := Open(2, opts)
	if err != nil {
		t.Fatal(err)
	}
	for gen := 0; gen < 4; gen++ {
		app := func(r int) []byte { return appState(4096+r*64, gen) }
		commitGen(t, plain, 2, gen, app)
		commitGen(t, capped, 2, gen, app)
	}
	want, _, err := plain.MaterializeStreamHead()
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := capped.MaterializeStreamHead()
	if err != nil {
		t.Fatal(err)
	}
	for r := range want {
		if committed := appState(4096+r*64, 3); !bytes.Equal(want[r].AppState, committed) || !bytes.Equal(got[r].AppState, committed) {
			t.Fatalf("rank %d: capped-tier store materialized a different state", r)
		}
	}
	ops := capped.Backend().(*tierBackend).ops
	if ops.Evictions == 0 {
		t.Fatalf("4 generations of ~4KB images never overflowed a 4KB front tier: %+v", ops)
	}
	if ops.FrontMisses == 0 || ops.Promotions == 0 {
		t.Fatalf("materializing evicted generations hit no read-through: %+v", ops)
	}
}
