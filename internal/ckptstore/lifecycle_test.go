package ckptstore

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"manasim/internal/ckptimg"
)

// TestRetentionBoundsBlobs drives 50 generations through a store with
// RetainBases set and asserts the backend's blob count stays bounded —
// the superseded-chain leak fixed in this PR. Without retention the fs
// backend grew one blob per rank per generation forever.
func TestRetentionBoundsBlobs(t *testing.T) {
	const n, gens, retain = 2, 50, 2
	s := mustOpen(n, Options{
		Delta: true, ChunkBytes: 128, ChainCap: 3, RetainBases: retain,
	})
	for gen := 0; gen < gens; gen++ {
		commitGen(t, s, n, gen, func(r int) []byte { return appState(1000, gen) })
	}
	if got := len(s.Generations()); got != gens {
		t.Fatalf("metadata lists %d generations, want %d", got, gens)
	}
	keys, err := s.Backend().List()
	if err != nil {
		t.Fatal(err)
	}
	// With ChainCap=3 a chain spans at most 4 generations; retaining 2
	// bases keeps at most 2 chains of blobs plus the manifest.
	maxBlobs := retain*(3+1)*n + 1
	if len(keys) > maxBlobs {
		t.Fatalf("backend holds %d blobs after %d generations (bound %d): retention leaked", len(keys), gens, maxBlobs)
	}
	if s.prunedTo == 0 {
		t.Fatal("retention never advanced the prune cutoff")
	}

	// The live chain still materializes; pruned generations fail typed.
	if _, _, err := s.MaterializeStreamHead(); err != nil {
		t.Fatalf("head after retention: %v", err)
	}
	if _, _, err := s.MaterializeStream(0); !errors.Is(err, ErrPruned) {
		t.Fatalf("streaming a pruned generation: %v, want ErrPruned", err)
	}
}

// prune runs one retention pass keeping keepBases bases, as Commit does
// under Options.RetainBases.
func prune(s *Store, keepBases int) error {
	return s.pruneRetention(keepBases)
}

// TestExplicitPrune runs retention passes outside Commit: the cutoff,
// widening retention later, and the cutoff's persistence across a
// manifest resume.
func TestExplicitPrune(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Backend: "fs", Dir: dir, Delta: true, ChunkBytes: 128, ChainCap: ChainCapNone}
	s := mustOpen(1, opts)
	for gen := 0; gen < 5; gen++ {
		commitGen(t, s, 1, gen, func(int) []byte { return appState(600, gen) })
	}
	if err := prune(s, 2); err != nil {
		t.Fatal(err)
	}
	if got := s.prunedTo; got != 3 {
		t.Fatalf("prune cutoff %d, want 3 (keep the last 2 of 5 bases)", got)
	}
	// Pruning to a wider retention later is a no-op, not a resurrection.
	if err := prune(s, 4); err != nil {
		t.Fatal(err)
	}
	if got := s.prunedTo; got != 3 {
		t.Fatalf("widening retention moved the cutoff to %d", got)
	}
	// The cutoff survives a resume.
	s2, err := Open(1, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.prunedTo; got != 3 {
		t.Fatalf("resumed cutoff %d, want 3", got)
	}
	if _, _, err := s2.MaterializeStream(1); !errors.Is(err, ErrPruned) {
		t.Fatalf("resumed store materialized a pruned generation: %v", err)
	}
	// Every read path refuses a pruned generation up front, before any
	// blob is read: no resolution ever meets a pruned blob.
	if err := s2.checkReadable(1); !errors.Is(err, ErrPruned) {
		t.Fatalf("entry check on a pruned generation: %v, want ErrPruned", err)
	}
	if _, err := s2.RestoreStream(1, func(*ckptimg.Image) error {
		t.Fatal("RestoreStream resolved a rank of a pruned generation")
		return nil
	}); !errors.Is(err, ErrPruned) {
		t.Fatalf("restoring a pruned generation: %v, want ErrPruned", err)
	}
}

// TestChainCapNoneForcesBases pins the honored sentinel: delta mode
// stays on (indexes are maintained) yet every generation is a base —
// the configuration ChainCap=0 silently could not express before.
func TestChainCapNoneForcesBases(t *testing.T) {
	s := mustOpen(1, Options{Delta: true, ChunkBytes: 128, ChainCap: ChainCapNone})
	for gen := 0; gen < 3; gen++ {
		commitGen(t, s, 1, gen, func(int) []byte { return appState(1000, gen) })
	}
	for _, g := range s.Generations() {
		if !g.Base() {
			t.Fatalf("generation %d went incremental under ChainCapNone", g.Seq)
		}
	}
	if _, _, ok := s.PlanDelta(0); ok {
		t.Fatal("PlanDelta approved a delta under ChainCapNone")
	}
	// A literal zero still selects the default cap.
	if got := mustOpen(1, Options{}).Opts().ChainCap; got != DefaultChainCap {
		t.Fatalf("zero ChainCap resolved to %d, want DefaultChainCap %d", got, DefaultChainCap)
	}
}

// flakyBackend injects failures per operation and key.
type flakyBackend struct {
	Backend
	failPut    string
	failDelete map[string]bool
}

func (b *flakyBackend) Put(key string, data []byte) error {
	if key == b.failPut {
		return fmt.Errorf("injected put failure for %q", key)
	}
	return b.Backend.Put(key, data)
}

func (b *flakyBackend) Delete(key string) error {
	if b.failDelete[key] {
		return fmt.Errorf("injected delete failure for %q", key)
	}
	return b.Backend.Delete(key)
}

// TestRollbackDeleteFailureReported pins the discardGeneration fix: a
// commit whose rollback cannot delete a sibling blob must report the
// leak alongside the original failure instead of swallowing it.
func TestRollbackDeleteFailureReported(t *testing.T) {
	const n = 4
	s := &Store{
		b: &flakyBackend{
			Backend:    newMemBackend(),
			failPut:    key(0, 3),
			failDelete: map[string]bool{key(0, 1): true},
		},
		n:     n,
		opts:  Options{}.withDefaults(),
		index: make([]rankIndex, n),
	}
	images := encodeGen(t, s, n, 0, func(r int) []byte { return appState(500, 0) })
	_, err := s.Commit(images)
	if err == nil {
		t.Fatal("commit over a failing backend succeeded")
	}
	if !strings.Contains(err.Error(), "injected put failure") {
		t.Fatalf("original failure missing from %v", err)
	}
	if !strings.Contains(err.Error(), "injected delete failure") {
		t.Fatalf("rollback delete failure swallowed: %v", err)
	}
	if gens := s.Generations(); len(gens) != 0 {
		t.Fatalf("failed commit recorded a generation: %v", gens)
	}
}

// TestPruneDeleteFailureSurfaces: a retention pass that cannot delete
// reports the error and does not advance the cutoff, so the next pass
// retries.
func TestPruneDeleteFailureSurfaces(t *testing.T) {
	inner := newMemBackend()
	fb := &flakyBackend{Backend: inner, failDelete: map[string]bool{key(0, 0): true}}
	s := &Store{
		b: fb, n: 1,
		opts:  Options{Delta: true, ChunkBytes: 128, ChainCap: ChainCapNone}.withDefaults(),
		index: make([]rankIndex, 1),
	}
	for gen := 0; gen < 3; gen++ {
		commitGen(t, s, 1, gen, func(int) []byte { return appState(500, gen) })
	}
	if err := prune(s, 1); err == nil || !strings.Contains(err.Error(), "injected delete failure") {
		t.Fatalf("prune over a failing delete: %v", err)
	}
	if got := s.prunedTo; got != 0 {
		t.Fatalf("cutoff advanced past a failed delete to %d", got)
	}
	// Once the failure clears, the retry prunes the same range.
	fb.failDelete = nil
	if err := prune(s, 1); err != nil {
		t.Fatal(err)
	}
	if got := s.prunedTo; got != 2 {
		t.Fatalf("retried cutoff %d, want 2", got)
	}
}

// TestRetentionFailureDoesNotFailCommit pins the Commit contract: the
// generation is durable before retention runs, so a prune failure must
// not be reported as a failed commit (the coordinator would desync from
// the store); it surfaces through LastRetentionErr and the next pass
// retries.
func TestRetentionFailureDoesNotFailCommit(t *testing.T) {
	fb := &flakyBackend{Backend: newMemBackend(), failDelete: map[string]bool{key(0, 0): true}}
	s := &Store{
		b: fb, n: 1,
		opts:  Options{Delta: true, ChunkBytes: 128, ChainCap: ChainCapNone, RetainBases: 1}.withDefaults(),
		index: make([]rankIndex, 1),
	}
	for gen := 0; gen < 3; gen++ {
		commitGen(t, s, 1, gen, func(int) []byte { return appState(500, gen) })
	}
	if err := s.LastRetentionErr(); err == nil || !strings.Contains(err.Error(), "injected delete failure") {
		t.Fatalf("retention failure not surfaced: %v", err)
	}
	if got := len(s.Generations()); got != 3 {
		t.Fatalf("%d generations, want 3: retention failure corrupted the chain", got)
	}
	// Once the backend heals, the next commit's pass prunes and clears.
	fb.failDelete = nil
	commitGen(t, s, 1, 3, func(int) []byte { return appState(500, 3) })
	if err := s.LastRetentionErr(); err != nil {
		t.Fatalf("healed retention still failing: %v", err)
	}
	if s.prunedTo == 0 {
		t.Fatal("healed retention never advanced the cutoff")
	}
}

// TestCrashResumeIgnoresOrphanBlobs covers the fs crash-resume path: a
// process that died mid-commit leaves rank blobs with no manifest entry
// behind; a resume must neither surface the half generation nor keep
// its dark bytes.
func TestCrashResumeIgnoresOrphanBlobs(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Backend: "fs", Dir: dir, Delta: true, ChunkBytes: 128, ChainCap: 8}
	s := mustOpen(1, opts)
	commitGen(t, s, 1, 0, func(int) []byte { return appState(800, 0) })
	commitGen(t, s, 1, 1, func(int) []byte { return appState(800, 1) })

	// Simulate the crash: generation 2's blob lands, the manifest never
	// does.
	raw, err := NewBackend("fs", BackendConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := raw.Put(key(2, 0), []byte("half-committed image")); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(1, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s2.Generations()); got != 2 {
		t.Fatalf("resume sees %d generations, want 2", got)
	}
	keys, err := raw.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if strings.HasPrefix(k, "gen0002/") {
			t.Fatalf("orphan blob %q survived the resume", k)
		}
	}
	// The resumed chain commits generation 2 cleanly in the orphan's
	// place and materializes it.
	commitGen(t, s2, 1, 2, func(int) []byte { return appState(800, 2) })
	if _, _, err := s2.MaterializeStreamHead(); err != nil {
		t.Fatal(err)
	}
}

// TestCrashResumeNoManifestPrunesEverything: blobs without any manifest
// at all (a crash before the first commit finished) are all orphans.
func TestCrashResumeNoManifestPrunesEverything(t *testing.T) {
	dir := t.TempDir()
	raw, err := NewBackend("fs", BackendConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := raw.Put(key(0, 0), []byte("torn first generation")); err != nil {
		t.Fatal(err)
	}
	s, err := Open(1, Options{Backend: "fs", Dir: dir, ChunkBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s.Generations()); got != 0 {
		t.Fatalf("manifest-less resume sees %d generations", got)
	}
	keys, err := raw.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 0 {
		t.Fatalf("manifest-less resume kept orphans: %v", keys)
	}
}

// TestCrashResumeUnderTier runs the crash-resume property through the
// tier backend: the orphan lives on the durable back tier (the front
// tier died with the process), and the resume prunes it from both.
func TestCrashResumeUnderTier(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Backend: "tier", Dir: dir, Delta: true, ChunkBytes: 128, ChainCap: 8}
	s := mustOpen(1, opts)
	commitGen(t, s, 1, 0, func(int) []byte { return appState(800, 0) })

	// The crashed process flushed generation 1's blob but not its
	// manifest update; only the back tier survives the crash.
	back, err := NewBackend("fs", BackendConfig{Dir: dir + "/back"})
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Put(key(1, 0), []byte("half-committed image")); err != nil {
		t.Fatal(err)
	}

	// A fresh tier store (cold front tier) resumes from the back tier.
	s2, err := Open(1, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s2.Generations()); got != 1 {
		t.Fatalf("tier resume sees %d generations, want 1", got)
	}
	keys, err := back.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if strings.HasPrefix(k, "gen0001/") {
			t.Fatalf("orphan blob %q survived the tier resume", k)
		}
	}
	// The resumed chain continues: generation 1 deltas against 0.
	g := commitGen(t, s2, 1, 1, func(int) []byte { return appState(800, 1) })
	if g.Base() || g.Seq != 1 {
		t.Fatalf("resumed generation %+v", g)
	}
	if _, _, err := s2.MaterializeStreamHead(); err != nil {
		t.Fatal(err)
	}
}
