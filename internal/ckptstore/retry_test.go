package ckptstore

import (
	"fmt"
	"strings"
	"testing"
)

// transientError advertises itself as retryable, like the fault
// injector's StoreError.
type transientError struct{ key string }

func (e *transientError) Error() string   { return fmt.Sprintf("transient failure on %q", e.key) }
func (e *transientError) Transient() bool { return true }

// transientBackend fails operations a configured number of times with a
// Transient() error, then recovers. Delete failures are plain errors
// (the rollback path does not distinguish).
type transientBackend struct {
	Backend
	putFails    map[string]int
	deleteFails map[string]int
}

func (b *transientBackend) Put(key string, data []byte) error {
	if n := b.putFails[key]; n > 0 {
		b.putFails[key] = n - 1
		return &transientError{key: key}
	}
	return b.Backend.Put(key, data)
}

func (b *transientBackend) Delete(key string) error {
	if n := b.deleteFails[key]; n > 0 {
		b.deleteFails[key] = n - 1
		return fmt.Errorf("injected delete failure for %q", key)
	}
	return b.Backend.Delete(key)
}

// TestTransientPutRetried: a Put that fails transiently under the retry
// budget is retried away — the commit succeeds, the retries and their
// modeled backoff are accounted, and nothing counts as permanent.
func TestTransientPutRetried(t *testing.T) {
	const n = 2
	tb := &transientBackend{
		Backend:  newMemBackend(),
		putFails: map[string]int{key(0, 1): 2},
	}
	s := &Store{b: tb, n: n, opts: Options{}.withDefaults(), index: make([]rankIndex, n)}
	commitGen(t, s, n, 0, func(int) []byte { return appState(500, 0) })

	rs := s.Retry()
	if rs.Retries != 2 {
		t.Fatalf("retries = %d, want 2", rs.Retries)
	}
	if rs.BackoffVT <= 0 {
		t.Fatal("no backoff time accounted for retried operations")
	}
	if rs.Permanent != 0 {
		t.Fatalf("permanent failures = %d, want 0", rs.Permanent)
	}
	if _, ok := s.Head(); !ok {
		t.Fatal("retried commit left no head generation")
	}
}

// TestTransientPutExhaustsBudget: a key that keeps failing past the
// retry budget fails the commit permanently, and the rollback leaves no
// partial generation behind.
func TestTransientPutExhaustsBudget(t *testing.T) {
	const n = 2
	tb := &transientBackend{
		Backend:  newMemBackend(),
		putFails: map[string]int{key(0, 1): retryAttempts},
	}
	s := &Store{b: tb, n: n, opts: Options{}.withDefaults(), index: make([]rankIndex, n)}
	images := encodeGen(t, s, n, 0, func(int) []byte { return appState(500, 0) })
	if _, err := s.Commit(images); err == nil {
		t.Fatal("commit succeeded past the retry budget")
	}
	rs := s.Retry()
	if rs.Retries != retryAttempts-1 {
		t.Fatalf("retries = %d, want %d", rs.Retries, retryAttempts-1)
	}
	if rs.Permanent != 1 {
		t.Fatalf("permanent failures = %d, want 1", rs.Permanent)
	}
	if gens := s.Generations(); len(gens) != 0 {
		t.Fatalf("failed commit recorded a generation: %v", gens)
	}
	if keys, _ := tb.List(); len(keys) != 0 {
		t.Fatalf("rollback leaked blobs: %v", keys)
	}
}

// TestDiscardRetryPassRecovers: a rollback delete that fails once is
// recovered by discardGeneration's bounded retry pass — no residual
// orphans, no leaked blobs.
func TestDiscardRetryPassRecovers(t *testing.T) {
	const n = 2
	tb := &transientBackend{
		Backend:     newMemBackend(),
		putFails:    map[string]int{key(0, 1): retryAttempts},
		deleteFails: map[string]int{key(0, 0): 1},
	}
	s := &Store{b: tb, n: n, opts: Options{}.withDefaults(), index: make([]rankIndex, n)}
	images := encodeGen(t, s, n, 0, func(int) []byte { return appState(500, 0) })
	if _, err := s.Commit(images); err == nil {
		t.Fatal("commit succeeded past the retry budget")
	}
	if got := s.ResidualOrphans(); got != 0 {
		t.Fatalf("residual orphans = %d after a recovered retry pass, want 0", got)
	}
	if keys, _ := tb.List(); len(keys) != 0 {
		t.Fatalf("recovered rollback left blobs: %v", keys)
	}
}

// TestDiscardResidualOrphansCounted: a rollback delete that outlives the
// retry pass is counted as a residual orphan and reported in the error,
// and the count reaches the per-rank chain statistics.
func TestDiscardResidualOrphansCounted(t *testing.T) {
	const n = 2
	tb := &transientBackend{
		Backend:     newMemBackend(),
		putFails:    map[string]int{key(0, 1): retryAttempts},
		deleteFails: map[string]int{key(0, 0): 2}, // first pass + retry pass
	}
	s := &Store{b: tb, n: n, opts: Options{}.withDefaults(), index: make([]rankIndex, n)}
	images := encodeGen(t, s, n, 0, func(int) []byte { return appState(500, 0) })
	_, err := s.Commit(images)
	if err == nil {
		t.Fatal("commit succeeded past the retry budget")
	}
	if !strings.Contains(err.Error(), "discarding generation") {
		t.Fatalf("leaked rollback not reported: %v", err)
	}
	if got := s.ResidualOrphans(); got != 1 {
		t.Fatalf("residual orphans = %d, want 1", got)
	}

	// The leak is storage-only: a later commit on the same store works
	// and surfaces the count in its chain stats.
	commitGen(t, s, n, 1, func(int) []byte { return appState(500, 1) })
	_, stats, err := s.MaterializeStreamHead()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) == 0 || stats[0].ResidualOrphans != 1 {
		t.Fatalf("chain stats %+v missing residual orphan count", stats)
	}
}
