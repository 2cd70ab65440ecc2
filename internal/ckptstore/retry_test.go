package ckptstore

import (
	"bytes"
	"errors"
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
// modeled backoff are accounted, and the retried Put lands.
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
	if _, err := tb.Backend.Get(key(0, 1)); err != nil {
		t.Fatalf("retried Put never landed: %v", err)
	}
	if _, ok := s.Head(); !ok {
		t.Fatal("retried commit left no head generation")
	}
}

// TestTransientPutExhaustsBudget: a key that keeps failing past the
// retry budget fails the commit permanently with that Put's error, and
// the rollback leaves no partial generation behind.
func TestTransientPutExhaustsBudget(t *testing.T) {
	const n = 2
	tb := &transientBackend{
		Backend:  newMemBackend(),
		putFails: map[string]int{key(0, 1): retryAttempts},
	}
	s := &Store{b: tb, n: n, opts: Options{}.withDefaults(), index: make([]rankIndex, n)}
	images := encodeGen(t, s, n, 0, func(int) []byte { return appState(500, 0) })
	_, err := s.Commit(images)
	if err == nil {
		t.Fatal("commit succeeded past the retry budget")
	}
	rs := s.Retry()
	if rs.Retries != retryAttempts-1 {
		t.Fatalf("retries = %d, want %d", rs.Retries, retryAttempts-1)
	}
	if te := (*transientError)(nil); !errors.As(err, &te) || te.key != key(0, 1) {
		t.Fatalf("commit error %v does not carry the exhausted Put of %q", err, key(0, 1))
	}
	if gens := s.Generations(); len(gens) != 0 {
		t.Fatalf("failed commit recorded a generation: %v", gens)
	}
	if keys, _ := tb.List(); len(keys) != 0 {
		t.Fatalf("rollback leaked blobs: %v", keys)
	}
}

// TestDiscardRetryPassRecovers: a rollback delete that fails once is
// recovered by discardGeneration's bounded retry pass — no blob leaks.
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
	if keys, _ := tb.List(); len(keys) != 0 {
		t.Fatalf("recovered rollback left %d residual orphans: %v", len(keys), keys)
	}
}

// TestDiscardResidualOrphansCounted: a rollback delete that outlives the
// retry pass leaves exactly that blob behind as a residual orphan and is
// reported in the error, and a later commit over the leak restores its
// own state, not the orphan's.
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
	if keys, _ := tb.List(); len(keys) != 1 || keys[0] != key(0, 0) {
		t.Fatalf("residual orphans %v, want only %q", keys, key(0, 0))
	}

	// The leak is storage-only: a later commit on the same store works.
	commitGen(t, s, n, 1, func(int) []byte { return appState(500, 1) })
	imgs, _, err := s.MaterializeStreamHead()
	if err != nil {
		t.Fatal(err)
	}
	for r, img := range imgs {
		if !bytes.Equal(img.AppState, appState(500, 1)) {
			t.Fatalf("rank %d restored a state other than the later commit's", r)
		}
	}
}
