package kernel

import (
	"testing"
	"time"
)

// TestVTQueueOrder verifies (At, seq) pop order: earliest virtual time
// first, FIFO among ties.
func TestVTQueueOrder(t *testing.T) {
	var q VTQueue[string]
	q.Push(3*time.Second, "c")
	q.Push(1*time.Second, "a1")
	q.Push(2*time.Second, "b")
	q.Push(1*time.Second, "a2")
	q.Push(1*time.Second, "a3")

	want := []string{"a1", "a2", "a3", "b", "c"}
	if q.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", q.Len(), len(want))
	}
	if top := q.h[0]; top.Payload != "a1" {
		t.Fatalf("heap top = %+v, want a1", top)
	}
	var prev time.Duration
	for i, w := range want {
		it, ok := q.Pop()
		if !ok {
			t.Fatalf("Pop %d: empty", i)
		}
		if it.Payload != w {
			t.Fatalf("Pop %d = %q, want %q", i, it.Payload, w)
		}
		if it.At < prev {
			t.Fatalf("Pop %d: time went backwards (%v after %v)", i, it.At, prev)
		}
		prev = it.At
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop on empty queue reported ok")
	}
}
