package kernel

import "time"

// Item is one entry of a VTQueue: a payload scheduled at virtual time
// At. seq breaks virtual-time ties FIFO, so pop order is a pure function
// of the push sequence — no wall-clock, no randomness.
type Item[T any] struct {
	At      time.Duration
	Payload T

	seq uint64
}

// VTQueue is the virtual-time event queue at the heart of the event
// kernel: a binary min-heap ordered by (At, seq). The kernel schedules
// rank wakeups through it; the cluster scheduler (internal/sched) reuses
// the same queue as the shared clock across concurrently-resident jobs,
// so job arrivals, completions, and preemption drains pop in the same
// deterministic (virtual time, FIFO) discipline as rank events.
//
// The zero value is an empty queue ready for use. Not safe for
// concurrent use; callers serialize access (the kernel and the
// scheduler each on its single event loop).
type VTQueue[T any] struct {
	h   []Item[T]
	seq uint64
}

// Len reports the number of pending items.
func (q *VTQueue[T]) Len() int { return len(q.h) }

// Push schedules payload at virtual time at.
func (q *VTQueue[T]) Push(at time.Duration, payload T) {
	q.h = append(q.h, Item[T]{At: at, Payload: payload, seq: q.seq})
	q.seq++
	q.up(len(q.h) - 1)
}

// Pop removes and returns the earliest item: smallest At, pushes at
// equal At in FIFO order.
func (q *VTQueue[T]) Pop() (Item[T], bool) {
	if len(q.h) == 0 {
		return Item[T]{}, false
	}
	top := q.h[0]
	n := len(q.h) - 1
	q.h[0] = q.h[n]
	q.h = q.h[:n]
	if n > 0 {
		q.down(0)
	}
	return top, true
}

// less orders the heap by (At, seq).
func (q *VTQueue[T]) less(i, j int) bool {
	if q.h[i].At != q.h[j].At {
		return q.h[i].At < q.h[j].At
	}
	return q.h[i].seq < q.h[j].seq
}

func (q *VTQueue[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			return
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		i = parent
	}
}

func (q *VTQueue[T]) down(i int) {
	n := len(q.h)
	for {
		l, r := 2*i+1, 2*i+2
		if l >= n {
			return
		}
		c := l
		if r < n && q.less(r, l) {
			c = r
		}
		if !q.less(c, i) {
			return
		}
		q.h[i], q.h[c] = q.h[c], q.h[i]
		i = c
	}
}
