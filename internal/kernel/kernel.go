package kernel

import (
	"fmt"
	"iter"
	"time"
)

// rank activity states.
const (
	stReady   int8 = iota // scheduled: a wakeup event is in the heap
	stRunning             // executing (at most one rank at a time)
	stParked              // blocked, waiting for a Wake
	stDone                // activity returned
)

// Kernel is a discrete-event scheduler for the rank activities of one
// job. Create with New, register every rank with Go, then call Run.
// Its pending rank wakeups live in a VTQueue — the same virtual-time
// event queue the cluster scheduler shares as its clock.
type Kernel struct {
	queue   VTQueue[int]
	state   []int8
	pending []bool // a Wake arrived while the rank was still running
	live    int
	stalled bool
	onStall func()

	next  []func() (struct{}, bool) // loop -> rank: run until the rank parks or returns
	yield []func(struct{}) bool     // rank -> loop: hand the token back
}

// New builds a kernel for n rank activities, each initially scheduled at
// virtual time zero in rank order.
func New(n int) *Kernel {
	if n <= 0 {
		panic(fmt.Sprintf("kernel: invalid rank count %d", n))
	}
	k := &Kernel{
		state:   make([]int8, n),
		pending: make([]bool, n),
		live:    n,
		next:    make([]func() (struct{}, bool), n),
		yield:   make([]func(struct{}) bool, n),
	}
	for r := 0; r < n; r++ {
		k.queue.Push(0, r)
	}
	return k
}

// OnStall registers the handler invoked when every live rank is parked
// and no wakeup event is pending — a deadlock, which the kernel
// detects instead of hanging. The handler runs on the loop between two
// ranks and is expected to unblock the parked ranks (the cluster closes
// the fabric, failing them with ErrClosed). Set it before Run.
func (k *Kernel) OnStall(fn func()) { k.onStall = fn }

// Stalled reports whether the kernel detected a deadlock.
func (k *Kernel) Stalled() bool { return k.stalled }

// Go registers rank's activity body as a coroutine. fn does not start
// until the loop first hands rank the execution token. fn must
// eventually return; Run completes when every registered activity has.
// The coroutine's stop function is dropped: Run runs every rank until
// it returns, and after a rank fails it abandons the rest (see Run).
func (k *Kernel) Go(rank int, fn func()) {
	k.next[rank], _ = iter.Pull(func(yield func(struct{}) bool) {
		k.yield[rank] = yield
		fn()
	})
}

// Run executes the job on the calling goroutine: pop the earliest
// event, switch to its rank until the rank parks or returns, repeat
// until every rank has returned. Every rank must have been registered
// with Go. A rank that panics or calls runtime.Goexit ends Run the same
// way — the panic is re-raised, or the Goexit repeated, on Run's
// goroutine — and the job's other ranks stay where they parked.
func (k *Kernel) Run() {
	for k.live > 0 {
		ev, ok := k.queue.Pop()
		if !ok {
			k.stall()
			continue
		}
		rank := ev.Payload
		if k.state[rank] != stReady {
			panic(fmt.Sprintf("kernel: scheduled rank %d in state %d", rank, k.state[rank]))
		}
		k.state[rank] = stRunning
		if _, running := k.next[rank](); !running {
			k.state[rank] = stDone
			k.pending[rank] = false
			k.live--
			k.next[rank], k.yield[rank] = nil, nil
		}
	}
}

// stall handles a deadlock: every live rank is parked with nothing
// scheduled to wake it. The stall handler tears the job down (waking
// the parked ranks with an error) rather than hang.
func (k *Kernel) stall() {
	k.stalled = true
	if k.onStall != nil {
		k.onStall()
	}
	if k.queue.Len() == 0 {
		panic("kernel: deadlock with no stall recovery: all ranks parked and no events pending")
	}
}

// Park blocks the calling rank activity until a Wake schedules it again.
// It must be called by the running rank itself.
func (k *Kernel) Park(rank int) {
	if k.pending[rank] {
		// The rank woke itself while running (a self-send deposits
		// into its own mailbox): consume the wakeup and keep running —
		// the caller re-checks its condition in a loop.
		k.pending[rank] = false
		return
	}
	k.state[rank] = stParked
	k.yield[rank](struct{}{})
}

// ParkUntil yields the calling rank's execution token until virtual
// time at: the rank is rescheduled unconditionally at that time, like a
// sleep in virtual time. Unlike Park there is no early wake — a Wake
// arriving while the rank is sleeping finds it in the ready state and
// is a no-op, so callers re-check their condition after the deadline
// and sleep again if needed. Nothing in the model sleeps; it stays for
// the SleepUntil chain bench/trace.go asserts (ROADMAP item 10).
func (k *Kernel) ParkUntil(rank int, at time.Duration) {
	k.state[rank] = stReady
	k.queue.Push(at, rank)
	k.yield[rank](struct{}{})
}

// Wake schedules rank to resume at virtual time at. Waking a rank that
// is not parked is a no-op (it is already scheduled or has returned),
// except that a rank waking itself while running is latched and the
// latch is consumed by its next Park. Call it from the running rank or
// from the stall handler.
func (k *Kernel) Wake(rank int, at time.Duration) {
	switch k.state[rank] {
	case stParked:
		k.state[rank] = stReady
		k.queue.Push(at, rank)
	case stRunning:
		k.pending[rank] = true
	}
}
