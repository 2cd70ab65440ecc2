package kernel

import (
	"fmt"
	"sync"
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
// job. Create with New, register every rank with Go, then call Start.
// Its pending rank wakeups live in a VTQueue — the same virtual-time
// event queue the cluster scheduler shares as its clock.
type Kernel struct {
	n int

	mu      sync.Mutex
	queue   VTQueue[int]
	state   []int8
	pending []bool // a Wake arrived while the rank was still running
	live    int
	stalled bool
	onStall func()

	resume  []chan struct{} // scheduler -> rank: you hold the execution token
	yielded chan struct{}   // rank -> scheduler: token returned (parked or done)
	done    chan struct{}
}

// New builds a kernel for n rank activities, each initially scheduled at
// virtual time zero in rank order.
func New(n int) *Kernel {
	if n <= 0 {
		panic(fmt.Sprintf("kernel: invalid rank count %d", n))
	}
	k := &Kernel{
		n:       n,
		state:   make([]int8, n),
		pending: make([]bool, n),
		live:    n,
		resume:  make([]chan struct{}, n),
		yielded: make(chan struct{}),
		done:    make(chan struct{}),
	}
	for r := 0; r < n; r++ {
		k.resume[r] = make(chan struct{}, 1)
		k.push(0, r)
	}
	return k
}

// push enqueues a wakeup event. Caller holds k.mu (or, in New, has
// exclusive access).
func (k *Kernel) push(at time.Duration, rank int) {
	k.queue.Push(at, rank)
}

// OnStall registers the handler invoked when every live rank is parked
// and no wakeup event is pending — a deadlock, which the kernel
// detects instead of hanging. The handler runs on the scheduler
// goroutine and is expected to unblock the parked ranks (the cluster
// closes the fabric, failing them with ErrClosed). Set it before Start.
func (k *Kernel) OnStall(fn func()) { k.onStall = fn }

// Stalled reports whether the kernel detected a deadlock.
func (k *Kernel) Stalled() bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.stalled
}

// Go registers rank's activity body. The goroutine starts immediately
// but does not execute fn until the scheduler hands it the execution
// token. fn must eventually return; the kernel completes when every
// registered activity has.
func (k *Kernel) Go(rank int, fn func()) {
	go func() {
		<-k.resume[rank]
		defer k.finish(rank)
		fn()
	}()
}

// Start launches the scheduler loop. Every rank must have been
// registered with Go; Start returns immediately.
func (k *Kernel) Start() { go k.loop() }

// Wait blocks until every rank activity has finished.
func (k *Kernel) Wait() { <-k.done }

// loop is the scheduler: pop the earliest event, hand the token to its
// rank, wait for the token back, repeat.
func (k *Kernel) loop() {
	for {
		k.mu.Lock()
		if k.live == 0 {
			k.mu.Unlock()
			close(k.done)
			return
		}
		if k.queue.Len() == 0 {
			// Every live rank is parked with nothing scheduled to wake
			// it: a deadlock. Let the stall handler tear the job down
			// (waking the parked ranks with an error) rather than hang.
			k.stalled = true
			stall := k.onStall
			k.mu.Unlock()
			if stall != nil {
				stall()
			}
			k.mu.Lock()
			if k.queue.Len() == 0 && k.live > 0 {
				k.mu.Unlock()
				panic("kernel: deadlock with no stall recovery: all ranks parked and no events pending")
			}
			k.mu.Unlock()
			continue
		}
		ev, _ := k.queue.Pop()
		rank := ev.Payload
		if k.state[rank] != stReady {
			panic(fmt.Sprintf("kernel: scheduled rank %d in state %d", rank, k.state[rank]))
		}
		k.state[rank] = stRunning
		k.mu.Unlock()

		k.resume[rank] <- struct{}{}
		<-k.yielded
	}
}

// Park blocks the calling rank activity until a Wake schedules it again.
// It must be called by the running rank itself, holding no locks shared
// with other ranks (message delivery runs on the peer's activity and
// must be able to reach Wake).
func (k *Kernel) Park(rank int) {
	k.mu.Lock()
	if k.pending[rank] {
		// The wakeup already arrived (a teardown racing the park):
		// consume it and keep running — the caller re-checks its
		// condition in a loop.
		k.pending[rank] = false
		k.mu.Unlock()
		return
	}
	k.state[rank] = stParked
	k.mu.Unlock()

	k.yielded <- struct{}{}
	<-k.resume[rank]
}

// ParkUntil yields the calling rank's execution token until virtual
// time at: the rank is rescheduled unconditionally at that time, like a
// sleep in virtual time. Unlike Park there is no early wake — a Wake
// arriving while the rank is sleeping finds it in the ready state and
// is a no-op, so callers re-check their condition after the deadline
// and sleep again if needed. This is the primitive behind the drain
// protocol's retransmission timeouts.
func (k *Kernel) ParkUntil(rank int, at time.Duration) {
	k.mu.Lock()
	k.state[rank] = stReady
	k.push(at, rank)
	k.mu.Unlock()

	k.yielded <- struct{}{}
	<-k.resume[rank]
}

// Wake schedules rank to resume at virtual time at. Waking a rank that
// is not parked is a no-op (it is already scheduled or still running);
// a wake racing a park is latched and consumed by the park. Safe to
// call from any goroutine.
func (k *Kernel) Wake(rank int, at time.Duration) {
	k.mu.Lock()
	switch k.state[rank] {
	case stParked:
		k.state[rank] = stReady
		k.push(at, rank)
	case stRunning:
		k.pending[rank] = true
	}
	k.mu.Unlock()
}

// finish retires the calling rank's activity and returns the execution
// token to the scheduler.
func (k *Kernel) finish(rank int) {
	k.mu.Lock()
	k.state[rank] = stDone
	k.pending[rank] = false
	k.live--
	k.mu.Unlock()
	k.yielded <- struct{}{}
}
