// Package kernel is the discrete-event simulation core of the MANA
// simulator: a central virtual-time event queue that executes the ranks
// of a job as cooperatively scheduled activities, one at a time, in
// deterministic virtual-time order.
//
// It is the only way a job's ranks execute. Ranks are goroutines, so
// ordinary Go code runs on them unchanged, but exactly one is runnable
// at any moment. A rank that blocks hands control back to the scheduler
// (Park), and message delivery posts a wakeup event keyed by the
// message's arrival virtual time (Wake). Idle ranks cost nothing but a
// parked goroutine, which is why drain and store experiments sweep to
// thousands of ranks.
//
// # Event-queue ownership
//
// The event heap, rank states, and sequence counter are owned by the
// scheduler goroutine and guarded by a single mutex; the only writers
// besides the scheduler are Wake (called by the currently running rank
// when it deposits a message or tears the fabric down, or by the stall
// handler on the scheduler goroutine) and Park/finish (called by the
// running rank itself).
// Control transfers are strict handoffs: the scheduler resumes one rank
// and then waits until that rank parks or finishes before popping the
// next event, so at most one rank executes between any two scheduler
// decisions. Code running on a rank activity may therefore mutate its
// own rank-local state, and what only the token holder touches (the
// fabric, checkpoint coordinator, store, fault injector), lock-free.
//
// # Determinism rules
//
// The kernel is fully deterministic: the heap is keyed on
// (virtual time, sequence number), and the sequence number is assigned
// in program order by the single running activity, so ties break FIFO
// and identically on every run. Two rules keep it that way:
//
//   - No wall-clock or randomness in the model. Nothing the scheduler
//     orders by may depend on the host clock, map iteration order, or
//     scheduler interleaving. Virtual time comes from simtime.Clock
//     only, and no clock is advanced by a host-clock reading: the MANA
//     wrappers charge translation from a cost table (core/wrappers.go),
//     and core's TestNoHostClockInModel fails on any time.Now, Since or
//     Until in internal/* outside the wall-time reporters it lists.
//
//   - No busy-waiting. A rank that needs a peer's message must block in
//     the transport (Recv/WaitMatch), not spin-poll: under a serialized
//     kernel a spinning rank never yields, so a poll loop becomes a
//     livelock. The kernel detects the benign variant — every live rank
//     parked with an empty event queue — and fails the job instead of
//     hanging (see OnStall).
package kernel
