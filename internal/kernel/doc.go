// Package kernel is the discrete-event simulation core of the MANA
// simulator: a central virtual-time event queue that executes the ranks
// of a job as cooperatively scheduled activities, one at a time, in
// deterministic virtual-time order.
//
// It is the only way a job's ranks execute. Each rank is a coroutine
// (iter.Pull), so ordinary Go code runs on it unchanged, but exactly one
// runs at any moment. A rank that blocks hands control back to the loop
// (Park), and message delivery posts a wakeup event keyed by the
// message's arrival virtual time (Wake). Idle ranks cost nothing but a
// suspended coroutine, which is why drain and store experiments sweep
// to thousands of ranks.
//
// # Event-queue ownership
//
// Run executes the loop on its caller's goroutine, and every rank is a
// coroutine of it: the loop pops the earliest event and switches to its
// rank, and the rank switches back when it parks or returns. A switch goes straight from one
// goroutine to the other without the Go scheduler, and the ranks and
// the loop never run at the same time, so the event heap, rank states
// and sequence counter need no mutex. Their only writers are the
// running rank (Park, ParkUntil, and Wake when it deposits a message or
// tears the fabric down), the loop, and the stall handler, which the
// loop calls between two ranks. Code running on a rank may therefore
// mutate its own rank-local state, and what only the token holder
// touches (the fabric, checkpoint coordinator, store, fault injector),
// lock-free. The race detector sees each switch as a synchronization,
// so it still checks that nothing else touches that state.
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
