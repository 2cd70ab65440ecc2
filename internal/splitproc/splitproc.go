// Package splitproc models the split-process boundary of MANA's
// architecture (paper Section 2.2 and Figure 1): the upper half (MPI
// application + MANA wrappers) and the lower half (the real MPI library)
// live in one address space but use different fs-register bases, so every
// wrapper call switches the fs register on entry to the lower half and
// again on return.
//
// Go cannot execute wrfsbase or prctl(ARCH_SET_FS) meaningfully inside
// its own runtime, so the boundary is a cost model with real counters:
//
//   - with userspace FSGSBASE (Perlmutter, Linux 5.14) a crossing is a
//     single unprivileged instruction — tens of nanoseconds;
//   - without it (Discovery, Linux 3.10) each crossing is a prctl
//     system call — several hundred nanoseconds, the source of the
//     3-30% overheads in the paper's Section 6.1.
//
// The crossing *count* is real: every MANA wrapper call crosses twice
// (in and out), and MANA-internal lower-half calls cross too. Section
// 6.3's context-switch analysis is reproduced from these counters.
package splitproc

import (
	"time"

	"manasim/internal/simtime"
)

// Boundary is one rank's split-process boundary.
type Boundary struct {
	clock *simtime.Clock
	cost  time.Duration

	// crossings is written only by the rank that owns the boundary.
	crossings uint64
}

// New builds a boundary charging the host profile's crossing cost
// against the rank's clock.
func New(clock *simtime.Clock, host simtime.HostProfile) *Boundary {
	return &Boundary{clock: clock, cost: host.CrossCost}
}

// Enter switches into the lower half: one fs-register switch.
func (b *Boundary) Enter() {
	b.clock.Advance(b.cost)
	b.crossings++
}

// Leave switches back to the upper half: one fs-register switch.
func (b *Boundary) Leave() {
	b.clock.Advance(b.cost)
	b.crossings++
}

// Cost is what one crossing charges the clock now: the host's crossing
// cost, scaled by a straggler window the clock is inside.
func (b *Boundary) Cost() time.Duration { return b.clock.Cost(b.cost) }

// Crossed counts n crossings whose virtual time the caller charged in
// one advance: a run of identical calls charged in closed form
// (mana.Runtime.Iprobes) still crosses twice per call.
func (b *Boundary) Crossed(n uint64) { b.crossings += n }

// Crossings returns the total number of fs-register switches performed.
// The counter is unsynchronized: only the owning rank writes it, so
// another goroutine may read it only after something orders the rank's
// last crossing before the read: mana.Session.Wait reads it after
// cluster.Job.WaitResult, whose kernel Wait happens after every rank
// body has returned.
func (b *Boundary) Crossings() uint64 { return b.crossings }
