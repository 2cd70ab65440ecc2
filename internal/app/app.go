// Package app defines the contract between the simulated MPI
// applications (the proxies for CoMD, HPCG, LAMMPS, LULESH, and SW4) and
// the two execution environments: native MPI and MANA.
//
// An Instance is written in resumable-state style: all state lives in the
// instance struct, execution is a sequence of Steps, and the struct can
// be serialized and restored. This is the Go substitution for MANA's
// upper-half memory capture: Go cannot snapshot a goroutine's stack or
// heap the way MANA copies the upper half's pages, so the "upper-half
// memory" of a rank is its instance struct, and a step boundary is the
// only point where all of it lives there. The application remains
// checkpoint-oblivious: it never
// sees checkpoint requests, never names its MPI objects for
// reconstruction, and never reconstructs anything itself.
package app

import (
	"sync"
	"time"

	"manasim/internal/mpi"
	"manasim/internal/simtime"
)

// Env is what a rank's step runs against: its MPI library (native proc
// or MANA runtime — the application cannot tell), its virtual clock for
// compute-cost accounting, and its identity.
type Env struct {
	P     mpi.Proc
	Clock *simtime.Clock
	Rank  int
	Size  int
}

// Compute charges d of application compute time to the rank's clock.
func (e *Env) Compute(d time.Duration) { e.Clock.Advance(d) }

// Instance is one rank's application state machine.
type Instance interface {
	// Setup creates the instance's MPI objects (communicators, derived
	// datatypes, operations) and initial state. Called once at job
	// start; not called again on restart.
	Setup(env *Env) error
	// Steps is the total number of main-loop iterations.
	Steps() int
	// Step executes one iteration. All communication it starts that a
	// blocking receive depends on must be issued no later than the same
	// step on the sending rank (sends may stay in flight across step
	// boundaries; receives may not depend on future steps).
	Step(env *Env, step int) error
	// Finalize runs after the last step (verification collectives,
	// object frees).
	Finalize(env *Env) error
	// Checksum returns a deterministic digest of the numeric state,
	// used to prove native/MANA and checkpoint/restart equivalence.
	Checksum() uint64
	// Snapshot serializes the full instance state into a buffer the
	// instance keeps no reference to: the caller owns it and may recycle
	// it with ReleaseSnapshot once it is done with the bytes — the
	// checkpoint path does, after encoding the image — so a later
	// Snapshot of this or any other instance may be handed the same
	// array.
	Snapshot() ([]byte, error)
	// Restore replaces the instance state from a snapshot. The instance
	// must afterwards be resumable at the step recorded by the runner.
	// data is valid only during the call — a restart resolves rank after
	// rank into one reused buffer — so Restore copies whatever it keeps.
	Restore(data []byte) error
	// FootprintBytes is the modeled checkpoint payload of this rank:
	// the size the full scientific working set would occupy in a real
	// checkpoint image (Table 3). The simulator does not materialize
	// arrays of this size; the filesystem model charges time for them.
	FootprintBytes() int64
}

// Factory builds a fresh (unrestored) instance for one rank.
type Factory func() Instance

// snapshotPool recycles snapshot buffers: a checkpoint encodes each
// rank's snapshot and is then done with it, so the next rank — or the
// next generation — serializes into the same array instead of a fresh
// state-sized one.
var snapshotPool sync.Pool // of *[]byte

// SnapshotBuffer returns an n-byte buffer for a Snapshot to fill: a
// released one when the pool holds one large enough, a fresh one
// otherwise. Its contents are arbitrary; the caller writes every byte.
func SnapshotBuffer(n int) []byte {
	if p, _ := snapshotPool.Get().(*[]byte); p != nil && cap(*p) >= n {
		return (*p)[:n]
	}
	return make([]byte, n)
}

// ReleaseSnapshot hands a buffer Snapshot returned back for reuse. The
// caller must not touch b afterwards.
func ReleaseSnapshot(b []byte) {
	if cap(b) > 0 {
		snapshotPool.Put(&b)
	}
}
