package ckpt

import (
	"fmt"
	"sort"

	"manasim/internal/ckptimg"
	"manasim/internal/mpi"
)

// DrainComm identifies one live communicator eligible for draining,
// with the MANA-side metadata a strategy needs to account for pulled
// messages.
type DrainComm struct {
	// Virt is the virtual communicator handle.
	Virt mpi.Handle
	// GGID is the communicator's global group id — the only
	// communicator name that survives restart.
	GGID uint32
	// World maps communicator ranks to world ranks.
	World []int
}

// DrainEnv is what a drain strategy sees of one rank's runtime during a
// checkpoint: the point-to-point counters, the live communicators, and
// the lower-half primitives needed to reconcile them. All methods are
// called from the rank's own goroutine between safe points; no
// concurrent use.
type DrainEnv interface {
	CtlLink

	// Rank and Size identify this rank within the world.
	Rank() int
	Size() int

	// Counters reports the rank's cumulative application point-to-point
	// counters, one entry per world rank it has sent to or received
	// from, peers ascending: the live list, not a copy. Pull counts the
	// message it pulls into the list, inserting the sender's entry if
	// it is the first message from that rank, which may move the list.
	// So no strategy holds the list, or an entry of it, across a Pull:
	// it reads the list before its first Pull (the announcement, the
	// exchange's send half) and looks counts up with RecvFrom after.
	Counters() ckptimg.Counters
	// RecvFrom reports the cumulative receives from world rank p, a
	// lookup in Counters. Pull increments the sender's count and no
	// other, so the count of a peer a strategy has not yet pulled for
	// still holds its value from the start of the drain.
	RecvFrom(p int) uint64

	// ExchangeAll runs an MPI_Alltoall of one uint64 per rank over the
	// internal communicator — slot p of the send half is this rank's
	// send count toward p from sent, zero where sent has no entry — and
	// returns the value each peer sent to this rank: the collective
	// counter exchange of the two-phase protocol (paper Section 5,
	// category 3). The caller owns the result.
	ExchangeAll(sent ckptimg.Counters) ([]uint64, error)

	// Comms lists the live communicators to probe for in-flight
	// traffic. MANA's internal communicator is never included.
	Comms() ([]DrainComm, error)
	// Probe polls comm c for a pending message from src (comm rank or
	// mpi.AnySource) with the given tag (or mpi.AnyTag).
	Probe(c DrainComm, src, tag int) (bool, mpi.Status, error)
	// Pull receives the probed message into the rank's drain buffer,
	// updates the receive accounting, and returns the sender's world
	// rank.
	Pull(c DrainComm, st mpi.Status) (int, error)

	// SetPhase records the rank's current drain-protocol phase (a short
	// label like "announce", "absorb", "pull:twophase"), so the
	// cluster's stall diagnostic can name each parked rank's last phase
	// instead of just its id.
	SetPhase(phase string)
}

// DrainStrategy pulls every in-flight application point-to-point
// message off the network into the rank's drain buffer, so the
// checkpoint cut contains no message state outside the images. Drain is
// invoked on every rank at the agreed boundary; when it returns, the
// rank's receive counters must equal every peer's send counters toward
// it.
type DrainStrategy interface {
	// Name reports the registered strategy name.
	Name() string
	// Drain reconciles the in-flight messages for one rank.
	Drain(env DrainEnv) error
}

// DefaultDrain is the strategy used when Config.DrainStrategy is empty:
// the paper's two-phase counter-exchange protocol.
const DefaultDrain = "twophase"

// drainReg holds the registered strategies. It is written only by
// RegisterDrain from package init functions, which run before any other
// code, so it needs no lock.
var drainReg = map[string]func() DrainStrategy{}

// RegisterDrain registers a drain strategy factory under name.
// Strategies register themselves from init functions in
// internal/ckpt/drain; callers wire them in with a blank import. It
// must be called only from an init function.
func RegisterDrain(name string, f func() DrainStrategy) {
	if _, dup := drainReg[name]; dup {
		panic(fmt.Sprintf("ckpt: drain strategy %q registered twice", name))
	}
	drainReg[name] = f
}

// NewDrain instantiates the strategy registered under name; the empty
// string selects DefaultDrain.
func NewDrain(name string) (DrainStrategy, error) {
	if name == "" {
		name = DefaultDrain
	}
	f, ok := drainReg[name]
	if !ok {
		return nil, fmt.Errorf("ckpt: unknown drain strategy %q (have %v; import manasim/internal/ckpt/drain to register the built-ins)", name, DrainNames())
	}
	return f(), nil
}

// DrainNames lists the registered strategies in sorted order.
func DrainNames() []string {
	out := make([]string, 0, len(drainReg))
	for n := range drainReg {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
