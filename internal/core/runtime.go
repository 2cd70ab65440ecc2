package mana

import (
	"fmt"
	"time"

	"manasim/internal/ckpt"
	"manasim/internal/ckptimg"
	"manasim/internal/mpi"
	"manasim/internal/simtime"
	"manasim/internal/splitproc"
	"manasim/internal/vid"
)

// Runtime is one rank's MANA instance: the upper-half wrapper library of
// Figure 1. It implements mpi.Proc so applications link against it
// exactly as they would against the real library.
type Runtime struct {
	cfg   Config
	lower mpi.Proc
	store vid.Store
	bnd   *splitproc.Boundary
	clock *simtime.Clock
	// xlat is the translation cost each charged wrapper site advances
	// the clock by, resolved once from the config (wrappers.go).
	xlat xlatTable

	rank, size int

	// manaComm is MANA's private duplicate of MPI_COMM_WORLD in the
	// lower half, used for the checkpoint protocol's internal traffic
	// (Section 5, category 3). It is not in the vid store: a restart
	// recreates it before replay.
	manaComm mpi.Handle

	// consts caches the virtual handles of predefined constants.
	consts      [mpi.NumConstNames]mpi.Handle
	constsBound [mpi.NumConstNames]bool

	// members caches communicator membership (world ranks, in comm-rank
	// order) keyed by virtual comm handle — MANA-specific information
	// associated with the MPI object (Section 4.2).
	members map[mpi.Handle][]int

	// recvComms maps each pending receive request to its virtual
	// communicator; the drain protocol completes the receives in place.
	recvComms map[mpi.Handle]mpi.Handle

	// reqResults holds statuses of requests completed by the drain (or
	// restored from an image); Wait/Test consume them.
	reqResults map[mpi.Handle]mpi.Status

	// drained holds in-flight messages captured at the last checkpoint,
	// served to receives before the lower half is consulted.
	drained []ckptimg.DrainedMsg

	// sentTo / recvFrom count wrapper-level point-to-point messages per
	// world rank; the drain protocol reconciles them.
	sentTo, recvFrom []uint64

	// wrapperCalls counts MPI calls that crossed the boundary (§6.3).
	wrapperCalls uint64

	// drainVT accumulates the virtual time spent inside the drain
	// strategy across this rank's checkpoints (Stats.DrainVT).
	drainVT time.Duration
	// ctlMsgs counts drain control messages this rank sent over the
	// internal communicator (Stats.CtlMsgs), tallied by the DrainEnv
	// adapter.
	ctlMsgs uint64
	// ctlBytes is the payload of those messages (Stats.CtlBytes).
	ctlBytes uint64
	// ctlBuf and ctlVals are the reusable staging buffers of the control
	// link, wire bytes and decoded values (control traffic is serial
	// within a rank, so one of each suffices).
	ctlBuf  []byte
	ctlVals []int64

	co *Coordinator
	// ckptAtStep is the agreed checkpoint boundary (-1: none pending).
	ckptAtStep int
	// drain is the configured in-flight message drain strategy.
	drain ckpt.DrainStrategy

	// lastCkptVT is the virtual time the rank's last checkpoint
	// completed (0 before the first): the reference the periodic
	// Config.CkptInterval trigger measures against.
	lastCkptVT time.Duration
	// ckptVTs and ckptCosts record, per completed checkpoint, the
	// completion virtual time and the time the protocol consumed (drain
	// through commit barrier). The service harness derives lost work and
	// its checkpoint-cost probe from rank 0's lists.
	ckptVTs   []time.Duration
	ckptCosts []time.Duration
	// phaseFn posts the rank's drain-protocol phase to the cluster's
	// stall-diagnostic board (nil outside a job).
	phaseFn func(string)

	snapshotFn  func() ([]byte, error)
	footprintFn func() int64
}

// NewRuntime wraps a fresh lower half for one rank.
func NewRuntime(cfg Config, lower mpi.Proc, clock *simtime.Clock, co *Coordinator) (*Runtime, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	store, err := cfg.newStore(handleBitsOf(lower))
	if err != nil {
		return nil, err
	}
	drain, err := ckpt.NewDrain(cfg.DrainStrategy)
	if err != nil {
		return nil, fmt.Errorf("mana: %w", err)
	}
	rt := &Runtime{
		cfg:        cfg,
		lower:      lower,
		store:      store,
		bnd:        splitproc.New(clock, cfg.Host),
		clock:      clock,
		xlat:       cfg.xlatCosts(),
		rank:       lower.Rank(),
		size:       lower.Size(),
		members:    make(map[mpi.Handle][]int),
		recvComms:  make(map[mpi.Handle]mpi.Handle),
		reqResults: make(map[mpi.Handle]mpi.Status),
		sentTo:     make([]uint64, lower.Size()),
		recvFrom:   make([]uint64, lower.Size()),
		co:         co,
		ckptAtStep: -1,
		drain:      drain,
	}
	markResolvedCaller(lower)
	if err := rt.initManaComm(); err != nil {
		return nil, err
	}
	return rt, nil
}

// handleBitsOf reads the lower half's declared handle width.
func handleBitsOf(p mpi.Proc) int { return p.HandleBits() }

// markResolvedCaller tells lower halves with a lazy handle-resolution
// path (ExaMPI) that MANA passes pre-resolved physical handles, so they
// may skip the expensive lazy guard (paper Section 6.2).
func markResolvedCaller(p mpi.Proc) {
	if rc, ok := p.(interface{ SetResolvedCaller(bool) }); ok {
		rc.SetResolvedCaller(true)
	}
}

// initManaComm duplicates the world communicator for MANA-internal use.
func (r *Runtime) initManaComm() error {
	worldPhys, err := r.lower.LookupConst(mpi.ConstCommWorld)
	if err != nil {
		return fmt.Errorf("mana: resolving MPI_COMM_WORLD: %w", err)
	}
	r.bnd.Enter()
	mc, err := r.lower.CommDup(worldPhys)
	r.bnd.Leave()
	if err != nil {
		return fmt.Errorf("mana: creating internal communicator: %w", err)
	}
	r.manaComm = mc
	return nil
}

// Boundary exposes the split-process boundary (context-switch counters,
// Section 6.3).
func (r *Runtime) Boundary() *splitproc.Boundary { return r.bnd }

// WrapperCalls reports the number of wrapped MPI calls.
func (r *Runtime) WrapperCalls() uint64 { return r.wrapperCalls }

// ---------------------------------------------------------------------
// identity and constants

// Rank implements mpi.Proc.
func (r *Runtime) Rank() int { return r.rank }

// Size implements mpi.Proc.
func (r *Runtime) Size() int { return r.size }

// ImplName implements mpi.Proc: MANA identifies itself plus the lower
// half, as `mpirun` output would show.
func (r *Runtime) ImplName() string { return "mana+" + r.lower.ImplName() }

// HandleBits implements mpi.Proc: with uniform handles the application
// sees MANA's own 64-bit types (the MANA mpi.h of Section 9), otherwise
// the lower half's declared width.
func (r *Runtime) HandleBits() int {
	if r.cfg.UniformHandles {
		return 64
	}
	return r.lower.HandleBits()
}

// Caps implements mpi.Proc.
func (r *Runtime) Caps() mpi.CapSet { return r.lower.Caps() }

// LookupConst implements mpi.Proc: the wrapper resolves the constant in
// the lower half on first use and hands the application a virtual handle
// that stays valid across restart (Section 4.3: constants may be
// functions, resolved per library instance).
func (r *Runtime) LookupConst(name mpi.ConstName) (mpi.Handle, error) {
	if name < 0 || name >= mpi.NumConstNames {
		return mpi.HandleNull, mpi.Errorf(mpi.ErrArg, "unknown constant %v", name)
	}
	if r.constsBound[name] {
		return r.consts[name], nil
	}
	r.bnd.Enter()
	phys, err := r.lower.LookupConst(name)
	r.bnd.Leave()
	if err != nil {
		return mpi.HandleNull, err
	}
	kind := name.Kind()
	// ExaMPI aliases constants (MPI_CHAR and MPI_BYTE share a pointer);
	// if the physical handle is already virtualized, reuse its id.
	if virt, ok := r.store.Virt(kind, phys); ok {
		r.consts[name] = virt
		r.constsBound[name] = true
		return virt, nil
	}
	virt, err := r.store.Add(kind, phys, vid.Descriptor{Op: vid.DescConst, Const: name}, vid.StrategyReplay)
	if err != nil {
		return mpi.HandleNull, err
	}
	if kind == mpi.KindComm {
		if err := r.cacheCommMembership(virt, phys); err != nil {
			return mpi.HandleNull, err
		}
		if err := r.computeGGID(virt); err != nil {
			return mpi.HandleNull, err
		}
	}
	r.consts[name] = virt
	r.constsBound[name] = true
	return virt, nil
}

// ---------------------------------------------------------------------
// membership and ggid helpers

// cacheCommMembership caches a communicator's world-rank membership
// for the drain protocol's per-peer counters.
func (r *Runtime) cacheCommMembership(virt, phys mpi.Handle) error {
	world, err := r.worldRanksOf(phys)
	if err != nil {
		return err
	}
	r.members[virt] = world
	return nil
}

// worldRanksOf decodes a communicator's membership as world ranks, in
// comm-rank order, through the lower half's decode functions inside
// one boundary crossing (Section 5, category 2: MPI_Comm_group +
// MPI_Group_translate_ranks).
func (r *Runtime) worldRanksOf(phys mpi.Handle) ([]int, error) {
	worldPhys, err := r.lower.LookupConst(mpi.ConstCommWorld)
	if err != nil {
		return nil, err
	}
	r.bnd.Enter()
	defer r.bnd.Leave()
	g, err := r.lower.CommGroup(phys)
	if err != nil {
		return nil, err
	}
	wg, err := r.lower.CommGroup(worldPhys)
	if err != nil {
		return nil, err
	}
	n, err := r.lower.GroupSize(g)
	if err != nil {
		return nil, err
	}
	ranks := make([]int, n)
	for i := range ranks {
		ranks[i] = i
	}
	world, err := r.lower.GroupTranslateRanks(g, ranks, wg)
	if err != nil {
		return nil, err
	}
	_ = r.lower.GroupFree(g)
	_ = r.lower.GroupFree(wg)
	return world, nil
}

// membership returns the cached world-rank membership of a virtual comm.
func (r *Runtime) membership(virt mpi.Handle) ([]int, error) {
	m, ok := r.members[virt]
	if !ok {
		return nil, mpi.Errorf(mpi.ErrComm, "mana: no membership cached for communicator %#x", uint64(virt))
	}
	return m, nil
}

// computeGGID computes and stores the global group id of a communicator
// by decoding its membership through the lower half. The decode is
// performed even though MANA caches membership for counter bookkeeping,
// because the ggid definition is pinned to the lower half's view. Every
// communicator pays it at creation (the paper's eager policy; Section 9
// proposes deferring it for communicator-churning codes).
func (r *Runtime) computeGGID(virt mpi.Handle) error {
	phys, err := r.store.Phys(mpi.KindComm, virt)
	if err != nil {
		return err
	}
	world, err := r.worldRanksOf(phys)
	if err != nil {
		return err
	}
	return r.store.SetGGID(mpi.KindComm, virt, vid.GGIDOf(world))
}

// ggidOf returns the communicator's ggid, computing it on demand when
// the store holds none.
func (r *Runtime) ggidOf(virt mpi.Handle) (uint32, error) {
	g, err := r.store.GGID(mpi.KindComm, virt)
	if err != nil {
		return 0, err
	}
	if g != 0 {
		return g, nil
	}
	if err := r.computeGGID(virt); err != nil {
		return 0, err
	}
	return r.store.GGID(mpi.KindComm, virt)
}

// worldOf translates a comm rank to a world rank via the cached
// membership.
func (r *Runtime) worldOf(commVirt mpi.Handle, commRank int) (int, error) {
	m, err := r.membership(commVirt)
	if err != nil {
		return 0, err
	}
	if commRank < 0 || commRank >= len(m) {
		return 0, mpi.Errorf(mpi.ErrRank, "mana: rank %d out of range", commRank)
	}
	return m[commRank], nil
}

// ---------------------------------------------------------------------
// handle translation helpers

func (r *Runtime) physComm(virt mpi.Handle) (mpi.Handle, error) {
	return r.store.Phys(mpi.KindComm, virt)
}

func (r *Runtime) physDtype(virt mpi.Handle) (mpi.Handle, error) {
	return r.store.Phys(mpi.KindDatatype, virt)
}

func (r *Runtime) physOp(virt mpi.Handle) (mpi.Handle, error) {
	return r.store.Phys(mpi.KindOp, virt)
}

func (r *Runtime) physGroup(virt mpi.Handle) (mpi.Handle, error) {
	return r.store.Phys(mpi.KindGroup, virt)
}

// Abort implements mpi.Proc.
func (r *Runtime) Abort(code int) {
	r.bnd.Enter()
	r.lower.Abort(code)
	r.bnd.Leave()
}

// Compile-time check: a Runtime is a drop-in mpi.Proc.
var _ mpi.Proc = (*Runtime)(nil)
