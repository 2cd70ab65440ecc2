package faults

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"manasim/internal/ckpt"
	"manasim/internal/simtime"
	"manasim/internal/transport"
)

// Kind enumerates the injectable fault kinds.
type Kind uint8

const (
	// NodeCrash kills a rank mid-step: the job aborts with a typed
	// *CrashError naming the rank and its virtual time of death.
	NodeCrash Kind = iota + 1
	// Straggler multiplies one rank's compute/translation cost for a
	// virtual-time window.
	Straggler
	// CtlLoss drops a drain-counter control message in the transport.
	CtlLoss
	// CtlReorder delays a drain-counter control message, so it is
	// observed at a later virtual time than its peers.
	CtlReorder
	// StoreFault makes backend Put/Get on one blob key fail.
	StoreFault
	// StoreCorrupt silently damages the stored bytes of a backend blob
	// (bit-flip, truncation, or torn write). Unlike StoreFault no error
	// is returned: detection is downstream, through the image section
	// CRCs and the dedup layer's content-addressed keys.
	StoreCorrupt
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case NodeCrash:
		return "crash"
	case Straggler:
		return "straggler"
	case CtlLoss:
		return "ctl-loss"
	case CtlReorder:
		return "ctl-reorder"
	case StoreFault:
		return "store-fault"
	case StoreCorrupt:
		return "store-corrupt"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Event is one scheduled fault. Times are service virtual time: the
// cumulative virtual time across restart attempts, so a crash process
// keeps ticking through restarts instead of resetting with each fresh
// clock.
type Event struct {
	Kind Kind
	// Rank is the target rank (crash, straggler) or the sending rank
	// (control-message faults). Unused for store faults.
	Rank int
	// OnNode retargets a virtual-time NodeCrash at a scheduler node
	// instead of a single rank: the event fires at the first check any
	// rank placed on Node reaches past At, and every other rank on that
	// node is doomed to die at its own next check — a node loss kills
	// all ranks placed on it, not an abstract rank. Requires a placement
	// (SetPlacement); Rank is ignored.
	OnNode bool
	Node   int
	// At arms crash and straggler events at this service virtual time.
	At time.Duration
	// Step/Call arm a scripted crash instead of a virtual-time one:
	// the crash fires at the Call-th wrapper call (1-based) inside the
	// given step, or at the step boundary itself when Call is zero.
	// Step is -1 for virtual-time events.
	Step int
	Call int
	// Factor and Window parameterize a straggler: charges inside
	// [At, At+Window) cost Factor times as much.
	Factor float64
	Window time.Duration
	// Nth selects the Nth droppable control message sent by Rank
	// (1-based, counted per sender across the injector's lifetime).
	Nth uint64
	// Delay is the virtual-time delivery delay of a CtlReorder.
	Delay time.Duration
	// Key is the faulted blob key of a StoreFault ("gen0002/rank01",
	// "manifest"); Ops is how many operations on it fail transiently.
	// Permanent makes every operation on the key fail non-transiently.
	Key       string
	Ops       int
	Permanent bool
	// Mode selects a StoreCorrupt event's damage (flip, truncate,
	// torn). A StoreCorrupt with an empty Key is a rate event: every
	// non-manifest blob whose seeded key hash falls below Factor is
	// struck once (Mode zero draws the damage per key from the same
	// hash). Keyed StoreCorrupt events arm at service time At.
	Mode CorruptMode
}

// Plan parameterizes the generated fault timeline. Zero values disable
// the corresponding fault kind; Events appends scripted events
// verbatim (tests use it for step-targeted crashes).
type Plan struct {
	// Seed feeds the single rand.Source the whole timeline is drawn
	// from.
	Seed int64
	// MTBF is the mean time between node crashes (exponential
	// inter-arrival in service virtual time). Zero disables random
	// crashes.
	MTBF time.Duration
	// Crashes caps the number of scheduled crashes (default 64 when
	// MTBF is set).
	Crashes int
	// Stragglers schedules this many straggler windows across the
	// horizon [0, Horizon), each with StragglerFactor and
	// StragglerWindow (defaults 4.0 and MTBF/4 or 1ms).
	Stragglers      int
	StragglerFactor float64
	StragglerWindow time.Duration
	// Horizon is the service virtual time the straggler schedule is
	// spread over (default 16*MTBF, or 1s without an MTBF).
	Horizon time.Duration
	// CtlDrops and CtlDelays schedule that many control-message drops
	// and delays; senders and ordinals are drawn uniformly from
	// [0, ranks) x [1, CtlMaxNth] (default ordinal bound 4). Delays
	// last CtlDelay (default 1ms).
	CtlDrops  int
	CtlDelays int
	CtlDelay  time.Duration
	CtlMaxNth int
	// CtlTimeout is the drain protocol's retransmission timeout under
	// armed control faults (default 1ms).
	CtlTimeout time.Duration
	// StoreFaults schedules transient Put/Get failures on that many
	// generation blob keys drawn from generations [0, StoreMaxGen)
	// (default 4); each faulted key fails StoreOps times (default 2).
	StoreFaults int
	StoreOps    int
	StoreMaxGen int
	// StoreCorrupts schedules that many silent corruptions, each on a
	// generation blob key drawn from [0, StoreMaxGen) x [0, ranks),
	// arming at a service time drawn from [0, Horizon). CorruptMode
	// fixes the damage mode; zero draws flip/truncate/torn per event.
	StoreCorrupts int
	CorruptMode   CorruptMode
	// CorruptRate corrupts every non-manifest backend blob — dedup
	// blob/… keys and recipes included — whose seeded key hash falls
	// below the rate, each at most once. It is a pure function of
	// (key, seed), so the strike set is deterministic no matter how
	// the store's worker pool interleaves operations.
	CorruptRate float64
	// Events are scripted events appended to the generated timeline.
	Events []Event
}

// CrashError is the typed abort of an injected NodeCrash: the job's
// error chain names the killed rank and its virtual time of death.
// Once multiple jobs share a process, the owning job and scheduler
// node are named too (Job is "" and Node is negative when the injector
// has no placement — the single-job case keeps its historical message).
type CrashError struct {
	Rank int
	VT   time.Duration
	Job  string
	Node int
}

// Error implements the error interface.
func (e *CrashError) Error() string {
	var b strings.Builder
	b.WriteString("faults: node crash: ")
	if e.Job != "" {
		fmt.Fprintf(&b, "job %q ", e.Job)
	}
	fmt.Fprintf(&b, "rank %d", e.Rank)
	if e.Job != "" && e.Node >= 0 {
		fmt.Fprintf(&b, " on node %d", e.Node)
	}
	fmt.Fprintf(&b, " killed at vt=%.6fs", e.VT.Seconds())
	return b.String()
}

// CrashVT reports the killed rank's virtual time. The cluster layer
// detects injected crashes through this method to avoid importing the
// fault package.
func (e *CrashError) CrashVT() time.Duration { return e.VT }

// storeFaultState tracks one faulted blob key's remaining failures.
type storeFaultState struct {
	left      int
	permanent bool
}

// Injector holds a fully precomputed fault timeline plus the small
// amount of consumption state the run mutates. Safe for concurrent use
// by all ranks of a job.
type Injector struct {
	n    int
	plan Plan

	// timeline is every scheduled event, ordered deterministically.
	timeline []Event

	mu sync.Mutex
	// base maps rank-local virtual time to service time: the service
	// loop sets it to the cumulative virtual time of prior attempts
	// before each (re)start.
	base time.Duration
	// crashes is the VT-armed crash schedule (sorted by At); crashIdx
	// is the next unconsumed one.
	crashes  []Event
	crashIdx int
	// jobLabel and nodeOf are the owning job's name and rank-to-node
	// placement (SetPlacement); they label every CrashError. doomed
	// holds collateral kills of a fired node crash: each rank placed on
	// the lost node dies at its own next check.
	jobLabel string
	nodeOf   []int
	doomed   []*CrashError
	// scripted holds step-targeted crashes; consumed entries are nil.
	scripted []*Event
	// stepOf / callsInStep track each rank's current step and wrapper
	// calls within it, for scripted crashes.
	stepOf      []int
	callsInStep []int
	// ctlSent counts droppable control messages per sending rank.
	ctlSent []uint64
	// ctlFaults holds unconsumed control-message events.
	ctlFaults []*Event
	// ctlCtx is the set of registered internal-communicator contexts.
	ctlCtx map[uint32]bool
	// store maps faulted blob keys to their remaining failures.
	store map[string]*storeFaultState
	// corrupt maps blob keys to their scheduled silent corruption;
	// corruptRate is the seeded per-key strike probability; corrupted
	// records the distinct keys struck so far (each at most once).
	corrupt         map[string]*storeCorruptState
	corruptRate     float64
	corruptRateMode CorruptMode
	corrupted       map[string]bool
	// counters for diagnostics and tests.
	firedCrashes int
	droppedCtl   int
	delayedCtl   int
	storeHits    int
}

// NewInjector generates the deterministic fault timeline for an n-rank
// job from the plan's seed.
func NewInjector(n int, p Plan) *Injector {
	if n <= 0 {
		panic(fmt.Sprintf("faults: invalid rank count %d", n))
	}
	p = planDefaults(p)
	rng := rand.New(rand.NewSource(p.Seed))
	inj := &Injector{
		n:           n,
		plan:        p,
		stepOf:      make([]int, n),
		callsInStep: make([]int, n),
		ctlSent:     make([]uint64, n),
		ctlCtx:      make(map[uint32]bool),
		store:       make(map[string]*storeFaultState),
		corrupt:     make(map[string]*storeCorruptState),
		corrupted:   make(map[string]bool),
	}

	// Crash process: exponential inter-arrival with mean MTBF, floored
	// at MTBF/5 so back-to-back crashes always leave room to recover.
	if p.MTBF > 0 {
		at := time.Duration(0)
		for i := 0; i < p.Crashes; i++ {
			gap := time.Duration(rng.ExpFloat64() * float64(p.MTBF))
			if floor := p.MTBF / 5; gap < floor {
				gap = floor
			}
			at += gap
			inj.timeline = append(inj.timeline, Event{
				Kind: NodeCrash, Rank: rng.Intn(n), At: at, Step: -1,
			})
		}
	}
	for i := 0; i < p.Stragglers; i++ {
		inj.timeline = append(inj.timeline, Event{
			Kind:   Straggler,
			Rank:   rng.Intn(n),
			At:     time.Duration(rng.Int63n(int64(p.Horizon))),
			Step:   -1,
			Factor: p.StragglerFactor,
			Window: p.StragglerWindow,
		})
	}
	for i := 0; i < p.CtlDrops; i++ {
		inj.timeline = append(inj.timeline, Event{
			Kind: CtlLoss, Rank: rng.Intn(n), Step: -1,
			Nth: uint64(1 + rng.Intn(p.CtlMaxNth)),
		})
	}
	for i := 0; i < p.CtlDelays; i++ {
		inj.timeline = append(inj.timeline, Event{
			Kind: CtlReorder, Rank: rng.Intn(n), Step: -1,
			Nth: uint64(1 + rng.Intn(p.CtlMaxNth)), Delay: p.CtlDelay,
		})
	}
	for i := 0; i < p.StoreFaults; i++ {
		inj.timeline = append(inj.timeline, Event{
			Kind: StoreFault, Step: -1,
			Key: fmt.Sprintf("gen%04d/rank%02d", rng.Intn(p.StoreMaxGen), rng.Intn(n)),
			Ops: p.StoreOps,
		})
	}
	// Corruption draws come after every older kind so existing seeds
	// keep their exact timelines when no corruption is planned.
	for i := 0; i < p.StoreCorrupts; i++ {
		key := fmt.Sprintf("gen%04d/rank%02d", rng.Intn(p.StoreMaxGen), rng.Intn(n))
		at := time.Duration(rng.Int63n(int64(p.Horizon)))
		mode := p.CorruptMode
		if mode == CorruptNone {
			mode = CorruptMode(1 + rng.Intn(3))
		}
		inj.timeline = append(inj.timeline, Event{
			Kind: StoreCorrupt, Step: -1, Key: key, At: at, Mode: mode,
		})
	}
	if p.CorruptRate > 0 {
		inj.timeline = append(inj.timeline, Event{
			Kind: StoreCorrupt, Step: -1, Factor: p.CorruptRate, Mode: p.CorruptMode,
		})
	}
	inj.timeline = append(inj.timeline, p.Events...)
	inj.index()
	return inj
}

// planDefaults fills unset plan fields.
func planDefaults(p Plan) Plan {
	if p.MTBF > 0 && p.Crashes <= 0 {
		p.Crashes = 64
	}
	if p.StragglerFactor <= 1 {
		p.StragglerFactor = 4
	}
	if p.StragglerWindow <= 0 {
		if p.MTBF > 0 {
			p.StragglerWindow = p.MTBF / 4
		} else {
			p.StragglerWindow = time.Millisecond
		}
	}
	if p.Horizon <= 0 {
		if p.MTBF > 0 {
			p.Horizon = 16 * p.MTBF
		} else {
			p.Horizon = time.Second
		}
	}
	if p.CtlDelay <= 0 {
		p.CtlDelay = time.Millisecond
	}
	if p.CtlMaxNth <= 0 {
		p.CtlMaxNth = 4
	}
	if p.CtlTimeout <= 0 {
		p.CtlTimeout = time.Millisecond
	}
	if p.StoreOps <= 0 {
		p.StoreOps = 2
	}
	if p.StoreMaxGen <= 0 {
		p.StoreMaxGen = 4
	}
	return p
}

// index builds the per-kind consumption structures from the timeline.
func (inj *Injector) index() {
	for i := range inj.timeline {
		ev := &inj.timeline[i]
		switch ev.Kind {
		case NodeCrash:
			if ev.Step >= 0 && !ev.OnNode {
				inj.scripted = append(inj.scripted, ev)
			} else {
				inj.crashes = append(inj.crashes, *ev)
			}
		case CtlLoss, CtlReorder:
			inj.ctlFaults = append(inj.ctlFaults, ev)
		case StoreFault:
			st := inj.store[ev.Key]
			if st == nil {
				st = &storeFaultState{}
				inj.store[ev.Key] = st
			}
			st.left += ev.Ops
			st.permanent = st.permanent || ev.Permanent
		case StoreCorrupt:
			if ev.Key == "" {
				inj.corruptRate = ev.Factor
				inj.corruptRateMode = ev.Mode
			} else {
				inj.corrupt[ev.Key] = &storeCorruptState{mode: ev.Mode, at: ev.At}
			}
		}
	}
	sort.SliceStable(inj.crashes, func(i, j int) bool { return inj.crashes[i].At < inj.crashes[j].At })
}

// Ranks reports the rank count the timeline was generated for.
func (inj *Injector) Ranks() int { return inj.n }

// Plan reports the (defaulted) plan the injector was built from.
func (inj *Injector) Plan() Plan { return inj.plan }

// Timeline renders the full fault schedule, one event per line, in a
// deterministic format: the multi-seed battery asserts byte identity of
// this string across kernels and implementations.
func (inj *Injector) Timeline() string {
	var b strings.Builder
	for _, ev := range inj.timeline {
		switch ev.Kind {
		case NodeCrash:
			switch {
			case ev.OnNode:
				fmt.Fprintf(&b, "crash node=%d at=%.9fs\n", ev.Node, ev.At.Seconds())
			case ev.Step >= 0:
				fmt.Fprintf(&b, "crash rank=%d step=%d call=%d\n", ev.Rank, ev.Step, ev.Call)
			default:
				fmt.Fprintf(&b, "crash rank=%d at=%.9fs\n", ev.Rank, ev.At.Seconds())
			}
		case Straggler:
			fmt.Fprintf(&b, "straggler rank=%d at=%.9fs window=%.9fs factor=%.2f\n",
				ev.Rank, ev.At.Seconds(), ev.Window.Seconds(), ev.Factor)
		case CtlLoss:
			fmt.Fprintf(&b, "ctl-loss src=%d nth=%d\n", ev.Rank, ev.Nth)
		case CtlReorder:
			fmt.Fprintf(&b, "ctl-reorder src=%d nth=%d delay=%.9fs\n", ev.Rank, ev.Nth, ev.Delay.Seconds())
		case StoreFault:
			mode := fmt.Sprintf("ops=%d", ev.Ops)
			if ev.Permanent {
				mode = "permanent"
			}
			fmt.Fprintf(&b, "store-fault key=%s %s\n", ev.Key, mode)
		case StoreCorrupt:
			if ev.Key == "" {
				fmt.Fprintf(&b, "store-corrupt rate=%.6f mode=%s\n", ev.Factor, ev.Mode)
			} else {
				fmt.Fprintf(&b, "store-corrupt key=%s mode=%s at=%.9fs\n", ev.Key, ev.Mode, ev.At.Seconds())
			}
		}
	}
	return b.String()
}

// SetBase maps the next attempt's rank-local clocks to service time:
// the service loop calls it with the cumulative virtual time of all
// prior attempts before starting or restarting a job. Must not be
// called while a job is running.
func (inj *Injector) SetBase(base time.Duration) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	inj.base = base
	for r := range inj.callsInStep {
		inj.stepOf[r], inj.callsInStep[r] = -1, 0
	}
	inj.doomed = nil
}

// SetPlacement names the owning job and pins each rank to a scheduler
// node (nodeOf[rank] = node). Placement is what node-targeted crash
// events fire against, and it labels every CrashError with the job and
// node so multi-job diagnostics are unambiguous. Call before the job
// (re)starts; nil clears the placement.
func (inj *Injector) SetPlacement(job string, nodeOf []int) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	inj.jobLabel = job
	if len(nodeOf) == inj.n {
		inj.nodeOf = nodeOf
	} else {
		inj.nodeOf = nil
	}
	inj.doomed = nil
}

// crashErrLocked builds a CrashError labeled with the injector's job
// and placement. Caller holds inj.mu.
func (inj *Injector) crashErrLocked(rank int, vt time.Duration) *CrashError {
	node := -1
	if inj.nodeOf != nil {
		node = inj.nodeOf[rank]
	}
	return &CrashError{Rank: rank, VT: vt, Job: inj.jobLabel, Node: node}
}

// CtlArmed reports whether any control-message faults are scheduled;
// armed control faults switch the drain protocol to its reliable
// announce/ack exchange with virtual-time retransmission timeouts.
func (inj *Injector) CtlArmed() bool {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return len(inj.ctlFaults) > 0 || inj.droppedCtl > 0 || inj.delayedCtl > 0
}

// CtlResendTimeout is the drain protocol's retransmission timeout.
func (inj *Injector) CtlResendTimeout() time.Duration { return inj.plan.CtlTimeout }

// ---------------------------------------------------------------------
// crash schedule

// StepStart records that rank entered the given application step,
// resetting its wrapper-call ordinal for scripted crashes.
func (inj *Injector) StepStart(rank, step int) {
	inj.mu.Lock()
	inj.stepOf[rank] = step
	inj.callsInStep[rank] = 0
	inj.mu.Unlock()
}

// CheckCall is the per-wrapper-call crash check: it advances rank's
// call ordinal within the current step and returns a *CrashError if a
// scripted or virtual-time crash fires here.
func (inj *Injector) CheckCall(rank int, now time.Duration) error {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	inj.callsInStep[rank]++
	if err := inj.scriptedCrashLocked(rank, now); err != nil {
		return err
	}
	return inj.vtCrashLocked(rank, now)
}

// CheckBoundary is the step-boundary crash check.
func (inj *Injector) CheckBoundary(rank int, now time.Duration) error {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if err := inj.scriptedCrashLocked(rank, now); err != nil {
		return err
	}
	return inj.vtCrashLocked(rank, now)
}

func (inj *Injector) scriptedCrashLocked(rank int, now time.Duration) error {
	for i, ev := range inj.scripted {
		if ev == nil || ev.Rank != rank || ev.Step != inj.stepOf[rank] {
			continue
		}
		if inj.callsInStep[rank] < ev.Call {
			continue
		}
		inj.scripted[i] = nil
		inj.firedCrashes++
		return inj.crashErrLocked(rank, now)
	}
	return nil
}

func (inj *Injector) vtCrashLocked(rank int, now time.Duration) error {
	// A node crash already fired and this rank was placed on the lost
	// node: it dies at its own next check, at its own virtual time.
	if inj.doomed != nil && inj.doomed[rank] != nil {
		err := inj.doomed[rank]
		err.VT = now
		inj.doomed[rank] = nil
		return err
	}
	if inj.crashIdx >= len(inj.crashes) {
		return nil
	}
	next := inj.crashes[inj.crashIdx]
	if next.OnNode {
		// Node-targeted: fires at the first check any rank placed on
		// the node reaches past the arm time; peers on the node are
		// doomed to die at their own next check.
		if inj.nodeOf == nil || inj.nodeOf[rank] != next.Node || inj.base+now < next.At {
			return nil
		}
		inj.crashIdx++
		inj.firedCrashes++
		for r := 0; r < inj.n; r++ {
			if r != rank && inj.nodeOf[r] == next.Node {
				if inj.doomed == nil {
					inj.doomed = make([]*CrashError, inj.n)
				}
				inj.doomed[r] = inj.crashErrLocked(r, now)
			}
		}
		return inj.crashErrLocked(rank, now)
	}
	if next.Rank != rank || inj.base+now < next.At {
		return nil
	}
	inj.crashIdx++
	inj.firedCrashes++
	return inj.crashErrLocked(rank, now)
}

// CrashesFired reports how many crashes have been injected so far.
func (inj *Injector) CrashesFired() int {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.firedCrashes
}

// ---------------------------------------------------------------------
// stragglers

// ApplyStragglers installs rank's straggler windows on its clock,
// translated from service time into the attempt-local time base. Called
// once per rank at job (re)start.
func (inj *Injector) ApplyStragglers(rank int, clock *simtime.Clock) {
	inj.mu.Lock()
	base := inj.base
	inj.mu.Unlock()
	for _, ev := range inj.timeline {
		if ev.Kind != Straggler || ev.Rank != rank {
			continue
		}
		from, until := ev.At-base, ev.At-base+ev.Window
		if until <= 0 {
			continue
		}
		if from < 0 {
			from = 0
		}
		clock.Slow(ev.Factor, from, until)
	}
}

// ---------------------------------------------------------------------
// control-message faults

// RegisterCtlContext marks a communicator context as carrying MANA's
// internal control traffic; the fabric filter only ever touches
// drain-counter messages on registered contexts.
func (inj *Injector) RegisterCtlContext(ctx uint32) {
	inj.mu.Lock()
	inj.ctlCtx[ctx] = true
	inj.mu.Unlock()
}

// AttachFabric installs the injector's control-message filter on the
// job's fabric. Call before the job starts; a no-op unless control
// faults are armed.
func (inj *Injector) AttachFabric(fab *transport.Fabric) {
	if !inj.CtlArmed() {
		return
	}
	fab.SetFaultFilter(inj.filterCtl)
}

// filterCtl drops or delays scheduled drain-counter announcements.
// Only first-transmission announcements (ckpt.TagDrainCounters) on a
// registered internal-communicator context are eligible: the reliable
// drain's retransmissions and acks use distinct tags and always get
// through, which is what lets the recovery protocol terminate.
func (inj *Injector) filterCtl(m *transport.Message) (bool, time.Duration) {
	if m.Tag != ckpt.TagDrainCounters {
		return false, 0
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if !inj.ctlCtx[m.Context] {
		return false, 0
	}
	inj.ctlSent[m.Src]++
	nth := inj.ctlSent[m.Src]
	for i, ev := range inj.ctlFaults {
		if ev == nil || ev.Rank != m.Src || ev.Nth != nth {
			continue
		}
		inj.ctlFaults[i] = nil
		switch ev.Kind {
		case CtlLoss:
			inj.droppedCtl++
			return true, 0
		case CtlReorder:
			inj.delayedCtl++
			return false, ev.Delay
		}
	}
	return false, 0
}

// CtlDropped and CtlDelayed report the injected control-plane effects.
func (inj *Injector) CtlDropped() int {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.droppedCtl
}

// CtlDelayed reports how many control messages were delay-injected.
func (inj *Injector) CtlDelayed() int {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.delayedCtl
}
