package faults

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"manasim/internal/simtime"
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
	// Rank is the target rank (crash, straggler). Unused for store
	// faults.
	Rank int
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
// verbatim (step-targeted crashes, keyed store faults and
// corruptions).
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
	// plan's horizon (16*MTBF, or 1s without an MTBF), each slowing its
	// rank by StragglerFactor for StragglerWindow().
	Stragglers int
	// StoreFaults schedules transient Put/Get failures on that many
	// generation blob keys drawn from generations [0, StoreMaxGen)
	// (default 4); each faulted key fails storeFaultOps times.
	StoreFaults int
	StoreMaxGen int
	// CorruptRate corrupts every non-manifest backend blob — dedup
	// blob/… keys and recipes included — whose seeded key hash falls
	// below the rate, each at most once, drawing the damage mode per
	// key. It is a pure function of (key, seed), so the strike set is
	// deterministic no matter how callers sharing a store interleave
	// operations.
	CorruptRate float64
	// Events are scripted events appended to the generated timeline.
	Events []Event
}

// StragglerFactor is how many times as much a straggler window's
// charges cost.
const StragglerFactor = 4.0

// storeFaultOps is how many operations on a generated StoreFault key
// fail.
const storeFaultOps = 2

// StragglerWindow is how long each generated straggler window lasts:
// MTBF/4, or 1ms without an MTBF.
func (p Plan) StragglerWindow() time.Duration {
	if p.MTBF > 0 {
		return p.MTBF / 4
	}
	return time.Millisecond
}

// horizon is the service virtual time the straggler schedule is spread
// over.
func (p Plan) horizon() time.Duration {
	if p.MTBF > 0 {
		return 16 * p.MTBF
	}
	return time.Second
}

// CrashError is the typed abort of an injected NodeCrash: the job's
// error chain names the killed rank and its virtual time of death.
// Once multiple jobs share a process, the owning job is named too (Job
// is "" when the injector has no label — the single-job case keeps its
// historical message).
type CrashError struct {
	Rank int
	VT   time.Duration
	Job  string
}

// Error implements the error interface.
func (e *CrashError) Error() string {
	var b strings.Builder
	b.WriteString("faults: node crash: ")
	if e.Job != "" {
		fmt.Fprintf(&b, "job %q ", e.Job)
	}
	fmt.Fprintf(&b, "rank %d killed at vt=%.6fs", e.Rank, e.VT.Seconds())
	return b.String()
}

// storeFaultState tracks one faulted blob key's remaining failures.
type storeFaultState struct {
	left      int
	permanent bool
}

// Injector holds a fully precomputed fault timeline plus the small
// amount of consumption state the run mutates. It holds no lock: it has
// one caller at a time — the rank holding the kernel's execution token
// (the wrapper-call and boundary checks, the store decorator under a
// rank's commit) or the goroutine that owns the job between runs — and
// the kernel's coroutine switch orders each caller after the last.
type Injector struct {
	plan Plan

	// timeline is every scheduled event, ordered deterministically.
	timeline []Event

	// base maps rank-local virtual time to service time: the service
	// loop sets it to the cumulative virtual time of prior attempts
	// before each (re)start.
	base time.Duration
	// crashes is the VT-armed crash schedule (sorted by At); crashIdx
	// is the next unconsumed one.
	crashes  []Event
	crashIdx int
	// jobLabel is the owning job's name (SetJobLabel); it labels every
	// CrashError.
	jobLabel string
	// scripted holds step-targeted crashes; consumed entries are nil.
	scripted []*Event
	// stepOf / callsInStep track each rank's current step and wrapper
	// calls within it, for scripted crashes.
	stepOf      []int
	callsInStep []int
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
		plan:        p,
		stepOf:      make([]int, n),
		callsInStep: make([]int, n),
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
			At:     time.Duration(rng.Int63n(int64(p.horizon()))),
			Step:   -1,
			Factor: StragglerFactor,
			Window: p.StragglerWindow(),
		})
	}
	for i := 0; i < p.StoreFaults; i++ {
		inj.timeline = append(inj.timeline, Event{
			Kind: StoreFault, Step: -1,
			Key: fmt.Sprintf("gen%04d/rank%02d", rng.Intn(p.StoreMaxGen), rng.Intn(n)),
			Ops: storeFaultOps,
		})
	}
	if p.CorruptRate > 0 {
		inj.timeline = append(inj.timeline, Event{
			Kind: StoreCorrupt, Step: -1, Factor: p.CorruptRate,
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
			if ev.Step >= 0 {
				inj.scripted = append(inj.scripted, ev)
			} else {
				inj.crashes = append(inj.crashes, *ev)
			}
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

// Plan reports the (defaulted) plan the injector was built from.
func (inj *Injector) Plan() Plan { return inj.plan }

// SetBase maps the next attempt's rank-local clocks to service time:
// the service loop calls it with the cumulative virtual time of all
// prior attempts before starting or restarting a job. Must not be
// called while a job is running.
func (inj *Injector) SetBase(base time.Duration) {
	inj.base = base
	for r := range inj.callsInStep {
		inj.stepOf[r], inj.callsInStep[r] = -1, 0
	}
}

// SetJobLabel names the owning job, so every CrashError says which job
// it killed when several share a process. Call before the job
// (re)starts.
func (inj *Injector) SetJobLabel(job string) {
	inj.jobLabel = job
}

// crashErr builds a CrashError labeled with the injector's job.
func (inj *Injector) crashErr(rank int, vt time.Duration) *CrashError {
	return &CrashError{Rank: rank, VT: vt, Job: inj.jobLabel}
}

// ---------------------------------------------------------------------
// crash schedule

// StepStart records that rank entered the given application step,
// resetting its wrapper-call ordinal for scripted crashes.
func (inj *Injector) StepStart(rank, step int) {
	inj.stepOf[rank] = step
	inj.callsInStep[rank] = 0
}

// CheckCall is the per-wrapper-call crash check: it advances rank's
// call ordinal within the current step and returns a *CrashError if a
// scripted or virtual-time crash fires here.
func (inj *Injector) CheckCall(rank int, now time.Duration) error {
	inj.callsInStep[rank]++
	if err := inj.scriptedCrash(rank, now); err != nil {
		return err
	}
	return inj.vtCrash(rank, now)
}

// CheckBoundary is the step-boundary crash check.
func (inj *Injector) CheckBoundary(rank int, now time.Duration) error {
	if err := inj.scriptedCrash(rank, now); err != nil {
		return err
	}
	return inj.vtCrash(rank, now)
}

func (inj *Injector) scriptedCrash(rank int, now time.Duration) error {
	for i, ev := range inj.scripted {
		if ev == nil || ev.Rank != rank || ev.Step != inj.stepOf[rank] {
			continue
		}
		if inj.callsInStep[rank] < ev.Call {
			continue
		}
		inj.scripted[i] = nil
		inj.firedCrashes++
		return inj.crashErr(rank, now)
	}
	return nil
}

func (inj *Injector) vtCrash(rank int, now time.Duration) error {
	if inj.crashIdx >= len(inj.crashes) {
		return nil
	}
	next := inj.crashes[inj.crashIdx]
	if next.Rank != rank || inj.base+now < next.At {
		return nil
	}
	inj.crashIdx++
	inj.firedCrashes++
	return inj.crashErr(rank, now)
}

// NextCrash is rank's crash horizon. calls is how many wrapper calls
// from now its next scripted crash of the current step fires at (the
// calls-th CheckCall; math.MaxInt if none is due), and at is the
// rank-local virtual time from which a CheckCall fires the next crash
// of the virtual-time schedule, simtime.Never while that crash is
// another rank's. CheckCall fires nothing before both, so a caller can
// count calls ahead of them with SkipCalls.
func (inj *Injector) NextCrash(rank int) (calls int, at time.Duration) {
	calls, at = math.MaxInt, simtime.Never
	for _, ev := range inj.scripted {
		if ev != nil && ev.Rank == rank && ev.Step == inj.stepOf[rank] {
			calls = min(calls, ev.Call-inj.callsInStep[rank])
		}
	}
	if inj.crashIdx < len(inj.crashes) && inj.crashes[inj.crashIdx].Rank == rank {
		at = inj.crashes[inj.crashIdx].At - inj.base
	}
	return calls, at
}

// SkipCalls counts n wrapper calls of rank that NextCrash showed fire
// nothing, as n CheckCalls would.
func (inj *Injector) SkipCalls(rank, n int) { inj.callsInStep[rank] += n }

// CrashesFired reports how many crashes have been injected so far.
func (inj *Injector) CrashesFired() int {
	return inj.firedCrashes
}

// ---------------------------------------------------------------------
// stragglers

// ApplyStragglers installs rank's straggler windows on its clock,
// translated from service time into the attempt-local time base. Called
// once per rank at job (re)start.
func (inj *Injector) ApplyStragglers(rank int, clock *simtime.Clock) {
	base := inj.base
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
