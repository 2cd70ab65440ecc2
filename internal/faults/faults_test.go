package faults

import (
	"errors"
	"testing"
	"time"

	"manasim/internal/ckptstore"
	"manasim/internal/simtime"
)

// TestTimelineDeterminism: the rendered timeline is a pure function of
// (ranks, plan) — same seed, same bytes; different seed, different
// schedule. The multi-seed battery in internal/core builds on this.
func TestTimelineDeterminism(t *testing.T) {
	plan := Plan{
		Seed: 7, MTBF: 10 * time.Millisecond, Crashes: 8,
		Stragglers: 3, CtlDrops: 2, CtlDelays: 2, StoreFaults: 2,
	}
	a := NewInjector(8, plan).Timeline()
	b := NewInjector(8, plan).Timeline()
	if a != b {
		t.Fatalf("same seed produced different timelines:\n%s\nvs\n%s", a, b)
	}
	if a == "" {
		t.Fatal("timeline is empty")
	}
	plan.Seed = 8
	if c := NewInjector(8, plan).Timeline(); c == a {
		t.Fatal("different seeds produced identical timelines")
	}
}

// TestCrashSchedule: the generated crash process respects the plan — the
// requested number of events, sorted arrival times, inter-arrival gaps
// floored at MTBF/5, and ranks within range.
func TestCrashSchedule(t *testing.T) {
	const n, crashes = 4, 16
	mtbf := 20 * time.Millisecond
	inj := NewInjector(n, Plan{Seed: 3, MTBF: mtbf, Crashes: crashes})
	if len(inj.crashes) != crashes {
		t.Fatalf("scheduled %d crashes, want %d", len(inj.crashes), crashes)
	}
	prev := time.Duration(0)
	for i, ev := range inj.crashes {
		if ev.Kind != NodeCrash {
			t.Fatalf("crash %d has kind %v", i, ev.Kind)
		}
		if ev.Rank < 0 || ev.Rank >= n {
			t.Fatalf("crash %d targets rank %d of %d", i, ev.Rank, n)
		}
		if gap := ev.At - prev; gap < mtbf/5 {
			t.Fatalf("crash %d gap %v below floor %v", i, gap, mtbf/5)
		}
		prev = ev.At
	}
}

// TestVTCrashFiresOnTargetRank: a virtual-time crash fires on its target
// rank once the rank's service time passes the arrival, not on other
// ranks, and only once.
func TestVTCrashFiresOnTargetRank(t *testing.T) {
	inj := NewInjector(2, Plan{Events: []Event{
		{Kind: NodeCrash, Rank: 1, At: 5 * time.Millisecond, Step: -1},
	}})
	if err := inj.CheckCall(0, 10*time.Millisecond); err != nil {
		t.Fatalf("crash fired on wrong rank: %v", err)
	}
	if err := inj.CheckCall(1, 4*time.Millisecond); err != nil {
		t.Fatalf("crash fired early: %v", err)
	}
	err := inj.CheckCall(1, 5*time.Millisecond)
	var ce *CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("expected CrashError, got %v", err)
	}
	if ce.Rank != 1 || ce.VT != 5*time.Millisecond {
		t.Fatalf("crash error %+v", ce)
	}
	if err := inj.CheckCall(1, 6*time.Millisecond); err != nil {
		t.Fatalf("crash fired twice: %v", err)
	}
	if inj.CrashesFired() != 1 {
		t.Fatalf("CrashesFired = %d, want 1", inj.CrashesFired())
	}
}

// TestVTCrashServiceBase: SetBase maps attempt-local clocks onto service
// time, so a crash scheduled deep into the service horizon fires in a
// later attempt whose local clock starts over at zero.
func TestVTCrashServiceBase(t *testing.T) {
	inj := NewInjector(1, Plan{Events: []Event{
		{Kind: NodeCrash, Rank: 0, At: 30 * time.Millisecond, Step: -1},
	}})
	if err := inj.CheckBoundary(0, 20*time.Millisecond); err != nil {
		t.Fatalf("crash fired in first attempt: %v", err)
	}
	inj.SetBase(20 * time.Millisecond)
	if err := inj.CheckBoundary(0, 9*time.Millisecond); err != nil {
		t.Fatalf("crash fired before service time reached it: %v", err)
	}
	err := inj.CheckBoundary(0, 10*time.Millisecond)
	var ce *CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("expected CrashError at service time 30ms, got %v", err)
	}
	// The error carries the attempt-local time of death; the service
	// loop charges it against the attempt.
	if ce.VT != 10*time.Millisecond {
		t.Fatalf("crash VT %v, want attempt-local 10ms", ce.VT)
	}
}

// TestScriptedCrash: a step/call-targeted crash fires at exactly the
// scripted wrapper call of the scripted step, independent of virtual
// time.
func TestScriptedCrash(t *testing.T) {
	inj := NewInjector(2, Plan{Events: []Event{
		{Kind: NodeCrash, Rank: 0, Step: 2, Call: 3},
	}})
	now := time.Duration(0)
	for step := 0; step < 4; step++ {
		inj.StepStart(0, step)
		inj.StepStart(1, step)
		if err := inj.CheckBoundary(0, now); err != nil {
			t.Fatalf("step %d boundary: %v", step, err)
		}
		for call := 1; call <= 4; call++ {
			now += time.Millisecond
			if err := inj.CheckCall(1, now); err != nil {
				t.Fatalf("bystander rank crashed: %v", err)
			}
			err := inj.CheckCall(0, now)
			if step == 2 && call == 3 {
				var ce *CrashError
				if !errors.As(err, &ce) || ce.Rank != 0 {
					t.Fatalf("scripted crash did not fire at step 2 call 3: %v", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("crash fired early at step %d call %d: %v", step, call, err)
			}
		}
	}
	t.Fatal("scripted crash never fired")
}

// TestStragglerClock: ApplyStragglers installs the window on the target
// rank's clock, translated by the service base, and the slowed charge
// shows up as a larger advance.
func TestStragglerClock(t *testing.T) {
	inj := NewInjector(2, Plan{Events: []Event{
		{Kind: Straggler, Rank: 1, At: 0, Window: time.Second, Factor: 4, Step: -1},
	}})
	fast, slow := simtime.NewClock(), simtime.NewClock()
	inj.ApplyStragglers(0, fast)
	inj.ApplyStragglers(1, slow)
	fast.Advance(time.Millisecond)
	slow.Advance(time.Millisecond)
	if got := slow.Now(); got != 4*fast.Now() {
		t.Fatalf("straggler advance %v, want 4x %v", got, fast.Now())
	}
}

// TestStoreFaultBackend: the WrapBackend decorator fails the scheduled
// key transiently Ops times, then recovers; permanent faults never
// recover; unfaulted keys pass through untouched.
func TestStoreFaultBackend(t *testing.T) {
	inj := NewInjector(2, Plan{Events: []Event{
		{Kind: StoreFault, Key: "gen0000/rank00", Ops: 2, Step: -1},
		{Kind: StoreFault, Key: "manifest", Permanent: true, Step: -1},
	}})
	wrap := inj.WrapBackend()
	if wrap == nil {
		t.Fatal("WrapBackend returned nil with store faults armed")
	}
	mem, err := ckptstore.NewBackend("mem", ckptstore.BackendConfig{})
	if err != nil {
		t.Fatal(err)
	}
	b := wrap(mem)

	for i := 0; i < 2; i++ {
		err := b.Put("gen0000/rank00", []byte("x"))
		var se *StoreError
		if !errors.As(err, &se) || !se.Transient() {
			t.Fatalf("transient fault %d: %v", i, err)
		}
	}
	if err := b.Put("gen0000/rank00", []byte("x")); err != nil {
		t.Fatalf("faulted key did not recover after Ops failures: %v", err)
	}

	for i := 0; i < 3; i++ {
		err := b.Put("manifest", []byte("m"))
		var se *StoreError
		if !errors.As(err, &se) || se.Transient() {
			t.Fatalf("permanent fault %d not permanent: %v", i, err)
		}
	}

	if err := b.Put("gen0001/rank00", []byte("y")); err != nil {
		t.Fatalf("unfaulted key failed: %v", err)
	}
	if _, err := b.Get("gen0001/rank00"); err != nil {
		t.Fatalf("unfaulted get failed: %v", err)
	}
	if inj.StoreFaultsHit() != 5 {
		t.Fatalf("StoreFaultsHit = %d, want 5", inj.StoreFaultsHit())
	}
}

// TestNoFaultsNoWrap: an injector without store faults must not decorate
// the backend at all.
func TestNoFaultsNoWrap(t *testing.T) {
	if wrap := NewInjector(2, Plan{MTBF: time.Millisecond}).WrapBackend(); wrap != nil {
		t.Fatal("WrapBackend armed without store faults")
	}
}
