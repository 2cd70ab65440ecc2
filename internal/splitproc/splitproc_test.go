package splitproc

import (
	"testing"
	"time"

	"manasim/internal/simtime"
)

func TestCrossingChargesClock(t *testing.T) {
	clock := simtime.NewClock()
	b := New(clock, simtime.Discovery())
	b.Enter()
	b.Leave()
	if b.Crossings() != 2 {
		t.Fatalf("crossings %d", b.Crossings())
	}
	want := 2 * simtime.Discovery().CrossCost
	if clock.Now() != want {
		t.Fatalf("clock %v want %v", clock.Now(), want)
	}
}

func TestFSGSBASECheaperThanPrctl(t *testing.T) {
	cp := simtime.NewClock()
	bp := New(cp, simtime.Discovery())
	cf := simtime.NewClock()
	bf := New(cf, simtime.Perlmutter())
	const calls = 1000
	for i := 0; i < calls; i++ {
		bp.Enter()
		bp.Leave()
		bf.Enter()
		bf.Leave()
	}
	if bp.Crossings() != bf.Crossings() {
		t.Fatalf("crossing counts differ: %d vs %d", bp.Crossings(), bf.Crossings())
	}
	// Figure 4's message: same crossings, far lower cost with FSGSBASE.
	if cf.Now()*5 > cp.Now() {
		t.Fatalf("fsgsbase %v not clearly cheaper than prctl %v", cf.Now(), cp.Now())
	}
}

func TestCostPerCrossing(t *testing.T) {
	clock := simtime.NewClock()
	b := New(clock, simtime.HostProfile{CrossCost: 123 * time.Nanosecond})
	b.Enter()
	if clock.Now() != 123*time.Nanosecond {
		t.Fatalf("one crossing charged %v, want the profile's 123ns", clock.Now())
	}
}
