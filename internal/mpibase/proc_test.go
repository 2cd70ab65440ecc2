package mpibase

import (
	"testing"
	"time"

	"manasim/internal/simtime"
)

// TestChargeResolvesClosedForm: n resolve charges cost what n
// chargeResolves cost, straggler window included, and take one step
// per window edge inside the run, none without one.
func TestChargeResolvesClosedForm(t *testing.T) {
	const n, r = 1000, 5 * time.Microsecond
	newProc := func() *Proc {
		p := &Proc{Eng: &Engine{Clock: simtime.NewClock()}}
		p.SetResolveCost(r, 0)
		p.Eng.Clock.Slow(1.3717, 10*r+r/2, 700*r+r/3)
		return p
	}
	batch, loop := newProc(), newProc()
	if slow := batch.chargeResolves(n); slow != 2 {
		t.Errorf("%d charges one by one, want 2: one per window edge", slow)
	}
	for range n {
		loop.chargeResolve()
	}
	if got, want := batch.Eng.Clock.Now(), loop.Eng.Clock.Now(); got != want {
		t.Errorf("batch charged %v, %d chargeResolves %v", got, n, want)
	}
	p := &Proc{Eng: &Engine{Clock: simtime.NewClock()}}
	p.SetResolveCost(r, 0)
	if slow := p.chargeResolves(n); slow != 0 || p.Eng.Clock.Now() != n*r {
		t.Errorf("no window: %d charges one by one to %v, want 0 to %v", slow, p.Eng.Clock.Now(), n*r)
	}
}
