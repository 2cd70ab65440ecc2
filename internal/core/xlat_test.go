package mana

import (
	"testing"
	"time"

	"manasim/internal/cluster"
	"manasim/internal/mpi"
	"manasim/internal/simtime"
)

// chargedSites is every wrapper site that charges translation cost, by
// its static lookup count.
var chargedSites = map[string]int{
	"Send/Recv/Isend": lookupsP2P,
	"Wait":            lookupsWait,
	"Iprobe":          lookupsIprobe,
	"Allreduce":       lookupsAllreduce,
}

// soloRuntime builds a one-rank MANA runtime outside a session, so a
// test can drive single wrapper calls and read the rank's clock.
func soloRuntime(t *testing.T, cfg Config) *Runtime {
	t.Helper()
	job := cluster.New(1, 0, cfg.Factory, cfg.Host.Net)
	rt, err := NewRuntime(cfg, job.Procs[0], job.Clocks[0], nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestXlatTable(t *testing.T) {
	designs := []Design{DesignVirtID, DesignLegacy}

	// The deprecated override is honoured bit for bit at every site.
	for _, d := range designs {
		const fixed = 77 * time.Nanosecond
		tab := Config{Design: d, FixedXlatCost: fixed}.xlatCosts()
		for site, n := range chargedSites {
			if tab[n] != fixed {
				t.Errorf("%s %s: override charges %v, want %v", d, site, tab[n], fixed)
			}
		}
	}

	// The table proper: base + lookups x perLookup, all positive.
	for _, d := range designs {
		tab := Config{Design: d}.xlatCosts()
		for site, n := range chargedSites {
			want := wrapperBase + time.Duration(n)*perLookup(d)
			if tab[n] != want || tab[n] <= 0 {
				t.Errorf("%s %s: table charges %v, want %v > 0", d, site, tab[n], want)
			}
		}
	}
	if perLookup(DesignLegacy) <= perLookup(DesignVirtID) {
		t.Errorf("legacy lookup %v not dearer than virtid %v", perLookup(DesignLegacy), perLookup(DesignVirtID))
	}
	// The fitted anchor: the harness factors, the host profiles and the
	// benchmark's paper_err_pp were calibrated at 100 ns per p2p call.
	if got := (Config{Design: DesignVirtID}).xlatCosts()[lookupsP2P]; got != 100*time.Nanosecond {
		t.Errorf("two-lookup virtid call costs %v, calibration anchor is 100ns", got)
	}

	// End to end: an Iprobe on an empty mailbox is two crossings plus
	// one single-lookup translation, exactly.
	for _, d := range designs {
		cfg := implFactory(t, "mpich")
		cfg.Design = d
		rt := soloRuntime(t, cfg)
		world, err := rt.LookupConst(mpi.ConstCommWorld)
		if err != nil {
			t.Fatal(err)
		}
		const calls = 1000
		before := rt.clock.Now()
		for i := 0; i < calls; i++ {
			if ok, _, err := rt.Iprobe(mpi.AnySource, mpi.AnyTag, world); err != nil || ok {
				t.Fatalf("Iprobe on an empty mailbox: ok=%v err=%v", ok, err)
			}
		}
		want := calls * (2*cfg.Host.CrossCost + wrapperBase + perLookup(d))
		if got := rt.clock.Now() - before; got != want {
			t.Errorf("%s: %d Iprobes advanced the clock by %v, want exactly %v", d, calls, got, want)
		}
	}
}

// TestWrapperCallCost guards the wrapper hot path with counts: a
// wrapped Iprobe on an empty mailbox allocates nothing, nor does a
// batch of them, and neither does a warmed-up wrapped Isend+Wait on
// the virtid design (the request's vid slot reuses its entry) with the
// Recv that consumes the message, nor a blocking Send and Recv to a
// peer the rank's counter list already holds.
func TestWrapperCallCost(t *testing.T) {
	rt := soloRuntime(t, implFactory(t, "mpich"))
	world, err := rt.LookupConst(mpi.ConstCommWorld)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, _, err := rt.Iprobe(mpi.AnySource, mpi.AnyTag, world); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("wrapped Iprobe allocates %.1f objects per call, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(100, func() {
		if err := rt.Iprobes(100, mpi.AnySource, mpi.AnyTag, world); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("a batch of wrapped Iprobes allocates %.1f objects, want 0", allocs)
	}

	if d := rt.store.DesignName(); d != string(DesignVirtID) {
		t.Fatalf("default design %q, want %q", d, DesignVirtID)
	}
	f64, err := rt.LookupConst(mpi.ConstFloat64)
	if err != nil {
		t.Fatal(err)
	}
	const count = 32
	send, recv := mpi.Float64Bytes(make([]float64, count)), make([]byte, 8*count)
	isendWaitRecv := func() {
		req, err := rt.Isend(send, count, f64, 0, 7, world)
		if err == nil {
			_, err = rt.Wait(req)
		}
		if err == nil {
			_, err = rt.Recv(recv, count, f64, 0, 7, world)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	isendWaitRecv()
	if allocs := testing.AllocsPerRun(1000, isendWaitRecv); allocs != 0 {
		t.Errorf("wrapped Isend+Wait+Recv allocates %.1f objects per call, want 0", allocs)
	}
	sendRecv := func() {
		err := rt.Send(send, count, f64, 0, 8, world)
		if err == nil {
			_, err = rt.Recv(recv, count, f64, 0, 8, world)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(1000, sendRecv); allocs != 0 {
		t.Errorf("wrapped Send+Recv to a known peer allocates %.1f objects per call, want 0", allocs)
	}
	if len(rt.counters) != 1 || rt.counters[0].Sent != rt.counters[0].Recv {
		t.Errorf("counters %v, want one entry for the rank itself, as many sent as received", rt.counters)
	}
}

// TestIprobesBatchCharge: a batch of n discarded Iprobes charges exactly
// n times what one Iprobe charges — virtual time, wrapper calls and
// crossings — on each host profile and vid design, under MANA and
// natively, on MPICH and on ExaMPI (whose lower half charges a resolve
// per probe).
func TestIprobesBatchCharge(t *testing.T) {
	const n = 1000
	for _, host := range []simtime.HostProfile{simtime.Discovery(), simtime.Perlmutter()} {
		for _, implName := range []string{"mpich", "exampi"} {
			for _, design := range []Design{DesignVirtID, DesignLegacy} {
				if design == DesignLegacy && implName != "mpich" {
					continue // the legacy maps assume MPICH-family handles
				}
				cfg := implFactory(t, implName)
				cfg.Host, cfg.Design = host, design
				rt := soloRuntime(t, cfg)
				world, err := rt.LookupConst(mpi.ConstCommWorld)
				if err != nil {
					t.Fatal(err)
				}
				t0 := rt.clock.Now()
				if _, _, err := rt.Iprobe(mpi.AnySource, mpi.AnyTag, world); err != nil {
					t.Fatal(err)
				}
				one := rt.clock.Now() - t0
				t1, c1, x1 := rt.clock.Now(), rt.WrapperCalls(), rt.Boundary().Crossings()
				if err := rt.Iprobes(n, mpi.AnySource, mpi.AnyTag, world); err != nil {
					t.Fatal(err)
				}
				if got := rt.clock.Now() - t1; one <= 0 || got != n*one {
					t.Errorf("%s/%s/%s: a batch of %d charged %v, want %d x %v", host.Name, implName, design, n, got, n, one)
				}
				if calls, crossings := rt.WrapperCalls()-c1, rt.Boundary().Crossings()-x1; calls != n || crossings != 2*n {
					t.Errorf("%s/%s/%s: a batch of %d made %d wrapper calls and %d crossings, want %d and %d",
						host.Name, implName, design, n, calls, crossings, n, 2*n)
				}
			}

			job := cluster.New(1, 0, implFactory(t, implName).Factory, host.Net)
			p, clock := job.Procs[0].(interface {
				mpi.Proc
				Iprobes(n, src, tag int, comm mpi.Handle) error
			}), job.Clocks[0]
			world, err := p.LookupConst(mpi.ConstCommWorld)
			if err != nil {
				t.Fatal(err)
			}
			t0 := clock.Now()
			if _, _, err := p.Iprobe(mpi.AnySource, mpi.AnyTag, world); err != nil {
				t.Fatal(err)
			}
			one, t1 := clock.Now()-t0, clock.Now()
			if err := p.Iprobes(n, mpi.AnySource, mpi.AnyTag, world); err != nil {
				t.Fatal(err)
			}
			if got := clock.Now() - t1; got != n*one {
				t.Errorf("%s/%s/native: a batch of %d charged %v, want %d x %v", host.Name, implName, n, got, n, one)
			}
		}
	}
}
