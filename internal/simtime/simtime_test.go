package simtime

import (
	"testing"
	"testing/quick"
	"time"
)

func TestClockMonotone(t *testing.T) {
	c := NewClock()
	c.Advance(5 * time.Millisecond)
	if c.Now() != 5*time.Millisecond {
		t.Fatalf("Now = %v", c.Now())
	}
	c.Advance(-time.Second) // ignored
	if c.Now() != 5*time.Millisecond {
		t.Fatalf("negative advance moved the clock: %v", c.Now())
	}
	c.MergeAtLeast(time.Millisecond) // earlier, ignored
	if c.Now() != 5*time.Millisecond {
		t.Fatalf("MergeAtLeast moved the clock backwards: %v", c.Now())
	}
	c.MergeAtLeast(9 * time.Millisecond)
	if c.Now() != 9*time.Millisecond {
		t.Fatalf("MergeAtLeast did not advance: %v", c.Now())
	}
}

func TestClockMonotoneProperty(t *testing.T) {
	// Property: any interleaving of Advance and MergeAtLeast never
	// decreases the clock.
	f := func(steps []int64) bool {
		c := NewClock()
		prev := time.Duration(0)
		for i, s := range steps {
			d := time.Duration(s % int64(time.Second))
			if i%2 == 0 {
				c.Advance(d)
			} else {
				c.MergeAtLeast(d)
			}
			if c.Now() < prev {
				return false
			}
			prev = c.Now()
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTransferCost(t *testing.T) {
	m := NetModel{Latency: 10 * time.Microsecond, Overhead: time.Microsecond, PerKB: 1024 * time.Nanosecond}
	if got := m.TransferCost(0); got != 11*time.Microsecond {
		t.Fatalf("zero-byte cost %v", got)
	}
	// 1 KiB at 1024ns/KB adds ~1024ns.
	if got := m.TransferCost(1024); got != 11*time.Microsecond+1024*time.Nanosecond {
		t.Fatalf("1KiB cost %v", got)
	}
	if got := m.TransferCost(-5); got != m.TransferCost(0) {
		t.Fatalf("negative size cost %v", got)
	}
}

func TestTransferCostMonotoneInSize(t *testing.T) {
	m := Discovery().Net
	f := func(a, b uint16) bool {
		x, y := int(a), int(b)
		if x > y {
			x, y = y, x
		}
		return m.TransferCost(x) <= m.TransferCost(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHostProfiles(t *testing.T) {
	d := Discovery()
	p := Perlmutter()
	// The entire point of Figure 4: crossing with userspace FSGSBASE on
	// Perlmutter is at least several times cheaper than Discovery's
	// prctl system call (paper §6: Linux 3.10).
	if p.CrossCost*5 > d.CrossCost {
		t.Errorf("FSGSBASE crossing (%v) not clearly cheaper than prctl (%v)", p.CrossCost, d.CrossCost)
	}
	// Slingshot beats TCP on both latency and bandwidth.
	if p.Net.Latency >= d.Net.Latency || p.Net.PerKB >= d.Net.PerKB {
		t.Errorf("Perlmutter network not faster than Discovery: %+v vs %+v", p.Net, d.Net)
	}
	if d.CoresPerNode != 56 || p.CoresPerNode != 64 {
		t.Errorf("cores per node: %d, %d (want 56, 64 per Tables 1-2)", d.CoresPerNode, p.CoresPerNode)
	}
}
