// Package simtime provides virtual-time accounting for the MANA simulator.
//
// Every MPI rank in a simulated job owns a Clock. The clock does not tick on
// its own: application compute phases, split-process boundary crossings,
// network transfers, and filesystem writes each advance it by a modeled
// amount — never by a host-clock reading. A message carries the sender's virtual timestamp, and a
// receive completes at
//
//	max(receiver clock, sender timestamp + network cost)
//
// which propagates causality exactly like a conservative discrete-event
// simulation, without any global synchronization: the real goroutine
// blocking of channel-based message passing already enforces ordering, so
// virtual time is pure accounting.
//
// Job "runtime" as reported by the harness is the maximum clock value over
// all ranks at job completion, mirroring how the paper times jobs with
// sbatch and the date utility (outside the application).
package simtime

import (
	"fmt"
	"math"
	"time"
)

// Never is the horizon of something that does not come.
const Never = time.Duration(math.MaxInt64)

// Clock is a per-rank virtual clock. A Clock is owned by a single rank
// goroutine; it is not safe for concurrent use. (Coordinator code reads
// final values only after rank goroutines have finished.)
type Clock struct {
	now  time.Duration
	slow []slowWindow
}

// slowWindow scales Advance charges that begin inside [from, until).
type slowWindow struct {
	factor      float64
	from, until time.Duration
}

// NewClock returns a clock at virtual time zero.
func NewClock() *Clock { return &Clock{} }

// Now returns the current virtual time.
func (c *Clock) Now() time.Duration { return c.now }

// Slow installs a straggler window: any Advance charge that begins
// while the clock is inside [from, until) costs factor times as much.
// The window scales charged work (compute, translation, crossings) but
// never MergeAtLeast — a straggling node runs slowly, it does not slow
// messages already on the wire. Factors at or below 1 are ignored.
func (c *Clock) Slow(factor float64, from, until time.Duration) {
	if factor <= 1 || until <= from {
		return
	}
	c.slow = append(c.slow, slowWindow{factor: factor, from: from, until: until})
}

// Advance moves the clock forward by d — scaled up by an active
// straggler window, if any. Negative d is ignored: virtual time is
// monotone.
func (c *Clock) Advance(d time.Duration) { c.now += c.Cost(d) }

// Cost is what Advance(d) charges now: d, or trunc(d × factor) while
// the clock is inside a straggler window, and 0 for d ≤ 0.
func (c *Clock) Cost(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	for _, w := range c.slow {
		if c.now >= w.from && c.now < w.until {
			return time.Duration(float64(d) * w.factor)
		}
	}
	return d
}

// Horizon is the next straggler-window edge after now, or Never. Every
// charge that begins before it costs what Cost says now, so a run of
// identical charges that ends by it is one advance of their sum.
func (c *Clock) Horizon() time.Duration {
	h := Never
	for _, w := range c.slow {
		if w.from > c.now {
			h = min(h, w.from)
		}
		if w.until > c.now {
			h = min(h, w.until)
		}
	}
	return h
}

// MergeAtLeast sets the clock to t if t is later than the current virtual
// time. It is used when a receive completes: the receiver cannot observe a
// message before the sender's timestamp plus transfer cost.
func (c *Clock) MergeAtLeast(t time.Duration) {
	if t > c.now {
		c.now = t
	}
}

// String formats the clock's time with millisecond precision.
func (c *Clock) String() string {
	return fmt.Sprintf("vt=%.3fs", c.now.Seconds())
}

// NetModel is a LogGP-style point-to-point network cost model.
//
// The cost charged to a message of n bytes is
//
//	Latency + Overhead + n * PerKB / 1024
//
// where PerKB is the inverse bandwidth expressed as time per kilobyte
// (G in LogGP terms) and Overhead is the per-message CPU cost (o).
// Collectives are built from point-to-point messages in the MPI engine,
// so no separate collective model is needed: log-tree propagation emerges
// from the algorithms.
type NetModel struct {
	// Latency is the one-way wire latency (alpha).
	Latency time.Duration
	// Overhead is the per-message send/receive CPU overhead (o).
	Overhead time.Duration
	// PerKB is the time per 1024 payload bytes (inverse bandwidth).
	PerKB time.Duration
}

// TransferCost returns the modeled transfer time for a message of n bytes.
func (m NetModel) TransferCost(n int) time.Duration {
	if n < 0 {
		n = 0
	}
	return m.Latency + m.Overhead + time.Duration(n)*m.PerKB/1024
}

// HostProfile bundles the site-specific cost constants used by an
// experiment: the network model and the split-process crossing cost.
// Two canonical profiles reproduce the paper's two sites.
type HostProfile struct {
	// Name identifies the site ("discovery", "perlmutter", ...).
	Name string
	// Net is the interconnect model (TCP for Discovery, Slingshot for
	// Perlmutter).
	Net NetModel
	// CrossCost is the virtual time charged per boundary crossing
	// (two crossings per wrapped MPI call: enter and leave): a prctl
	// system call on a host without userspace FSGSBASE, a single
	// unprivileged instruction on one with it (paper Sections 6.3-6.4).
	CrossCost time.Duration
}

// Discovery returns the profile of the paper's local cluster: Linux 3.10
// without userspace FSGSBASE (prctl switching), TCP interconnect,
// dual-socket Cascade Lake nodes with 56 cores.
//
// The prctl crossing cost is calibrated from the paper's Section 6.1/6.3
// data: LAMMPS makes ~409 k lower-half crossings per rank-second
// (22.9 M CS/s over 56 ranks) and shows ~32% runtime overhead under
// MANA/MPICH, implying ~750 ns per crossing including cache pollution.
func Discovery() HostProfile {
	return HostProfile{
		Name: "discovery",
		Net: NetModel{
			Latency:  18 * time.Microsecond, // TCP over 10GbE
			Overhead: 2 * time.Microsecond,
			PerKB:    1 * time.Microsecond, // ~1 GB/s effective
		},
		CrossCost: 650 * time.Nanosecond,
	}
}

// Perlmutter returns the profile of the production system: Linux 5.14
// with userspace FSGSBASE, Slingshot interconnect, dual-socket EPYC 7763
// nodes. The FSGSBASE crossing cost is calibrated from the paper's
// Figure 4 (~5.4% overhead for LAMMPS at its very high call rate).
func Perlmutter() HostProfile {
	return HostProfile{
		Name: "perlmutter",
		Net: NetModel{
			Latency:  2 * time.Microsecond, // Slingshot-11
			Overhead: 400 * time.Nanosecond,
			PerKB:    45 * time.Nanosecond, // ~22 GB/s effective
		},
		CrossCost: 40 * time.Nanosecond,
	}
}
