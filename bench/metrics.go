package main

import "sort"

// metricDef describes one metric the benchmark prints.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// endToEnd marks the 13 metrics a user of the system sees; the rest
	// are single-layer metrics from the traced run and the isolated
	// drivers.
	endToEnd bool
	// exact marks metrics on the virtual clock or counted by the
	// simulator: pure functions of (commit, seed), compared bit for bit.
	exact bool
	// absBound, in the metric's own unit, is how much worse an exact
	// metric may read before -compare calls it a regression. The relative
	// bounds of the host-clock metrics are in BENCHMARK.json and nowhere
	// else.
	absBound float64
	// on lists the workloads the metric applies to; nil means all four.
	on []string
}

func (d metricDef) appliesTo(workload string) bool {
	if d.on == nil {
		return true
	}
	for _, w := range d.on {
		if w == workload {
			return true
		}
	}
	return false
}

const (
	wWrap    = "wrap-lammps"
	wCkpt    = "ckpt-hpcg"
	wRestart = "restart-chain"
	wDrain   = "drain-256"
)

func on(w ...string) []string { return w }

// catalog lists every metric, end-to-end first.
//
// BENCHMARK.json, the benchmark driver's view, splits it differently. Its
// end_to_end holds the five host-clock metrics: the driver wants every
// end-to-end metric from every workload, never 0, and rejects a time
// that reads the same on every run — which a virtual-clock metric, a pure
// function of (commit, seed), does by design. The eight others sit with
// the layer metrics under its per_layer, where the driver wants every
// metric from every workload too: printDriverLine prints 0 for one that
// does not apply (appliesTo says which), and that 0 means "not
// measured", not "best possible". The program's own report and -compare
// leave such a metric out.
var catalog = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", endToEnd: true},
	{name: "iter_wall_ms", unit: "ms", better: "lower", endToEnd: true},
	{name: "allocs_per_iter", unit: "count", better: "lower", endToEnd: true},
	{name: "alloc_mb_per_iter", unit: "MB", better: "lower", endToEnd: true},
	{name: "peak_rss_mb", unit: "MB", better: "lower", endToEnd: true},
	{name: "vt_job_s", unit: "s", better: "lower", endToEnd: true, exact: true},
	{name: "fail_ratio", unit: "ratio", better: "lower", endToEnd: true, exact: true},
	{name: "vt_overhead_pct", unit: "%", better: "lower", endToEnd: true, exact: true, on: on(wWrap, wCkpt)},
	{name: "vt_ckpt_s", unit: "s", better: "lower", endToEnd: true, exact: true, on: on(wCkpt, wDrain)},
	{name: "vt_restart_s", unit: "s", better: "lower", endToEnd: true, exact: true, on: on(wCkpt, wRestart)},
	{name: "stored_mb", unit: "MB", better: "lower", endToEnd: true, exact: true, on: on(wCkpt, wRestart)},
	{name: "ctl_msgs", unit: "count", better: "lower", endToEnd: true, exact: true, on: on(wCkpt, wDrain)},
	{name: "paper_err_pp", unit: "pp", better: "lower", endToEnd: true, exact: true, absBound: 1, on: on(wWrap)},

	{name: "apps.step_self_ms", unit: "ms", better: "lower"},
	{name: "apps.snapshot_ms", unit: "ms", better: "lower", on: on(wCkpt, wDrain)},
	{name: "apps.snapshot_mb", unit: "MB", better: "lower", on: on(wCkpt, wDrain)},
	{name: "apps.restore_ms", unit: "ms", better: "lower", on: on(wCkpt, wRestart)},

	{name: "core.upper_calls", unit: "count", better: "lower", exact: true, on: on(wWrap)},
	{name: "core.upper_self_ms", unit: "ms", better: "lower"},
	{name: "core.upper_ns_per_call", unit: "ns", better: "lower", on: on(wWrap)},
	{name: "core.overhead_mpich_pct", unit: "%", better: "lower", exact: true, on: on(wWrap)},
	{name: "core.overhead_craympi_pct", unit: "%", better: "lower", exact: true, on: on(wWrap)},
	{name: "core.restart_open_ms", unit: "ms", better: "lower", on: on(wCkpt, wRestart)},

	{name: "splitproc.crossings", unit: "count", better: "lower", exact: true, on: on(wWrap)},
	{name: "splitproc.crossings_per_call", unit: "ratio", better: "lower", exact: true, on: on(wWrap)},
	{name: "splitproc.crossing_vt_ms", unit: "ms", better: "lower", exact: true, on: on(wWrap)},

	{name: "vid.phys_ns_per_op", unit: "ns", better: "lower", on: on(wWrap)},
	{name: "vid.virt_ns_per_op", unit: "ns", better: "lower", on: on(wWrap)},
	{name: "vid.add_ns_per_op", unit: "ns", better: "lower", on: on(wWrap)},
	{name: "vid.restore_ms", unit: "ms", better: "lower", on: on(wRestart)},

	{name: "mpibase.calls", unit: "count", better: "lower"},
	{name: "mpibase.p2p_calls", unit: "count", better: "lower"},
	{name: "mpibase.coll_calls", unit: "count", better: "lower"},
	{name: "mpibase.probe_calls", unit: "count", better: "lower"},
	{name: "mpibase.payload_mb", unit: "MB", better: "lower"},
	{name: "mpibase.self_ms", unit: "ms", better: "lower"},
	{name: "mpibase.ns_per_call", unit: "ns", better: "lower"},

	{name: "transport.ns_per_msg_r8", unit: "ns", better: "lower", on: on(wWrap)},
	{name: "transport.ns_per_msg_r256", unit: "ns", better: "lower", on: on(wDrain)},
	{name: "transport.allocs_per_msg", unit: "count", better: "lower", on: on(wWrap, wDrain)},

	{name: "kernel.ns_per_event_r8", unit: "ns", better: "lower", on: on(wWrap)},
	{name: "kernel.ns_per_event_r256", unit: "ns", better: "lower", on: on(wDrain)},
	{name: "kernel.allocs_per_event_r256", unit: "count", better: "lower", on: on(wDrain)},

	{name: "cluster.launch_ms_r8", unit: "ms", better: "lower", on: on(wWrap)},
	{name: "cluster.launch_ms_r16", unit: "ms", better: "lower", on: on(wCkpt, wRestart)},
	{name: "cluster.launch_ms_r256", unit: "ms", better: "lower", on: on(wDrain)},
	{name: "cluster.teardown_ms", unit: "ms", better: "lower"},

	{name: "ckpt.boundary_self_ms", unit: "ms", better: "lower"},
	{name: "ckpt.taken", unit: "count", better: "lower", exact: true, on: on(wCkpt, wDrain)},

	{name: "drain.twophase.wall_ms", unit: "ms", better: "lower", on: on(wDrain)},
	{name: "drain.toposort.wall_ms", unit: "ms", better: "lower", on: on(wDrain)},
	{name: "drain.twophase.vt_ms", unit: "ms", better: "lower", exact: true, on: on(wDrain)},
	{name: "drain.toposort.vt_ms", unit: "ms", better: "lower", exact: true, on: on(wDrain)},
	{name: "drain.twophase.ctl_msgs", unit: "count", better: "lower", exact: true, on: on(wDrain)},
	{name: "drain.toposort.ctl_msgs", unit: "count", better: "lower", exact: true, on: on(wDrain)},
	{name: "drain.twophase.alloc_mb", unit: "MB", better: "lower", on: on(wDrain)},
	{name: "drain.toposort.alloc_mb", unit: "MB", better: "lower", on: on(wDrain)},
	{name: "drain.drained_msgs", unit: "count", better: "lower", exact: true, on: on(wDrain)},

	{name: "ckptimg.encode_mb_s", unit: "MB/s", better: "higher", on: on(wCkpt, wRestart)},
	{name: "ckptimg.encode_delta_mb_s", unit: "MB/s", better: "higher", on: on(wCkpt, wRestart)},
	{name: "ckptimg.decode_mb_s", unit: "MB/s", better: "higher", on: on(wCkpt, wRestart)},
	{name: "ckptimg.encode_alloc_ratio", unit: "ratio", better: "lower", on: on(wCkpt, wRestart)},
	{name: "ckptimg.ratio", unit: "ratio", better: "lower", on: on(wCkpt, wRestart)},

	{name: "ckptstore.commit_ms", unit: "ms", better: "lower", on: on(wCkpt, wRestart)},
	{name: "ckptstore.commit_alloc_ratio", unit: "ratio", better: "lower", on: on(wCkpt, wRestart)},
	{name: "ckptstore.materialize_ms", unit: "ms", better: "lower", on: on(wCkpt, wRestart)},
	{name: "ckptstore.materialize_alloc_ratio", unit: "ratio", better: "lower", on: on(wCkpt, wRestart)},
	{name: "ckptstore.scrub_ms", unit: "ms", better: "lower", on: on(wRestart)},
	{name: "ckptstore.chunks_read", unit: "count", better: "lower", exact: true, on: on(wCkpt, wRestart)},
	{name: "ckptstore.chunks_skipped", unit: "count", better: "higher", exact: true, on: on(wCkpt, wRestart)},
	{name: "ckptstore.peak_resolver_mb", unit: "MB", better: "lower", exact: true, on: on(wCkpt, wRestart)},
	{name: "ckptstore.dedup_ratio", unit: "ratio", better: "higher", exact: true, on: on(wCkpt)},
	{name: "ckptstore.unique_mb_per_gen", unit: "MB", better: "lower", exact: true, on: on(wCkpt, wRestart)},
	{name: "ckptstore.retries", unit: "count", better: "lower", exact: true, on: on(wCkpt, wRestart)},

	{name: "backend.puts", unit: "count", better: "lower", on: on(wCkpt, wRestart)},
	{name: "backend.gets", unit: "count", better: "lower", on: on(wCkpt, wRestart)},
	{name: "backend.deletes", unit: "count", better: "lower", on: on(wCkpt, wRestart)},
	{name: "backend.put_mb", unit: "MB", better: "lower", on: on(wCkpt, wRestart)},
	{name: "backend.get_mb", unit: "MB", better: "lower", on: on(wCkpt, wRestart)},
	{name: "backend.put_busy_ms", unit: "ms", better: "lower", on: on(wCkpt, wRestart)},
	{name: "backend.get_busy_ms", unit: "ms", better: "lower", on: on(wCkpt, wRestart)},
	{name: "backend.drain_barrier_ms", unit: "ms", better: "lower", on: on(wCkpt)},

	{name: "fsim.ckpt_write_vt_ms", unit: "ms", better: "lower", exact: true, on: on(wCkpt)},
	{name: "faults.crashes_fired", unit: "count", better: "lower", exact: true, on: on(wCkpt)},
	{name: "faults.lost_vt_ms", unit: "ms", better: "lower", exact: true, on: on(wCkpt)},

	{name: "bench.self_ms", unit: "ms", better: "lower"},
	{name: "bench.trace_overhead_pct", unit: "%", better: "lower"},
	{name: "bench.clock_ns_per_read", unit: "ns", better: "lower"},
}

var catalogByName = func() map[string]metricDef {
	m := make(map[string]metricDef, len(catalog))
	for _, d := range catalog {
		m[d.name] = d
	}
	return m
}()

// bounded reports whether the metric is one of the host-clock end-to-end
// metrics, which BENCHMARK.json bounds under end_to_end.
func (d metricDef) bounded() bool { return d.endToEnd && !d.exact }

// contractEndToEnd is BENCHMARK.json's end_to_end.
func contractEndToEnd() []metricDef {
	var out []metricDef
	for _, d := range catalog {
		if d.bounded() {
			out = append(out, d)
		}
	}
	return out
}

// contractPerLayer is BENCHMARK.json's per_layer: everything else but
// fail_ratio, which the driver reads as failed/attempted.
func contractPerLayer() []metricDef {
	var out []metricDef
	for _, d := range catalog {
		if !d.bounded() && d.name != "fail_ratio" {
			out = append(out, d)
		}
	}
	return out
}

// sample summarises timings the way the metrics guide asks: the median,
// the quartiles, and the highest percentile that still has at least ten
// samples beyond it, with the sample count.
type sample struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	// Tail is the P-th percentile; P is 0 when there are too few samples
	// for any percentile above the median to have ten beyond it.
	Tail float64 `json:"tail,omitempty"`
	P    int     `json:"p,omitempty"`
	N    int     `json:"n"`
	// Samples are the measurements themselves, in the order taken.
	Samples []float64 `json:"samples,omitempty"`
}

func summarize(v []float64) sample {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	out := sample{N: n, Samples: v}
	if n == 0 {
		return out
	}
	out.Median, out.Q1, out.Q3 = quantile(s, 0.5), quantile(s, 0.25), quantile(s, 0.75)
	out.Min, out.Max = s[0], s[n-1]
	if n >= 21 {
		out.P = 100 * (n - 10) / n
		out.Tail = s[n-11]
	}
	return out
}

// quantile interpolates linearly in a sorted slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// quantileOf is quantile on an unsorted slice.
func quantileOf(v []float64, q float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	return quantile(s, q)
}

func median(v []float64) float64 { return quantileOf(v, 0.5) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}
