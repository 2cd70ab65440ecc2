package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

const (
	warmupIters = 2
	// setupReps is how many times a run sets up; setup_s is the lower
	// quartile, the second fastest of the five.
	setupReps = 5
	// tracedIters is the traced run's iteration count when no time limit
	// is given, for the traced iterations and for the untraced reference
	// iterations trace_overhead_pct is measured against.
	tracedIters = 3
)

// iterDeadline is the per-iteration watchdog (a variable so the test can
// shorten it).
var iterDeadline = 120 * time.Second

// runOpts parameterizes one workload run in this process.
type runOpts struct {
	seed int64
	dims dims
	// seconds bounds the measured loop by time; 0 runs the workload's
	// fixed iteration count.
	seconds float64
	// iters overrides the fixed iteration count when positive (the
	// reduced-size tests; the command line has no such knob).
	iters  int
	traced bool
	// outDir receives temporary stores and trace files.
	outDir string
	// reps overrides setupReps (tests).
	reps int
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Dist carries the distribution behind a timing, ungated.
	Dist *sample `json:"dist,omitempty"`
}

// workloadReport is the result of one workload run, traced or not.
type workloadReport struct {
	Workload  string                 `json:"workload"`
	Why       string                 `json:"why"`
	Seed      int64                  `json:"seed"`
	Traced    bool                   `json:"traced"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	// TracedIters and LedgerGapPct describe the traced run: how many
	// iterations were traced and by how much, at worst, the sum of an
	// iteration's buckets missed the wall time measured around it.
	TracedIters  int     `json:"traced_iters,omitempty"`
	LedgerGapPct float64 `json:"ledger_gap_pct"`
	TraceFile    string  `json:"trace_file,omitempty"`
}

func (r *workloadReport) set(name string, v float64) {
	d, ok := catalogByName[name]
	if !ok {
		panic("bench: metric " + name + " is not in the catalog")
	}
	r.Metrics[name] = metricValue{Value: v, Unit: d.unit}
}

// setDist sets a metric to the q-quantile of its samples and attaches
// their whole distribution, ungated.
func (r *workloadReport) setDist(name string, v []float64, q float64) {
	s := summarize(v)
	r.set(name, quantileOf(v, q))
	mv := r.Metrics[name]
	mv.Dist = &s
	r.Metrics[name] = mv
}

func (r *workloadReport) fail(format string, args ...any) {
	r.Failed++
	msg := fmt.Sprintf(format, args...)
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, msg)
	}
	fmt.Fprintf(os.Stderr, "bench: %s: FAILED: %s\n", r.Workload, msg)
}

// watchdog bounds one iteration (or one set-up). On expiry it dumps
// every goroutine to stderr and exits non-zero: a hung job must end the
// run, not inherit the simulator's ten-minute test timeout.
type watchdog struct {
	timer *time.Timer
}

func armWatchdog(workload, what string, onExpire func()) watchdog {
	return watchdog{timer: time.AfterFunc(iterDeadline, func() {
		fmt.Fprintf(os.Stderr, "bench: %s: %s exceeded %v; goroutines:\n", workload, what, iterDeadline)
		_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
		onExpire()
		os.Exit(3)
	})}
}

func (w watchdog) disarm() { w.timer.Stop() }

// measured runs r.iterate once under the watchdog and checks that the
// iteration's model outputs equal the run's first.
func measured(rep *workloadReport, r runner, t *tracer, iter int, first *map[string]float64) (iterOut, time.Duration, bool) {
	rep.Attempted++
	wd := armWatchdog(rep.Workload, fmt.Sprintf("iteration %d", iter), func() {
		rep.Failed++
		fmt.Fprintf(os.Stderr, "bench: %s: fail_ratio %d/%d\n", rep.Workload, rep.Failed, rep.Attempted)
	})
	t0 := time.Now()
	out, err := r.iterate(t)
	dt := time.Since(t0)
	wd.disarm()
	if err != nil {
		rep.fail("iteration %d: %v", iter, err)
		return out, dt, false
	}
	if *first == nil {
		*first = out.model
	} else if !reflect.DeepEqual(*first, out.model) {
		rep.fail("iteration %d: virtual-clock outputs differ from the first iteration's: %v vs %v", iter, out.model, *first)
		return out, dt, false
	}
	return out, dt, true
}

// runWorkload runs one workload in this process: set-up, warm-up, then
// the measured closed loop with one client — iterations back to back.
func runWorkload(w workload, o runOpts) (*workloadReport, error) {
	// One P. The event kernel runs one rank body at a time and hands
	// control from goroutine to goroutine. With a second P a hand-off
	// either stays on its P or wakes a thread parked on the other vCPU,
	// and which of the two it does changes in phases of seconds:
	// iter_wall_ms of restart-chain read 110 ms or 160 ms and that of
	// wrap-lammps 355 ms or 510 ms for one commit and seed, runs apart
	// by more than any bound. With one P both read the lower figure
	// every time. The store's worker pool (Workers = GOMAXPROCS) runs
	// serially as a result.
	runtime.GOMAXPROCS(1)
	tmp := filepath.Join(o.outDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	rep := &workloadReport{Workload: w.name, Why: w.why, Seed: o.seed, Traced: o.traced, Metrics: map[string]metricValue{}}
	sc := newScenario(o.seed, o.dims)
	if o.traced {
		return rep, runTraced(rep, w, sc, o, tmp)
	}

	// Set-up, several times over; the last one is used.
	reps := o.reps
	if reps <= 0 {
		reps = setupReps
	}
	var r runner
	var setups []float64
	var first map[string]float64
	for i := 0; i < reps; i++ {
		if r != nil {
			if err := r.close(); err != nil {
				return nil, err
			}
		}
		first = nil
		t0 := time.Now()
		var err error
		wd := armWatchdog(w.name, "set-up", func() {})
		r, err = w.prepare(sc, nil, tmp)
		wd.disarm()
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		for k := 0; k < warmupIters; k++ {
			if _, _, ok := measured(rep, r, nil, -1-k, &first); !ok {
				return rep, fmt.Errorf("%s: warm-up iteration failed", w.name)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer r.close()
	rep.Attempted, rep.Failed = 0, 0

	iters := w.iters
	if o.iters > 0 {
		iters = o.iters
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var walls, peaks []float64
	start := time.Now()
	for i := 0; ; i++ {
		if o.seconds > 0 {
			if i >= 3 && time.Since(start).Seconds() >= o.seconds {
				break
			}
		} else if i >= iters {
			break
		}
		perIter := resetPeakRSS() == nil
		_, dt, _ := measured(rep, r, nil, i, &first)
		walls = append(walls, ms(dt))
		if perIter {
			rss, err := peakRSSMB()
			if err != nil {
				return nil, err
			}
			peaks = append(peaks, rss)
		}
	}
	runtime.ReadMemStats(&m1)
	n := float64(len(walls))

	// What the shared host adds to an iteration is one-sided and comes
	// in phases of seconds — up to 1.45 times slower, the guest's other
	// vCPU idle and no steal time reported — so the run's median moves
	// with the share of the run those phases took. A low quantile is the
	// iteration, or the set-up, the host left alone; a slower program
	// moves it as it moves the median.
	rep.setDist("setup_s", setups, 0.25)
	rep.setDist("iter_wall_ms", walls, 0.1)
	rep.set("allocs_per_iter", float64(m1.Mallocs-m0.Mallocs)/n)
	rep.set("alloc_mb_per_iter", float64(m1.TotalAlloc-m0.TotalAlloc)/n/1e6)
	if len(peaks) < len(walls) {
		// The high-water mark could not be reset: the process's one mark
		// is all there is.
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		peaks = []float64{rss}
	}
	rep.set("peak_rss_mb", quantileOf(peaks, 0.9))
	rep.set("fail_ratio", float64(rep.Failed)/float64(rep.Attempted))
	for name, v := range first {
		if catalogByName[name].endToEnd {
			rep.set(name, v)
		}
	}
	return rep, nil
}

// resetPeakRSS resets the kernel's resident-set high-water mark to the
// current resident set, so that the next reading is the peak since now.
// The mark of a whole process is the largest of several hundred
// collector cycles' overshoots — on wrap-lammps, whose heap is 4 MB, it
// read anywhere from 11 to 24 MB for one commit and seed — so
// peak_rss_mb is taken from the iterations' own peaks: the 90th
// percentile, because the collector's cycle beats against the iteration
// and the peaks repeat in a pattern (restart-chain: 125, 135, 165, 165,
// 155 MB, ...) whose median falls between its levels.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// runTraced is the traced run: untraced reference iterations, then the
// same number traced, then the isolated drivers on what the workload
// left behind.
func runTraced(rep *workloadReport, w workload, sc *scenario, o runOpts, tmp string) error {
	t := newTracer()
	wd := armWatchdog(w.name, "set-up", func() {})
	r, err := w.prepare(sc, t, tmp)
	wd.disarm()
	if err != nil {
		return fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	defer r.close()
	var first map[string]float64
	if _, _, ok := measured(rep, r, nil, -1, &first); !ok {
		return fmt.Errorf("%s: warm-up iteration failed", w.name)
	}
	rep.Attempted, rep.Failed = 0, 0

	n := tracedIters
	if o.iters > 0 {
		n = o.iters
	}
	budget := time.Duration(o.seconds / 4 * float64(time.Second))
	loop := func(fn func(i int)) {
		start := time.Now()
		for i := 0; i < n || (time.Since(start) < budget && i < 4*tracedIters); i++ {
			fn(i)
		}
	}
	var ref, walls []float64
	loop(func(i int) {
		_, dt, _ := measured(rep, r, nil, i, &first)
		ref = append(ref, ms(dt))
	})
	// The traced iterations' model outputs are compared with each other,
	// not with the untraced ones: a traced drain iteration also counts
	// drained messages. That traced and untraced Stats agree is what
	// TestTraceInvisible asserts.
	var tracedFirst map[string]float64
	var last iterOut
	hosts := map[string][]float64{}
	loop(func(i int) {
		t.beginIter(i)
		out, dt, ok := measured(rep, r, t, i, &tracedFirst)
		t.endIter()
		walls = append(walls, ms(dt))
		if ok {
			last = out
			for k, v := range out.host {
				hosts[k] = append(hosts[k], v)
			}
		}
	})
	if rep.Failed > 0 {
		return nil
	}
	for name, v := range last.model {
		rep.set(name, v)
	}
	for name, v := range hosts {
		rep.set(name, median(v))
	}
	ledgerMetrics(rep, t, w, walls)
	rep.set("bench.trace_overhead_pct", (median(walls)-median(ref))/median(ref)*100)
	rep.set("bench.clock_ns_per_read", t.clockNs)
	if err := replay(rep, w, r); err != nil {
		return fmt.Errorf("%s: isolated drivers: %w", w.name, err)
	}
	rep.TraceFile = filepath.Join(o.outDir, "trace-"+w.name+".json")
	return writeTrace(rep.TraceFile, w, o.seed, t)
}

// ledgerMetrics turns the traced iterations' ledgers and boundary counts
// into per-layer metrics: the mean over the traced iterations.
func ledgerMetrics(rep *workloadReport, t *tracer, w workload, wallsMs []float64) {
	avg := func(f func(it iterTrace) float64) float64 {
		var v []float64
		for _, it := range t.iters {
			v = append(v, f(it))
		}
		return mean(v)
	}
	selfMs := func(b bucket) float64 {
		return avg(func(it iterTrace) float64 { return it.SelfNs[bucketNames[b]] / 1e6 })
	}
	rep.TracedIters = len(t.iters)
	for i, it := range t.iters {
		sum := 0.0
		for _, v := range it.SelfNs {
			sum += v
		}
		rep.LedgerGapPct = max(rep.LedgerGapPct, math.Abs(sum/1e6-wallsMs[i])/wallsMs[i]*100)
	}

	// A layer the workload does not exercise is left out, not reported
	// as 0: the catalog says which metrics apply.
	set := func(name string, v float64) {
		if catalogByName[name].appliesTo(w.name) {
			rep.set(name, v)
		}
	}
	count := func(f func(it iterTrace) int64) float64 {
		return avg(func(it iterTrace) float64 { return float64(f(it)) })
	}
	set("apps.step_self_ms", selfMs(bktApps))
	set("apps.snapshot_ms", selfMs(bktSnapshot))
	set("apps.snapshot_mb", count(func(it iterTrace) int64 { return it.SnapshotB })/1e6)
	set("apps.restore_ms", selfMs(bktRestore))
	set("core.upper_self_ms", selfMs(bktUpper))
	set("core.restart_open_ms", selfMs(bktRestartOpen))
	set("mpibase.self_ms", selfMs(bktLower))
	set("ckpt.boundary_self_ms", selfMs(bktBoundary))
	set("ckptstore.scrub_ms", selfMs(bktScrub))
	set("cluster.launch_ms_"+w.rtag, selfMs(bktLaunch)/count(func(it iterTrace) int64 { return it.Launches }))
	set("cluster.teardown_ms", selfMs(bktTeardown))
	set("bench.self_ms", selfMs(bktBench))
	if v, ok := rep.Metrics["core.upper_calls"]; ok {
		set("core.upper_ns_per_call", selfMs(bktUpper)*1e6/v.Value)
	}

	class := func(c int) float64 {
		return count(func(it iterTrace) int64 { return it.LowerCalls[c] })
	}
	calls := class(classP2P) + class(classColl) + class(classProbe) + class(classObject)
	set("mpibase.calls", calls)
	set("mpibase.p2p_calls", class(classP2P))
	set("mpibase.coll_calls", class(classColl))
	set("mpibase.probe_calls", class(classProbe))
	set("mpibase.payload_mb", count(func(it iterTrace) int64 { return it.PayloadBytes })/1e6)
	set("mpibase.ns_per_call", selfMs(bktLower)*1e6/calls)

	set("backend.puts", count(func(it iterTrace) int64 { return it.Backend.Puts }))
	set("backend.gets", count(func(it iterTrace) int64 { return it.Backend.Gets }))
	set("backend.deletes", count(func(it iterTrace) int64 { return it.Backend.Deletes }))
	set("backend.put_mb", count(func(it iterTrace) int64 { return it.Backend.PutBytes })/1e6)
	set("backend.get_mb", count(func(it iterTrace) int64 { return it.Backend.GetBytes })/1e6)
	set("backend.put_busy_ms", count(func(it iterTrace) int64 { return it.Backend.PutBusyNs })/1e6)
	set("backend.get_busy_ms", count(func(it iterTrace) int64 { return it.Backend.GetBusyNs })/1e6)
	set("backend.drain_barrier_ms", count(func(it iterTrace) int64 { return it.Backend.DrainBarrierNs })/1e6)
}

// traceFile is bench/out/trace-<workload>.json.
type traceFile struct {
	Workload       string      `json:"workload"`
	Seed           int64       `json:"seed"`
	ClockNsPerRead float64     `json:"clock_ns_per_read"`
	Buckets        []string    `json:"buckets"`
	Iterations     []iterTrace `json:"iterations"`
	Spans          []span      `json:"spans"`
}

func writeTrace(path string, w workload, seed int64, t *tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = json.NewEncoder(bw).Encode(traceFile{
		Workload: w.name, Seed: seed, ClockNsPerRead: t.clockNs,
		Buckets: bucketNames[:], Iterations: t.iters, Spans: t.spans,
	})
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
