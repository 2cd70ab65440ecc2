package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"manasim/internal/apps"
	mana "manasim/internal/core"
)

// TestLedgerTiles checks the ledger arithmetic on a hand-written
// timeline: nested boundary events give self times that tile the
// enclosing interval, before and after the clock-read correction.
func TestLedgerTiles(t *testing.T) {
	var l ledger // starts in bench.self at 0
	// iteration ⊃ app.step [10,100) ⊃ upper call [20,80) ⊃ lower call
	// [30,70), then a step boundary until 130.
	prev := l.switchTo(bktApps, 10)
	if prev != bktBench {
		t.Fatalf("first switch returned %v", prev)
	}
	app := l.switchTo(bktUpper, 20)
	upper := l.switchTo(bktLower, 30)
	l.switchTo(upper, 70)
	l.switchTo(app, 80)
	l.switchTo(bktBoundary, 100)
	l.switchTo(bktBench, 130)

	want := map[bucket]int64{bktBench: 10, bktApps: 30, bktUpper: 20, bktLower: 40, bktBoundary: 30}
	var sum int64
	for b := bucket(0); b < numBuckets; b++ {
		if l.ns[b] != want[b] {
			t.Errorf("%s: %d ns, want %d", bucketNames[b], l.ns[b], want[b])
		}
		sum += l.ns[b]
	}
	if sum != 130 {
		t.Errorf("buckets sum to %d, the interval is 130", sum)
	}
	// The app span's self time is its duration minus what its child
	// covers, and so on down.
	if step, upperCall, lowerCall := int64(100-10), int64(80-20), int64(70-30); l.ns[bktApps] != step-upperCall || l.ns[bktUpper] != upperCall-lowerCall {
		t.Errorf("self times are not duration minus children")
	}

	self, clock := l.self(2) // 2 ns per read, 7 reads
	if clock != 14 {
		t.Errorf("clock cost %v, want 7 reads x 2 ns", clock)
	}
	total := clock
	for _, v := range self {
		total += v
	}
	if total != 130 {
		t.Errorf("corrected buckets plus clock cost sum to %v, want 130", total)
	}
	// The lower call was entered and left once: one read's worth.
	if self[bktLower] != 38 {
		t.Errorf("lower self %v, want 40 - 2", self[bktLower])
	}
}

func TestSummarize(t *testing.T) {
	v := make([]float64, 30)
	for i := range v {
		v[i] = float64(30 - i) // 30..1, unsorted on purpose
	}
	s := summarize(v)
	if s.N != 30 || s.Median != 15.5 || s.Min != 1 || s.Max != 30 {
		t.Errorf("summary %+v", s)
	}
	// Ten samples (21..30) lie beyond the 20th.
	if s.P != 66 || s.Tail != 20 {
		t.Errorf("tail p%d = %v, want p66 = 20", s.P, s.Tail)
	}
	if s := summarize(v[:15]); s.P != 0 {
		t.Errorf("15 samples cannot have a percentile above the median with ten beyond it, got p%d", s.P)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestManifest holds BENCHMARK.json to the benchmark contract and to
// this package's catalog: the program prints exactly what the manifest
// promises.
func TestManifest(t *testing.T) {
	m, err := readManifest(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) < 2 || len(m.Workloads) > 8 {
		t.Errorf("%d workloads, want 2..8", len(m.Workloads))
	}
	if len(m.EndToEnd) < 1 || len(m.EndToEnd) > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", len(m.EndToEnd))
	}
	if len(m.PerLayer) < 1 || len(m.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", len(m.PerLayer))
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d", m.RunSeconds)
	}
	if !reflect.DeepEqual(m.Paths, []string{"bench"}) {
		t.Errorf("paths %v", m.Paths)
	}
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}

	ws := workloads(fullDims)
	if len(m.Workloads) != len(ws) {
		t.Fatalf("manifest has %d workloads, the program %d", len(m.Workloads), len(ws))
	}
	for i, w := range m.Workloads {
		name(w.Name)
		if w.Name != ws[i].name || w.Why != ws[i].why {
			t.Errorf("workload %d: manifest %q / %q, program %q / %q", i, w.Name, w.Why, ws[i].name, ws[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}

	check := func(kind string, got []manifestMetric, want []metricDef, bounded bool) {
		t.Helper()
		if len(got) != len(want) {
			t.Errorf("%s: manifest lists %d metrics, the program prints %d", kind, len(got), len(want))
		}
		byName := map[string]manifestMetric{}
		for _, g := range got {
			name(g.Name)
			byName[g.Name] = g
			if !unitRE.MatchString(g.Unit) {
				t.Errorf("%s %s: unit %q", kind, g.Name, g.Unit)
			}
		}
		for _, d := range want {
			g, ok := byName[d.name]
			if !ok {
				t.Errorf("%s: the program prints %s, the manifest does not list it", kind, d.name)
				continue
			}
			if g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %s: manifest %s/%s, catalog %s/%s", kind, d.name, g.Unit, g.Better, d.unit, d.better)
			}
			switch {
			case !bounded && g.Bound != nil:
				t.Errorf("%s %s: per-layer metrics have no bound", kind, d.name)
			case bounded && (g.Bound == nil || *g.Bound <= 0 || *g.Bound > 0.25):
				t.Errorf("%s %s: bound %v, want one in (0, 0.25]", kind, d.name, g.Bound)
			}
		}
	}
	check("end_to_end", m.EndToEnd, contractEndToEnd(), true)
	check("per_layer", m.PerLayer, contractPerLayer(), false)
	if s := catalogByName["setup_s"]; s.unit != "s" || s.better != "lower" || !s.endToEnd {
		t.Errorf("setup_s must be an end-to-end metric in s, lower is better")
	}
	n := 0
	for _, d := range catalog {
		if d.endToEnd {
			n++
		}
	}
	if n != 13 {
		t.Errorf("%d end-to-end metrics in the catalog, the issue defines 13", n)
	}
}

func smallRun(t *testing.T, w workload, traced bool) *workloadReport {
	t.Helper()
	rep, err := runWorkload(w, runOpts{
		seed: 7, dims: smallDims, iters: 1, reps: 1, traced: traced, outDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 || rep.Attempted == 0 {
		t.Fatalf("%d of %d iterations failed: %v", rep.Failed, rep.Attempted, rep.Failures)
	}
	return rep
}

// TestSmoke runs one checked iteration of every workload at reduced
// size, untraced, and holds the report to the catalog: every end-to-end
// metric that applies is there and not 0, none that does not apply is.
func TestSmoke(t *testing.T) {
	for _, w := range workloads(smallDims) {
		t.Run(w.name, func(t *testing.T) {
			rep := smallRun(t, w, false)
			for _, d := range catalog {
				v, ok := rep.Metrics[d.name]
				switch {
				case !d.endToEnd:
					if ok {
						t.Errorf("untraced run reports layer metric %s", d.name)
					}
				case !d.appliesTo(w.name):
					if ok {
						t.Errorf("%s does not apply to %s but is reported", d.name, w.name)
					}
				case !ok:
					t.Errorf("%s missing", d.name)
				case v.Value == 0 && d.name != "fail_ratio":
					t.Errorf("%s is 0", d.name)
				}
			}
		})
	}
}

// TestTracedRun runs the traced run of every workload at reduced size:
// the ledger tiles the iteration wall, the per-layer metrics that apply
// are there, and the trace file's spans nest.
func TestTracedRun(t *testing.T) {
	for _, w := range workloads(smallDims) {
		t.Run(w.name, func(t *testing.T) {
			rep := smallRun(t, w, true)
			if rep.TracedIters < 1 || rep.LedgerGapPct > 1 {
				t.Errorf("%d traced iterations, ledger gap %.3f%% of the wall", rep.TracedIters, rep.LedgerGapPct)
			}
			for _, d := range contractPerLayer() {
				if _, ok := rep.Metrics[d.name]; ok != d.appliesTo(w.name) {
					t.Errorf("%s: reported %v, applies %v", d.name, ok, d.appliesTo(w.name))
				}
			}
			data, err := os.ReadFile(rep.TraceFile)
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(data, &tf); err != nil {
				t.Fatal(err)
			}
			byID := map[int32]span{}
			for _, sp := range tf.Spans {
				byID[sp.ID] = sp
			}
			steps := 0
			for _, sp := range tf.Spans {
				if sp.Name == "iteration" {
					continue
				}
				p, ok := byID[sp.Parent]
				if !ok {
					t.Fatalf("span %d (%s) has no parent %d", sp.ID, sp.Name, sp.Parent)
				}
				if p.Iter != sp.Iter || sp.StartNs < p.StartNs || sp.EndNs > p.EndNs {
					t.Errorf("span %s [%d,%d] iter %d is not inside its parent %s [%d,%d] iter %d",
						sp.Name, sp.StartNs, sp.EndNs, sp.Iter, p.Name, p.StartNs, p.EndNs, p.Iter)
				}
				if sp.Name == "app.step" {
					steps++
				}
			}
			if steps == 0 {
				t.Errorf("no app.step span recorded")
			}
			for _, it := range tf.Iterations {
				sum := 0.0
				for _, v := range it.SelfNs {
					sum += v
				}
				if math.Abs(sum-float64(it.WallNs)) > 1e-6*float64(it.WallNs) {
					t.Errorf("iteration %d: buckets sum to %.0f ns, the ledger's wall is %d ns", it.Iter, sum, it.WallNs)
				}
			}
		})
	}
}

func sameStats(t *testing.T, label string, traced, plain []mana.Stats) {
	t.Helper()
	if len(traced) != len(plain) {
		t.Fatalf("%s: %d traced jobs, %d untraced", label, len(traced), len(plain))
	}
	for i := range plain {
		a, b := traced[i], plain[i]
		if a.VT != b.VT || !reflect.DeepEqual(a.PerRankVT, b.PerRankVT) {
			t.Errorf("%s job %d: traced VT %v, untraced %v", label, i, a.VT, b.VT)
		}
		if !reflect.DeepEqual(a.Checksums, b.Checksums) {
			t.Errorf("%s job %d: checksums differ", label, i)
		}
		if a.Crossings != b.Crossings || a.WrapperCalls != b.WrapperCalls {
			t.Errorf("%s job %d: traced %d crossings / %d calls, untraced %d / %d", label, i, a.Crossings, a.WrapperCalls, b.Crossings, b.WrapperCalls)
		}
		if a.CtlMsgs != b.CtlMsgs || a.DrainVT != b.DrainVT || !reflect.DeepEqual(a.CkptCostVTs, b.CkptCostVTs) {
			t.Errorf("%s job %d: traced %d control messages, drain %v, untraced %d, %v", label, i, a.CtlMsgs, a.DrainVT, b.CtlMsgs, b.DrainVT)
		}
	}
}

// TestTraceInvisible asserts that the decorators do not change the
// model: per workload, a traced iteration's Stats equal an untraced
// one's exactly. A decorator that dropped SetResolvedCaller, CommContext,
// SleepUntil, SetAbort or Drainer would show here.
func TestTraceInvisible(t *testing.T) {
	for _, w := range workloads(smallDims) {
		t.Run(w.name, func(t *testing.T) {
			sc := newScenario(11, smallDims)
			tr := newTracer()
			r, err := w.prepare(sc, tr, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer r.close()
			plain, err := r.iterate(nil)
			if err != nil {
				t.Fatal(err)
			}
			tr.beginIter(0)
			traced, err := r.iterate(tr)
			tr.endIter()
			if err != nil {
				t.Fatal(err)
			}
			sameStats(t, w.name, traced.stats, plain.stats)
		})
	}
	// No workload runs the ExaMPI family, whose virtual time depends on
	// SetResolvedCaller reaching the lower half; CoMD does.
	t.Run("exampi", func(t *testing.T) {
		b, err := baseConfig("exampi", apps.SiteDiscovery)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := apps.ByName("comd")
		if err != nil {
			t.Fatal(err)
		}
		in := spec.DefaultInput(apps.SiteDiscovery)
		in.Ranks, in.SimSteps = 4, 4
		run := func(tr *tracer) mana.Stats {
			j, err := tr.launch("comd", b.cfg, in.Ranks, spec.New(in), nil)
			if err != nil {
				t.Fatal(err)
			}
			st, err := j.wait()
			if err != nil {
				t.Fatal(err)
			}
			return st
		}
		tr := newTracer()
		tr.beginIter(0)
		traced := run(tr)
		tr.endIter()
		sameStats(t, "exampi", []mana.Stats{traced}, []mana.Stats{run(nil)})
	})
}

// TestWatchdog lets the watchdog expire in a child process: it must dump
// the goroutines, count the iteration as failed and exit non-zero.
func TestWatchdog(t *testing.T) {
	if os.Getenv("BENCH_WATCHDOG_CHILD") != "" {
		iterDeadline = 50 * time.Millisecond
		rep := &workloadReport{Workload: "hung"}
		var first map[string]float64
		measured(rep, hungRunner{}, nil, 0, &first)
		t.Fatal("the watchdog did not end the process")
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestWatchdog$")
	cmd.Env = append(os.Environ(), "BENCH_WATCHDOG_CHILD=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 3 {
		t.Fatalf("child ended with %v, want exit code 3:\n%s", err, out)
	}
	for _, want := range []string{"iteration 0 exceeded", "goroutine ", "fail_ratio 1/1"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("child output lacks %q:\n%s", want, out)
		}
	}
}

type hungRunner struct{}

func (hungRunner) iterate(*tracer) (iterOut, error) { select {} }
func (hungRunner) close() error                     { return nil }

// TestCompare checks -compare's verdicts on hand-made reports.
func TestCompare(t *testing.T) {
	report := func(wall sample, vt float64, failed float64) *suiteReport {
		s := &suiteReport{Schema: 1, Seed: 1, Workloads: map[string]*suiteWorkload{}}
		for _, w := range workloads(fullDims) {
			s.Workloads[w.name] = &suiteWorkload{EndToEnd: &workloadReport{Workload: w.name, Metrics: map[string]metricValue{
				"iter_wall_ms": {Value: wall.Median, Unit: "ms", Dist: &wall},
				"vt_job_s":     {Value: vt, Unit: "s"},
				"fail_ratio":   {Value: failed, Unit: "ratio"},
			}}}
		}
		return s
	}
	tight := func(med float64) sample {
		return sample{Median: med, Q1: med * 0.99, Q3: med * 1.01, Min: med * 0.98, Max: med * 1.02, N: 30}
	}
	wide := func(med float64) sample {
		return sample{Median: med, Q1: med * 0.8, Q3: med * 1.2, Min: med * 0.6, Max: med * 1.4, N: 30}
	}
	dir := t.TempDir()
	write := func(name string, s *suiteReport) string {
		path := filepath.Join(dir, name)
		if err := writeJSON(path, s); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", report(tight(100), 1.5, 0))
	for _, c := range []struct {
		name string
		b    *suiteReport
		ok   bool
		want string
	}{
		{"same", report(tight(100), 1.5, 0), true, "same"},
		{"slower", report(tight(140), 1.5, 0), false, "REGRESSION"},
		{"noisy", report(wide(108), 1.5, 0), true, "unresolved"},
		{"clearly-faster-but-noisy", report(sample{Median: 60, Q1: 50, Q3: 70, Min: 40, Max: 80, N: 30}, 1.5, 0), true, "ok"},
		{"model-changed", report(tight(100), 1.5000001, 0), false, "DIFFERS"},
		{"failed", report(tight(100), 1.5, 0.1), false, "REGRESSION"},
	} {
		var out bytes.Buffer
		ok, err := compareFiles(&out, base, write(c.name+".json", c.b), filepath.Join("..", "BENCHMARK.json"))
		if err != nil {
			t.Fatal(err)
		}
		if ok != c.ok || !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: ok=%v, want %v with verdict %q:\n%s", c.name, ok, c.ok, c.want, out.String())
		}
		for _, w := range workloads(fullDims) {
			if !strings.Contains(out.String(), "\n"+w.name+"\n") {
				t.Errorf("%s: no row block for workload %s", c.name, w.name)
			}
		}
	}
	// BENCHMARK.json is the only place the bounds are: no manifest, no
	// comparison.
	if _, err := compareFiles(&bytes.Buffer{}, base, base, filepath.Join(dir, "absent.json")); err == nil {
		t.Errorf("comparison without a manifest did not fail")
	}
}
