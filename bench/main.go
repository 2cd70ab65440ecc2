// Command bench is manasim's canonical benchmark: four fixed workloads
// run as a closed loop with one client, on both clocks — modeled virtual
// time and host wall/allocations — plus a traced run that attributes an
// iteration's wall time to the simulator's layers from outside.
//
//	go run ./bench -seed N [-workload NAME] -out FILE   every metric, every workload
//	go run ./bench -compare A.json B.json               regression check of two such files
//
// The benchmark driver's protocol (--workload --seed --seconds --trace)
// is the same program; see README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

func main() {
	var (
		seed     = flag.Int64("seed", 1, "workload seed: inputs are generated from it")
		name     = flag.String("workload", "", "run one workload in this process (default: all four, one process each)")
		seconds  = flag.Float64("seconds", 0, "measure for this long instead of the fixed iteration count")
		trace    = flag.Int("trace", 0, "1: traced run (per-layer metrics); 0: end-to-end metrics, instrumentation off")
		out      = flag.String("out", "", "write the full report as JSON to this file")
		outDir   = flag.String("outdir", filepath.Join("bench", "out"), "directory for trace files and temporary stores")
		compare  = flag.Bool("compare", false, "compare two report files: -compare A.json B.json")
		manifest = flag.String("benchmark", "BENCHMARK.json", "benchmark manifest -compare takes its bounds from")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("usage: bench -compare A.json B.json"))
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1), *manifest)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if _, err := os.Stat("go.mod"); err != nil {
		fatal(errors.New("run from the root of the manasim module (no go.mod here)"))
	}
	if *name == "" {
		fatal(runSuite(*seed, *seconds, *out, *outDir))
		return
	}
	for _, w := range workloads(fullDims) {
		if w.name != *name {
			continue
		}
		rep, err := runWorkload(w, runOpts{
			seed: *seed, dims: fullDims, seconds: *seconds,
			traced: *trace == 1, outDir: *outDir,
		})
		if err != nil {
			fatal(err)
		}
		if *out != "" {
			if err := writeJSON(*out, rep); err != nil {
				fatal(err)
			}
		}
		printDriverLine(rep)
		return
	}
	fatal(fmt.Errorf("unknown workload %q", *name))
}

func fatal(err error) {
	if err == nil {
		return
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// driverResult is the last line of standard output the benchmark driver
// reads.
type driverResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// printDriverLine prints the run as the driver's protocol wants it:
// with tracing off exactly the manifest's end_to_end metrics, with
// tracing on exactly its per_layer list. The driver wants every listed
// metric from every workload, so one that does not apply to this workload
// prints 0 — "not measured", whatever the metric's better direction says;
// the report written by -out leaves it out instead.
func printDriverLine(rep *workloadReport) {
	defs := contractEndToEnd()
	if rep.Traced {
		defs = contractPerLayer()
	}
	res := driverResult{
		Correct:   rep.Failed == 0,
		Attempted: rep.Attempted,
		Failed:    rep.Failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: rep.Metrics[d.name].Value, Unit: d.unit}
	}
	line, err := json.Marshal(res)
	fatal(err)
	fmt.Println(string(line))
}

// suiteReport is the file `go run ./bench -out FILE` writes and
// -compare reads.
type suiteReport struct {
	Schema int      `json:"schema"`
	Seed   int64    `json:"seed"`
	Host   hostInfo `json:"host"`
	// Workloads holds, per workload, the untraced and the traced run.
	Workloads map[string]*suiteWorkload `json:"workloads"`
}

type hostInfo struct {
	CPU        string `json:"cpu"`
	VCPUs      int    `json:"vcpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

type suiteWorkload struct {
	EndToEnd *workloadReport `json:"end_to_end"`
	Traced   *workloadReport `json:"traced"`
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return "unknown"
}

// runSuite runs every workload twice — untraced, then traced — each in a
// process of its own, so that peak RSS and allocation counts belong to
// one workload.
func runSuite(seed int64, seconds float64, out, outDir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	suite := suiteReport{
		Schema: 1, Seed: seed,
		Host: hostInfo{
			CPU: cpuModel(), VCPUs: runtime.NumCPU(),
			GOMAXPROCS: 1, Go: runtime.Version(),
		},
		Workloads: map[string]*suiteWorkload{},
	}
	child := func(w workload, trace int) (*workloadReport, error) {
		file := filepath.Join(outDir, fmt.Sprintf("run-%s-trace%d.json", w.name, trace))
		cmd := exec.Command(self,
			"-workload", w.name, "-seed", fmt.Sprint(seed), "-trace", fmt.Sprint(trace),
			"-seconds", fmt.Sprint(seconds),
			"-out", file, "-outdir", outDir)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("%s (trace %d): %w", w.name, trace, err)
		}
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		rep := &workloadReport{}
		return rep, json.Unmarshal(data, rep)
	}
	failed := 0
	for _, w := range workloads(fullDims) {
		sw := &suiteWorkload{}
		if sw.EndToEnd, err = child(w, 0); err != nil {
			return err
		}
		if sw.Traced, err = child(w, 1); err != nil {
			return err
		}
		suite.Workloads[w.name] = sw
		failed += sw.EndToEnd.Failed + sw.Traced.Failed
		printWorkload(w, sw)
	}
	if out != "" {
		if err := writeJSON(out, suite); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d iterations failed their checks", failed)
	}
	return nil
}

// printWorkload prints every metric of one workload by name with its
// unit: the end-to-end metrics first, then the layers.
func printWorkload(w workload, sw *suiteWorkload) {
	e, t := sw.EndToEnd, sw.Traced
	fmt.Printf("\n== %s (seed %d, %d iterations, %d failed) ==\n", w.name, e.Seed, e.Attempted, e.Failed)
	fmt.Println("end to end:")
	for _, d := range catalog {
		v, ok := e.Metrics[d.name]
		if !d.endToEnd || !ok {
			continue
		}
		clock := "host"
		if d.exact {
			clock = "exact"
		}
		line := fmt.Sprintf("  %-28s %14.6g %-6s %-5s", d.name, v.Value, v.Unit, clock)
		if s := v.Dist; s != nil {
			line += fmt.Sprintf("  q1 %.6g q3 %.6g n %d", s.Q1, s.Q3, s.N)
			if s.P > 0 {
				line += fmt.Sprintf(" p%d %.6g", s.P, s.Tail)
			}
		}
		fmt.Println(line)
	}
	fmt.Printf("per layer (%d traced iterations, ledger gap %.3f%% of the traced wall):\n", t.TracedIters, t.LedgerGapPct)
	names := make([]string, 0, len(t.Metrics))
	for name := range t.Metrics {
		if d := catalogByName[name]; !d.endToEnd {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		v := t.Metrics[name]
		fmt.Printf("  %-36s %14.6g %s\n", name, v.Value, v.Unit)
	}
}
