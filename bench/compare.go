package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// manifest is BENCHMARK.json, as far as -compare and the tests read it.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m := &manifest{}
	if err := json.Unmarshal(data, m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

func readSuite(path string) (*suiteReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s := &suiteReport{}
	if err := json.Unmarshal(data, s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if s.Schema != 1 || len(s.Workloads) == 0 {
		return nil, fmt.Errorf("%s: not a bench report", path)
	}
	return s, nil
}

// verdict is the outcome of comparing one metric on one workload.
type verdict string

const (
	vSame       verdict = "same"       // exact metric, bit-identical
	vDiffers    verdict = "DIFFERS"    // exact metric changed
	vOK         verdict = "ok"         // within the bound
	vRegression verdict = "REGRESSION" // worse by more than the bound
	vUnresolved verdict = "unresolved" // the runs' own spread exceeds the bound
	vSkipped    verdict = "skipped"    // exact metric, runs of different seeds
)

// compareMetric judges B (the change) against A (the baseline). Where
// the spread inside either run exceeds the bound the runs cannot
// resolve a difference of that size: the metric is unresolved, not
// unchanged, unless every sample of B reads better than every sample of
// A.
func compareMetric(d metricDef, bound float64, a, b metricValue, sameSeed bool) (verdict, float64) {
	if d.exact && d.absBound == 0 {
		if !sameSeed {
			return vSkipped, 0
		}
		if math.Float64bits(a.Value) == math.Float64bits(b.Value) {
			return vSame, 0
		}
		return vDiffers, b.Value - a.Value
	}
	worse := b.Value - a.Value
	if d.better == "higher" {
		worse = -worse
	}
	if d.absBound > 0 {
		if !sameSeed {
			return vSkipped, worse
		}
		if worse > d.absBound {
			return vRegression, worse
		}
		return vOK, worse
	}
	rel := worse / math.Abs(a.Value)
	if a.Dist != nil && b.Dist != nil {
		spread := math.Max(iqrShare(a.Dist), iqrShare(b.Dist))
		clearOfA := b.Dist.Max < a.Dist.Min
		if d.better == "higher" {
			clearOfA = b.Dist.Min > a.Dist.Max
		}
		if spread > bound && !clearOfA {
			return vUnresolved, rel
		}
	}
	if rel > bound {
		return vRegression, rel
	}
	return vOK, rel
}

func iqrShare(s *sample) float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// compareFiles applies the benchmark's bounds to two reports and prints
// one block per workload. It reports false when any pairing of
// end-to-end metric and workload regressed, an exact metric changed, or
// an iteration failed in either run.
func compareFiles(w io.Writer, pathA, pathB, manifestPath string) (bool, error) {
	a, err := readSuite(pathA)
	if err != nil {
		return false, err
	}
	b, err := readSuite(pathB)
	if err != nil {
		return false, err
	}
	m, err := readManifest(manifestPath)
	if err != nil {
		return false, fmt.Errorf("the bounds are in the benchmark manifest: %w", err)
	}
	bounds := map[string]float64{}
	for _, e := range m.EndToEnd {
		if e.Bound != nil {
			bounds[e.Name] = *e.Bound
		}
	}
	for _, d := range catalog {
		if _, ok := bounds[d.name]; d.bounded() && !ok {
			return false, fmt.Errorf("%s: no bound for %s under end_to_end", manifestPath, d.name)
		}
	}
	sameSeed := a.Seed == b.Seed
	if !sameSeed {
		fmt.Fprintf(w, "note: seeds differ (%d vs %d); virtual-clock metrics compare exactly only between runs of one seed\n", a.Seed, b.Seed)
	}
	good := true
	for _, wl := range workloads(fullDims) {
		wa, wb := a.Workloads[wl.name], b.Workloads[wl.name]
		if wa == nil || wb == nil {
			fmt.Fprintf(w, "\n%s: missing from a report\n", wl.name)
			good = false
			continue
		}
		fmt.Fprintf(w, "\n%s\n  %-20s %14s %14s %10s %8s  %s\n", wl.name, "metric", "A", "B", "change", "bound", "verdict")
		for _, d := range catalog {
			if !d.endToEnd {
				continue
			}
			va, okA := wa.EndToEnd.Metrics[d.name]
			vb, okB := wb.EndToEnd.Metrics[d.name]
			if !okA && !okB {
				continue
			}
			if okA != okB {
				fmt.Fprintf(w, "  %-20s present in one report only\n", d.name)
				good = false
				continue
			}
			if d.name == "fail_ratio" {
				v := vOK
				if va.Value != 0 || vb.Value != 0 {
					v, good = vRegression, false
				}
				fmt.Fprintf(w, "  %-20s %14.6g %14.6g %10s %8s  %s\n", d.name, va.Value, vb.Value, "", "0", v)
				continue
			}
			v, change := compareMetric(d, bounds[d.name], va, vb, sameSeed)
			if v == vRegression || v == vDiffers {
				good = false
			}
			bound, delta := "exact", fmt.Sprintf("%+.4g", change)
			switch {
			case d.absBound > 0:
				bound = fmt.Sprintf("%g %s", d.absBound, d.unit)
			case !d.exact:
				bound = fmt.Sprintf("%g%%", bounds[d.name]*100)
				delta = fmt.Sprintf("%+.2f%%", change*100)
			}
			fmt.Fprintf(w, "  %-20s %14.6g %14.6g %10s %8s  %s\n", d.name, va.Value, vb.Value, delta, bound, v)
		}
	}
	return good, nil
}
