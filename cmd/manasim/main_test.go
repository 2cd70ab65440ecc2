package main

import (
	"compress/gzip"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"manasim/internal/apps"
	ckptsub "manasim/internal/ckpt"
	mana "manasim/internal/core"
	"manasim/internal/harness"
	"manasim/internal/impls"
	"manasim/internal/simtime"
)

// runCaptured runs cmdRun with args and returns what it printed.
func runCaptured(t *testing.T, args ...string) string {
	t.Helper()
	printed, err := capture(cmdRun, args...)
	if err != nil {
		t.Fatalf("manasim run %v: %v\n%s", args, err, printed)
	}
	return printed
}

// capture runs a subcommand with args and returns what it printed.
func capture(cmd func([]string) error, args ...string) (string, error) {
	r, w, err := os.Pipe()
	if err != nil {
		return "", err
	}
	stdout := os.Stdout
	os.Stdout = w
	out := make(chan []byte)
	go func() {
		data, _ := io.ReadAll(r)
		out <- data
	}()
	runErr := cmd(args)
	os.Stdout = stdout
	w.Close()
	return string(<-out), runErr
}

// TestRunFaultsReachTheStore: -faults together with a store option
// (here -delta) must wrap the store the run checkpoints into, so the
// plan's scheduled store faults fire and are reported.
func TestRunFaultsReachTheStore(t *testing.T) {
	out := runCaptured(t, "-app", "comd", "-impl", "mpich", "-mana", "-faults", "-delta",
		"-ranks", "4", "-steps", "6", "-ckpt", "3")
	m := regexp.MustCompile(`(\d+) store ops failed`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no fault report in the output:\n%s", out)
	}
	if n, _ := strconv.Atoi(m[1]); n == 0 {
		t.Fatalf("the planned store faults never fired:\n%s", out)
	}
}

// TestExperimentJSON: -json writes the tables of the experiment it ran
// as JSON that parses, keyed by experiment name.
func TestExperimentJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "table1.json")
	printed, err := capture(cmdExperiment, "-name", "table1", "-json", path)
	if err != nil {
		t.Fatalf("%v\n%s", err, printed)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string][]struct {
		Title string
		Rows  []map[string]any
	}
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, data)
	}
	if tables := got["table1"]; len(tables) != 1 || len(tables[0].Rows) != 5 || !strings.Contains(printed, tables[0].Title) {
		t.Fatalf("-json holds %+v; printed:\n%s", got, printed)
	}
}

// TestExperimentUnknownName: an unknown -name fails, listing every
// registered experiment.
func TestExperimentUnknownName(t *testing.T) {
	_, err := capture(cmdExperiment, "-name", "fig9")
	if err == nil {
		t.Fatal("experiment -name fig9 succeeded")
	}
	for _, name := range harness.ExperimentNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %s", err, name)
		}
	}
}

// TestRunRejectsUnpairedFlags: a flag that only acts together with
// another must fail naming the missing partner instead of being
// silently dropped.
func TestRunRejectsUnpairedFlags(t *testing.T) {
	for _, c := range []struct {
		args    []string
		missing string
	}{
		{[]string{"-compress-tier", "fast-lz"}, "-compress"},
		{[]string{"-restart-impl", "openmpi"}, "-ckpt"},
		{[]string{"-corrupt-rate", "0.08"}, "-mtbf"},
		{[]string{"-restart-fallback"}, "-mtbf or -restart-impl"},
	} {
		args := append([]string{"-app", "comd", "-impl", "mpich", "-mana", "-ranks", "4", "-steps", "2"}, c.args...)
		_, err := capture(cmdRun, args...)
		if err == nil || !strings.Contains(err.Error(), "needs "+c.missing+" ") {
			t.Errorf("run %v: error %v, want one naming %s", c.args, err, c.missing)
		}
	}
}

// TestRunRejectsCkptPastLastBoundary: CoMD simulates 4 steps by
// default, so boundary 4 is its last. A checkpoint requested past it
// would never be taken; run refuses it before launch instead of
// checkpointing at the end and restarting a finished job.
func TestRunRejectsCkptPastLastBoundary(t *testing.T) {
	for _, c := range []struct {
		ckpt string
		want string // "" when the run must succeed
	}{
		{"4", ""},
		{"5", "-ckpt 5 is past the last step boundary, 4"},
	} {
		args := []string{"-app", "comd", "-impl", "mpich", "-mana", "-ckpt", c.ckpt, "-uniform", "-restart-impl", "openmpi"}
		out, err := capture(cmdRun, args...)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("run %v: %v\n%s", args, err, out)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("run %v: error %v, want one containing %q", args, err, c.want)
		}
	}
}

// TestRunMTBFCheckpoints: -mtbf without -ckpt-interval checkpoints at
// the Young/Daly interval, and a crash after a committed checkpoint
// restarts from the store. A checkpoint request lands SkewBound (8)
// steps after it is made, about 6 ms of this job, so at a 2 ms MTBF no
// attempt of the default fault seed lives to its first commit; the
// restart is required at 4 ms.
func TestRunMTBFCheckpoints(t *testing.T) {
	for _, c := range []struct {
		mtbf    string
		restart bool
	}{{"2ms", false}, {"4ms", true}} {
		out := runCaptured(t, "-app", "lammps", "-mana", "-ranks", "8", "-steps", "24", "-mtbf", c.mtbf)
		m := regexp.MustCompile(`restarts=(\d+) ckpts=(\d+) interval=([0-9.]+)ms`).FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("-mtbf %s: no service summary in the output:\n%s", c.mtbf, out)
		}
		restarts, _ := strconv.Atoi(m[1])
		ckpts, _ := strconv.Atoi(m[2])
		interval, _ := strconv.ParseFloat(m[3], 64)
		if ckpts == 0 || interval <= 0 {
			t.Errorf("-mtbf %s: %d checkpoints at a %.2f ms interval, want a positive Young/Daly interval that checkpoints:\n%s", c.mtbf, ckpts, interval, out)
		}
		if c.restart && restarts == 0 {
			t.Errorf("-mtbf %s: no crash restarted from the store:\n%s", c.mtbf, out)
		}
	}
}

// TestRunPrintsPeriodicCheckpoints: a -ckpt-interval run prints one
// line per checkpoint it committed, as many as the same job run
// directly reports in Stats.CkptTaken, in generation order.
func TestRunPrintsPeriodicCheckpoints(t *testing.T) {
	out := runCaptured(t, "-app", "lammps", "-mana", "-ranks", "8", "-steps", "24", "-ckpt-interval", "1ms")
	lines := regexp.MustCompile(`(?m)^checkpoint: generation (\d+) at step \d+, \d+ KB stored, committed at vt=[0-9.]+s \(cost [0-9.]+s\)$`).
		FindAllStringSubmatch(out, -1)

	spec, err := apps.ByName("lammps")
	if err != nil {
		t.Fatal(err)
	}
	in := spec.DefaultInput(apps.SiteDiscovery)
	in.Ranks, in.Steps, in.SimSteps = 8, 24, 24
	factory, err := impls.Get("mpich")
	if err != nil {
		t.Fatal(err)
	}
	st, _, err := mana.Run(mana.Config{
		ImplName: "mpich", Factory: factory, Host: simtime.Discovery(),
		DrainStrategy: ckptsub.DefaultDrain, CkptInterval: time.Millisecond,
	}, in.Ranks, spec.New(in), -1)
	if err != nil {
		t.Fatal(err)
	}
	if st.CkptTaken == 0 || len(lines) != st.CkptTaken {
		t.Fatalf("printed %d checkpoint lines, the job took %d checkpoints:\n%s", len(lines), st.CkptTaken, out)
	}
	for i, m := range lines {
		if m[1] != strconv.Itoa(i) {
			t.Fatalf("checkpoint line %d names generation %s:\n%s", i, m[1], out)
		}
	}
}

// TestProfileEnv: MANASIM_PROFILE=cpu=FILE,mem=FILE makes a run write
// both profiles, each a non-empty gzip-compressed pprof file, and a
// malformed value is refused before anything runs.
func TestProfileEnv(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	t.Setenv(profileEnv, "cpu="+cpu+",mem="+mem)
	stop, err := startProfiles(os.Getenv(profileEnv))
	if err != nil {
		t.Fatal(err)
	}
	runCaptured(t, "-app", "comd", "-mana", "-ranks", "4", "-steps", "4", "-ckpt", "2")
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		zr, err := gzip.NewReader(f)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		data, err := io.ReadAll(zr)
		f.Close()
		if err != nil || len(data) == 0 {
			t.Fatalf("%s: %d bytes of profile, %v", path, len(data), err)
		}
	}
	for _, spec := range []string{"cpu", "cpu=", "heap=" + mem, "mem=a,mem=b"} {
		if _, err := startProfiles(spec); err == nil {
			t.Errorf("%s=%q accepted", profileEnv, spec)
		}
	}
}
