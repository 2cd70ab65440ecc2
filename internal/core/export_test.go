package mana

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"manasim/internal/ckptstore"
)

// copyTree copies the fs backend's directory byte for byte — the
// "export" of a checkpoint store is nothing more than its files.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(p string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestHelperStoreResume is the subprocess half of the cross-process
// round trip: it runs only when pointed at an exported store directory,
// adopts the store's geometry from its manifest (OpenExisting — the
// same entry the scrub CLI uses), resumes the job to completion, and
// prints per-rank checksums for the parent to compare.
func TestHelperStoreResume(t *testing.T) {
	dir := os.Getenv("MANASIM_RESUME_DIR")
	if dir == "" {
		t.Skip("subprocess helper; driven by TestStoreExportImportResumeCrossProcess")
	}
	impl := os.Getenv("MANASIM_RESUME_IMPL")
	steps, err := strconv.Atoi(os.Getenv("MANASIM_RESUME_STEPS"))
	if err != nil {
		t.Fatal(err)
	}
	st, err := ckptstore.OpenExisting(ckptstore.Options{Backend: "fs", Dir: dir})
	if err != nil {
		t.Fatalf("importing exported store: %v", err)
	}
	cfg := implFactory(t, impl)
	rst, err := restartWait(cfg, st, newRingApp(steps))
	if err != nil {
		t.Fatalf("resuming exported store: %v", err)
	}
	for r, c := range rst.Checksums {
		fmt.Printf("resume-checksum %d %016x\n", r, c)
	}
}

// The cross-machine CI round trip: TestHelperStoreExport runs in one CI
// job, its output directory is uploaded as a build artifact, and
// TestHelperStoreImport runs in a *separate* job on a different runner
// against the downloaded copy. Both halves run from the same commit, so
// these constants are the contract between them.
const (
	exportRanks = 4
	exportSteps = 12
	exportAt    = 6
)

var exportImpls = []string{"mpich", "craympi", "openmpi", "exampi"}

// TestHelperStoreExport writes, for every simulated MPI implementation,
// an fs-backed checkpoint store (stopped at a mid-run boundary) plus
// the uninterrupted run's per-rank checksums under
// $MANASIM_EXPORT_DIR/<impl>/. The store lives in a store/ subdirectory
// so the expected-checksums file never shares a directory with backend
// blobs.
func TestHelperStoreExport(t *testing.T) {
	root := os.Getenv("MANASIM_EXPORT_DIR")
	if root == "" {
		t.Skip("CI export helper; set MANASIM_EXPORT_DIR to run")
	}
	for _, impl := range exportImpls {
		t.Run(impl, func(t *testing.T) {
			clean, _, err := Run(implFactory(t, impl), exportRanks, newRingApp(exportSteps), -1)
			if err != nil {
				t.Fatal(err)
			}
			dir := filepath.Join(root, impl)
			if err := os.MkdirAll(filepath.Join(dir, "store"), 0o755); err != nil {
				t.Fatal(err)
			}
			st, err := ckptstore.Open(exportRanks, ckptstore.Options{
				Backend: "fs", Dir: filepath.Join(dir, "store"), Delta: true, ChunkBytes: 64,
			})
			if err != nil {
				t.Fatal(err)
			}
			cfg := implFactory(t, impl)
			cfg.Store = st
			cfg.ExitAtCheckpoint = true
			if _, _, err := Run(cfg, exportRanks, newRingApp(exportSteps), exportAt); err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			for r, c := range clean.Checksums {
				fmt.Fprintf(&b, "%d %016x\n", r, c)
			}
			if err := os.WriteFile(filepath.Join(dir, "expected-checksums.txt"), []byte(b.String()), 0o644); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestHelperStoreImport adopts each exported store via OpenExisting on
// a machine that shares nothing with the exporter but the artifact
// directory, resumes the job to completion, and requires the per-rank
// checksums to equal the exporter's uninterrupted run.
func TestHelperStoreImport(t *testing.T) {
	root := os.Getenv("MANASIM_IMPORT_DIR")
	if root == "" {
		t.Skip("CI import helper; set MANASIM_IMPORT_DIR to run")
	}
	for _, impl := range exportImpls {
		t.Run(impl, func(t *testing.T) {
			dir := filepath.Join(root, impl)
			data, err := os.ReadFile(filepath.Join(dir, "expected-checksums.txt"))
			if err != nil {
				t.Fatalf("artifact missing expected checksums: %v", err)
			}
			want := make(map[int]string)
			for _, ln := range strings.Split(strings.TrimSpace(string(data)), "\n") {
				var r int
				var sum string
				if _, err := fmt.Sscanf(ln, "%d %s", &r, &sum); err != nil {
					t.Fatalf("bad checksum line %q: %v", ln, err)
				}
				want[r] = sum
			}
			st, err := ckptstore.OpenExisting(ckptstore.Options{
				Backend: "fs", Dir: filepath.Join(dir, "store"),
			})
			if err != nil {
				t.Fatalf("importing exported store: %v", err)
			}
			rst, err := restartWait(implFactory(t, impl), st, newRingApp(exportSteps))
			if err != nil {
				t.Fatalf("resuming imported store: %v", err)
			}
			if len(rst.Checksums) != len(want) {
				t.Fatalf("resumed %d ranks, exporter recorded %d", len(rst.Checksums), len(want))
			}
			for r, c := range rst.Checksums {
				if got := fmt.Sprintf("%016x", c); got != want[r] {
					t.Errorf("rank %d: imported-resume checksum %s, exporter %s", r, got, want[r])
				}
			}
		})
	}
}

// TestExportImportHelpersRoundTrip keeps the two CI helpers honest
// locally: it runs them as fresh subprocesses (no shared memory, like
// the two CI runners) against one shared directory.
func TestExportImportHelpersRoundTrip(t *testing.T) {
	if os.Getenv("MANASIM_EXPORT_DIR") != "" || os.Getenv("MANASIM_IMPORT_DIR") != "" {
		t.Skip("already inside a helper invocation")
	}
	dir := t.TempDir()
	for _, h := range []struct{ name, env string }{
		{"TestHelperStoreExport", "MANASIM_EXPORT_DIR"},
		{"TestHelperStoreImport", "MANASIM_IMPORT_DIR"},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^"+h.name+"$", "-test.v")
		cmd.Env = append(os.Environ(), h.env+"="+dir)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s failed: %v\n%s", h.name, err, out)
		}
		if strings.Contains(string(out), "SKIP") {
			t.Fatalf("%s skipped instead of running:\n%s", h.name, out)
		}
	}
}

// TestStoreExportImportResumeCrossProcess: a checkpoint store written
// on the fs backend survives export (directory copy), import by a
// process with no shared memory — a fresh `go test` subprocess — and
// resumption there, with per-rank checksums agreeing with an
// uninterrupted in-process run on every simulated MPI implementation.
func TestStoreExportImportResumeCrossProcess(t *testing.T) {
	const ranks, steps, at = 4, 10, 5
	line := regexp.MustCompile(`resume-checksum (\d+) ([0-9a-f]{16})`)
	for _, impl := range []string{"mpich", "craympi", "openmpi", "exampi"} {
		t.Run(impl, func(t *testing.T) {
			clean, _, err := Run(implFactory(t, impl), ranks, newRingApp(steps), -1)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			st, err := ckptstore.Open(ranks, ckptstore.Options{
				Backend: "fs", Dir: dir, Delta: true, ChunkBytes: 64,
			})
			if err != nil {
				t.Fatal(err)
			}
			cfg := implFactory(t, impl)
			cfg.Store = st
			cfg.ExitAtCheckpoint = true
			if _, _, err := Run(cfg, ranks, newRingApp(steps), at); err != nil {
				t.Fatal(err)
			}

			exported := t.TempDir()
			copyTree(t, dir, exported)

			cmd := exec.Command(os.Args[0], "-test.run=^TestHelperStoreResume$", "-test.v")
			cmd.Env = append(os.Environ(),
				"MANASIM_RESUME_DIR="+exported,
				"MANASIM_RESUME_IMPL="+impl,
				fmt.Sprintf("MANASIM_RESUME_STEPS=%d", steps),
			)
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("subprocess resume failed: %v\n%s", err, out)
			}
			got := make(map[int]string)
			for _, m := range line.FindAllStringSubmatch(string(out), -1) {
				r, _ := strconv.Atoi(m[1])
				got[r] = m[2]
			}
			if len(got) != ranks {
				t.Fatalf("subprocess reported %d checksums, want %d:\n%s", len(got), ranks, out)
			}
			for r, want := range clean.Checksums {
				if got[r] != fmt.Sprintf("%016x", want) {
					t.Errorf("rank %d: cross-process checksum %s, in-process %016x", r, got[r], want)
				}
			}
		})
	}
}
