package main

import (
	"io"
	"os"
	"regexp"
	"strconv"
	"testing"
)

// runCaptured runs cmdRun with args and returns what it printed.
func runCaptured(t *testing.T, args ...string) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	out := make(chan []byte)
	go func() {
		data, _ := io.ReadAll(r)
		out <- data
	}()
	runErr := cmdRun(args)
	os.Stdout = stdout
	w.Close()
	printed := string(<-out)
	if runErr != nil {
		t.Fatalf("manasim run %v: %v\n%s", args, runErr, printed)
	}
	return printed
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
