package mana

import (
	"testing"

	"manasim/internal/ckptimg"
	"manasim/internal/mpi"
	"manasim/internal/vid"
)

// The legacy vid design must support the full checkpoint/restart cycle
// on the MPICH family (it was the production design before the paper);
// its images record Design="legacy" and restore through vidlegacy.
func TestLegacyDesignCheckpointRestart(t *testing.T) {
	plain, _, err := Run(implFactory(t, "mpich"), testRanks, newRingApp(testSteps), -1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := implFactory(t, "mpich")
	cfg.Design = DesignLegacy
	_, st := stopAt(t, cfg, testRanks, newRingApp(testSteps), 5)
	if img := headImages(t, st)[0]; img.Design != "legacy" {
		t.Fatalf("image design %q", img.Design)
	}
	// Restart configuration may leave Design unset: it follows the image.
	// (TestCrossImplementationRestart refuses the image elsewhere.)
	rst, err := restartWait(implFactory(t, "mpich"), st, newRingApp(testSteps))
	if err != nil {
		t.Fatalf("legacy restart: %v", err)
	}
	sameChecksums(t, plain.Checksums, rst.Checksums, "legacy restart")
}

// Crossings must be attributed per wrapped call: a run's crossing count
// is at least twice its wrapper calls (enter + leave), plus MANA's
// internal lower-half traffic.
func TestCrossingAccounting(t *testing.T) {
	cfg := implFactory(t, "mpich")
	st, _, err := Run(cfg, 4, newRingApp(8), -1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Crossings < 2*st.WrapperCalls {
		t.Fatalf("crossings %d < 2 x wrapper calls %d", st.Crossings, st.WrapperCalls)
	}
}

// A checkpoint scheduled beyond the job's end clamps to the final
// boundary and still produces a complete, restartable image set.
func TestCheckpointBeyondEndClampsToFinalBoundary(t *testing.T) {
	st, store := stopAt(t, implFactory(t, "mpich"), 4, newRingApp(6), 999)
	if st.CkptTaken != 1 {
		t.Fatalf("taken %d", st.CkptTaken)
	}
	if img := headImages(t, store)[0]; img.Step != 6 {
		t.Fatalf("checkpoint landed at step %d, want final boundary 6", img.Step)
	}
	// Restarting from the final boundary just runs Finalize.
	plain, _, err := Run(implFactory(t, "mpich"), 4, newRingApp(6), -1)
	if err != nil {
		t.Fatal(err)
	}
	rst, err := restartWait(implFactory(t, "mpich"), store, newRingApp(6))
	if err != nil {
		t.Fatal(err)
	}
	sameChecksums(t, plain.Checksums, rst.Checksums, "final-boundary restart")
}

// The store snapshot inside an image must reference every object kind
// the ring app creates, proving descriptors cover comms, groups-free
// paths, datatypes, and ops.
func TestImageDescriptorCoverage(t *testing.T) {
	cfg := implFactory(t, "openmpi")
	cfg.ExitAtCheckpoint = true
	_, images, err := Run(cfg, 4, newRingApp(6), 3)
	if err != nil {
		t.Fatal(err)
	}
	img, err := ckptimg.Decode(images[0])
	if err != nil {
		t.Fatal(err)
	}
	ops := map[vid.DescOp]bool{}
	kinds := map[mpi.Kind]bool{}
	var freed int
	for _, it := range img.Store.Items {
		ops[it.Desc.Op] = true
		kinds[it.Kind] = true
		if it.Freed {
			freed++
		}
	}
	for _, want := range []vid.DescOp{vid.DescConst, vid.DescCommSplit, vid.DescCommDup, vid.DescTypeContig, vid.DescOpCreate} {
		if !ops[want] {
			t.Errorf("image lacks a %v descriptor", want)
		}
	}
	if !kinds[mpi.KindComm] || !kinds[mpi.KindDatatype] || !kinds[mpi.KindOp] {
		t.Errorf("image kinds incomplete: %v", kinds)
	}
	if freed == 0 {
		t.Error("the freed scratch communicator's descriptor is missing")
	}
	// Comms carry nonzero ggids after the checkpoint pinned them.
	for _, it := range img.Store.Items {
		if it.Kind == mpi.KindComm && !it.Desc.ResultNull && !it.Freed && it.GGID == 0 {
			t.Errorf("live communicator %#x has no ggid", uint64(it.Virt))
		}
	}
}
