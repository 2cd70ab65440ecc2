package mana

import (
	"runtime"
	"testing"
)

// TestCountersFlatInRanks: a rank's message counters are sized by the
// peers it talks to, not by the job. Pipelined LAMMPS checkpointed at
// 64 and at 256 ranks stores images of one size, and its runtimes'
// counter lists cost the same heap per rank, counted from a memory
// profile that samples every allocation. Dense per-world-rank vectors
// would cost 16n bytes a rank in both: 1 KB at 64 ranks, 4 KB at 256.
func TestCountersFlatInRanks(t *testing.T) {
	const fn = "manasim/internal/ckptimg.(*Counters).at"
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	var imageBytes, heapPerRank []int64
	for _, n := range []int{64, 256} {
		appf, in := pipelinedLammps(t, n)
		cfg := faultCfg(t, "mpich", nil)
		cfg.ExitAtCheckpoint = true
		before := heapBytesThrough(fn)
		st, images, err := Run(cfg, n, appf, in.SimSteps/2)
		if err != nil || st.CkptTaken != 1 {
			t.Fatalf("%d ranks: %d checkpoints, %v", n, st.CkptTaken, err)
		}
		perRank := (heapBytesThrough(fn) - before) / int64(n)
		size := int64(len(images[0]))
		for r, data := range images {
			if int64(len(data)) != size {
				t.Errorf("%d ranks: rank %d stores %d bytes, rank 0 %d", n, r, len(data), size)
			}
		}
		t.Logf("%d ranks: %d B per image, %d B of counters per rank", n, size, perRank)
		imageBytes, heapPerRank = append(imageBytes, size), append(heapPerRank, perRank)
	}
	if imageBytes[1] != imageBytes[0] {
		t.Errorf("an image stores %d bytes at 256 ranks, %d at 64", imageBytes[1], imageBytes[0])
	}
	if heapPerRank[0] <= 0 || heapPerRank[1] > heapPerRank[0] || heapPerRank[0] >= 16*64 {
		t.Errorf("counters cost %d B per rank at 64 ranks and %d at 256, want equal and under a 64-rank dense pair's %d", heapPerRank[0], heapPerRank[1], 16*64)
	}
}

// TestJobAllocsFlatInRanks: what a job costs the host per rank does not
// grow with the job. A pipelined LAMMPS job checkpointed under toposort
// allocates, per rank, at most 1.05× the bytes at 1 024 ranks that it
// does at 256, and no more heap objects, counted over the whole run:
// launch, steps, drain, encode and commit. A dense n-entry vector per
// rank anywhere on that path — a mailbox's source index (16 B × n), a
// counter or row as long as the world — adds 12 KB per rank at 1 024
// ranks and breaks the bound. Twophase is logged, not held: its
// Alltoall exchanges an n-entry row per rank (24n bytes), the paper's
// protocol.
func TestJobAllocsFlatInRanks(t *testing.T) {
	cost := func(strat string, n int) (bytes, objects float64) {
		appf, in := pipelinedLammps(t, n)
		cfg := faultCfg(t, "mpich", nil)
		cfg.DrainStrategy, cfg.ExitAtCheckpoint = strat, true
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		st, _, err := Run(cfg, n, appf, in.SimSteps/2)
		runtime.ReadMemStats(&m1)
		if err != nil || st.CkptTaken != 1 {
			t.Fatalf("%s at %d ranks: %d checkpoints, %v", strat, n, st.CkptTaken, err)
		}
		bytes = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n)
		objects = float64(m1.Mallocs-m0.Mallocs) / float64(n)
		t.Logf("%s at %d ranks: %.1f KB and %.0f objects per rank", strat, n, bytes/1024, objects)
		return bytes, objects
	}
	b256, o256 := cost("toposort", 256)
	b1k, o1k := cost("toposort", 1024)
	if b1k > 1.05*b256 || o1k > o256 {
		t.Errorf("toposort: %.1f KB and %.0f objects per rank at 1024 ranks, %.1f KB and %.0f at 256; want at most 1.05× the bytes and no more objects",
			b1k/1024, o1k, b256/1024, o256)
	}
	cost("twophase", 256)
	cost("twophase", 1024)
}
