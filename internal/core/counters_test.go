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
