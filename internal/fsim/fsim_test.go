package fsim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestNFSTrendMatchesTable3(t *testing.T) {
	fs := NFSv3()
	// Table 3's qualitative claim: checkpoint time grows with image
	// size, and effective MB/s/rank improves with image size (startup
	// amortization).
	sizes := []int64{32 << 20, 42 << 20, 49 << 20, 207 << 20, 934 << 20}
	for i := 1; i < len(sizes); i++ {
		if fs.WriteCost(sizes[i]) <= fs.WriteCost(sizes[i-1]) {
			t.Fatalf("write cost not monotone at %d", sizes[i])
		}
		if fs.EffectiveMBps(sizes[i]) <= fs.EffectiveMBps(sizes[i-1]) {
			t.Fatalf("MB/s/rank not improving at %d", sizes[i])
		}
	}
	// Coarse absolute anchors from Table 3 (CoMD ~8.9s, HPCG ~72.9s).
	if c := fs.WriteCost(32 << 20).Seconds(); c < 6 || c > 12 {
		t.Fatalf("CoMD-sized ckpt %.1fs (Table 3: 8.9s)", c)
	}
	if c := fs.WriteCost(934 << 20).Seconds(); c < 60 || c > 90 {
		t.Fatalf("HPCG-sized ckpt %.1fs (Table 3: 72.9s)", c)
	}
}

// lustre is a parallel-filesystem profile representative of a
// production scratch tier (~1 GB/s/rank effective, small startup).
func lustre() FS {
	return FS{Name: "lustre", Startup: 300 * time.Millisecond, PerMB: time.Millisecond}
}

func TestLustreFasterThanNFS(t *testing.T) {
	if lustre().WriteCost(100<<20) >= NFSv3().WriteCost(100<<20) {
		t.Fatal("Lustre not faster than NFS")
	}
}

// TestTierProfilesOrdered pins the orderings the tiered-backend
// experiment relies on: burst-buffer commits beat every durable tier on
// checkpoint-sized images, and the object store is round-trip-bound but
// still far cheaper than the NFS model for small images.
func TestTierProfilesOrdered(t *testing.T) {
	const img = 32 << 20
	bb, obj, nfs := BurstBuffer(), ObjStore(), NFSv3()
	if bb.WriteCost(img) >= obj.WriteCost(img) {
		t.Fatal("burst buffer not faster than object store")
	}
	if obj.WriteCost(img) >= nfs.WriteCost(img) {
		t.Fatal("object store not faster than the NFS model")
	}
	// Small objects are round-trip-dominated: under ~1 MB, halving the
	// size barely moves the cost.
	small, smaller := obj.WriteCost(1<<20), obj.WriteCost(1<<19)
	if small-smaller > obj.Startup/2 {
		t.Fatalf("object store not latency-bound on small objects: %v vs %v", small, smaller)
	}
}

func TestWriteCostMonotoneProperty(t *testing.T) {
	fs := NFSv3()
	f := func(a, b uint32) bool {
		x, y := int64(a), int64(b)
		if x > y {
			x, y = y, x
		}
		return fs.WriteCost(x) <= fs.WriteCost(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReadCheaperThanWrite(t *testing.T) {
	fs := NFSv3()
	if fs.ReadCost(207<<20) >= fs.WriteCost(207<<20) {
		t.Fatal("read not cheaper than write")
	}
}
