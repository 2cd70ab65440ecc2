package mana

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"manasim/internal/app"
	"manasim/internal/apps"
	"manasim/internal/ckptimg"
	"manasim/internal/ckptstore"
	"manasim/internal/cluster"
)

// snapMeter counts the bytes an application's Snapshot hands the
// checkpoint path.
type snapMeter struct {
	app.Instance
	bytes *atomic.Int64
}

func (m snapMeter) Snapshot() ([]byte, error) {
	data, err := m.Instance.Snapshot()
	m.bytes.Add(int64(len(data)))
	return data, err
}

// TestCheckpointAllocBound guards the checkpoint write path with a
// count, not a stopwatch: a 4-rank HPCG takes three store generations
// (delta + dedup + fast-lz) and the bytes allocated for them — the run's
// TotalAlloc less that of the same run without checkpoints — stay
// within twice the snapshots' own size. One times is the snapshot
// itself; a second whole-state buffer anywhere in snapshot, encode or
// commit (gob at 3x, an uncompressed-size encode buffer, a decoded copy
// in Commit: 6x before the flat codec) breaks the bound on any host.
func TestCheckpointAllocBound(t *testing.T) {
	const ranks, steps = 4, 12
	spec, err := apps.ByName("hpcg")
	if err != nil {
		t.Fatal(err)
	}
	in := spec.DefaultInput(apps.SiteDiscovery)
	in.Ranks, in.SimSteps, in.Local, in.PollsPerStep = ranks, steps, 16, 4
	cfg := faultCfg(t, "mpich", cluster.KernelEvent, nil)
	native, err := RunNative(cfg, ranks, spec.New(in))
	if err != nil {
		t.Fatal(err)
	}

	var snapBytes atomic.Int64
	inner := spec.New(in)
	factory := func() app.Instance { return snapMeter{inner(), &snapBytes} }
	run := func(interval time.Duration) (alloc uint64, gens int) {
		t.Helper()
		// The state is 352 KB a rank; 32 KB chunks give it the dozen
		// chunks per image the default gives a production-size one.
		st, err := ckptstore.Open(ranks, ckptstore.Options{
			Delta: true, Dedup: true, ChunkBytes: 32 << 10,
			Compress: true, CompressTier: ckptimg.TierFastLZ,
		})
		if err != nil {
			t.Fatal(err)
		}
		c := cfg
		c.Store, c.CkptInterval, c.SkewBound = st, interval, 1
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		stats, err := func() (Stats, error) {
			s, err := StartJob(c, ranks, factory)
			if err != nil {
				return Stats{}, err
			}
			return s.Wait()
		}()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		sameChecksums(t, stats.Checksums, native.Checksums, "checkpointed run vs native")
		return after.TotalAlloc - before.TotalAlloc, len(st.Generations())
	}

	plain, gens := run(0)
	if gens != 0 || snapBytes.Load() != 0 {
		t.Fatalf("reference run took %d generations", gens)
	}
	with, gens := run(native.VT / steps)
	if gens < 3 {
		t.Fatalf("%d generations committed, want at least 3", gens)
	}
	snaps := uint64(snapBytes.Load())
	// The matrix and the four CG vectors: 11 doubles per grid point.
	if want := uint64(gens * ranks * 11 * 8 * 16 * 16 * 16); snaps < want {
		t.Fatalf("%d generations snapshotted %d bytes, want at least %d", gens, snaps, want)
	}
	extra := with - plain
	t.Logf("%d generations: %d bytes allocated for %d bytes of snapshots (%.2fx)", gens, extra, snaps, float64(extra)/float64(snaps))
	if extra > 2*snaps {
		t.Fatalf("checkpointing allocated %d bytes for %d bytes of snapshots (%.2fx, bound 2x): a whole-state buffer is back on the write path",
			extra, snaps, float64(extra)/float64(snaps))
	}
}

// TestRestartReleasesImages: a restarted session must not pin the
// images it restarted from. Both callers of restartJobImages hand over
// images they own; once a rank has restored, its image holds no
// application state, so the decoded copy dies with the restore instead
// of living as long as the session.
func TestRestartReleasesImages(t *testing.T) {
	const ranks = 4
	spec, in := batteryInput(t, "hpcg", 7)
	cfg := faultCfg(t, "mpich", cluster.KernelEvent, nil)
	stop := cfg
	stop.ExitAtCheckpoint = true
	_, encoded, err := Run(stop, ranks, spec.New(in), 2)
	if err != nil {
		t.Fatal(err)
	}
	imgs := make([]*ckptimg.Image, ranks)
	for r, data := range encoded {
		if imgs[r], err = ckptimg.Decode(data); err != nil {
			t.Fatal(err)
		}
		if len(imgs[r].AppState) == 0 {
			t.Fatalf("rank %d image has no application state to release", r)
		}
	}
	s, err := restartJobImages(cfg, imgs, nil, spec.New(in))
	if err != nil {
		t.Fatal(err)
	}
	rst, err := s.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for r, img := range imgs {
		if img.AppState != nil {
			t.Errorf("rank %d: the session still holds %d bytes of restored application state", r, len(img.AppState))
		}
	}
	plain, _, err := Run(cfg, ranks, spec.New(in), -1)
	if err != nil {
		t.Fatal(err)
	}
	sameChecksums(t, rst.Checksums, plain.Checksums, "restart from handed-over images")
}
