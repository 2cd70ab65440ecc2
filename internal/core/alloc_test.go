package mana

import (
	"bytes"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"manasim/internal/app"
	"manasim/internal/apps"
	"manasim/internal/ckptimg"
	"manasim/internal/ckptstore"
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
// within three quarters of the snapshots' own size. The checkpoint path
// releases each snapshot once its image is encoded and the next rank's
// snapshot fills the same buffer, so the snapshots themselves cost
// almost nothing and what remains is the encoded images, their indexes
// and the commit (0.3-0.5x; 1.4x when every snapshot was a fresh
// buffer). A whole-state buffer allocated per checkpoint anywhere in
// snapshot, encode or commit — a snapshot that is never recycled, an
// uncompressed-size encode buffer, a decoded copy in Commit — puts it
// back above 1x on any host.
func TestCheckpointAllocBound(t *testing.T) {
	job := newCkptJob(t)
	var snapBytes atomic.Int64
	factory := func() app.Instance { return snapMeter{job.factory(), &snapBytes} }
	run := func(interval time.Duration) (alloc uint64, gens int) {
		t.Helper()
		st := job.store(t)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		stats := job.run(t, st, interval, factory)
		runtime.ReadMemStats(&after)
		sameChecksums(t, stats.Checksums, job.native.Checksums, "checkpointed run vs native")
		return after.TotalAlloc - before.TotalAlloc, len(st.Generations())
	}

	plain, gens := run(0)
	if gens != 0 || snapBytes.Load() != 0 {
		t.Fatalf("reference run took %d generations", gens)
	}
	with, gens := run(job.interval())
	if gens < 3 {
		t.Fatalf("%d generations committed, want at least 3", gens)
	}
	snaps := uint64(snapBytes.Load())
	// The matrix and the four CG vectors: 11 doubles per grid point.
	if want := uint64(gens * ckptJobRanks * 11 * 8 * 16 * 16 * 16); snaps < want {
		t.Fatalf("%d generations snapshotted %d bytes, want at least %d", gens, snaps, want)
	}
	extra := with - plain
	t.Logf("%d generations: %d bytes allocated for %d bytes of snapshots (%.2fx)", gens, extra, snaps, float64(extra)/float64(snaps))
	// The race detector's sync.Pool drops a random quarter of what is
	// put back, so there a quarter of the snapshots are fresh buffers;
	// the bound stays at 2x, which a second whole-state buffer per
	// checkpoint still breaks.
	limit, bound := snaps*3/4, "0.75x"
	if raceEnabled {
		limit, bound = 2*snaps, "2x"
	}
	if extra > limit {
		t.Fatalf("checkpointing allocated %d bytes for %d bytes of snapshots (%.2fx, bound %s): a whole-state buffer is back on the write path",
			extra, snaps, float64(extra)/float64(snaps), bound)
	}
}

// The rank and step counts of ckptJob.
const ckptJobRanks, ckptJobSteps = 4, 12

// ckptJob is the job the write-path tests checkpoint: a 4-rank HPCG
// with 352 KB of state a rank, 12 steps, and its native run's Stats to
// compare against.
type ckptJob struct {
	cfg     Config
	factory app.Factory
	native  Stats
}

func newCkptJob(t *testing.T) ckptJob {
	t.Helper()
	spec, err := apps.ByName("hpcg")
	if err != nil {
		t.Fatal(err)
	}
	in := spec.DefaultInput(apps.SiteDiscovery)
	in.Ranks, in.SimSteps, in.Local, in.PollsPerStep = ckptJobRanks, ckptJobSteps, 16, 4
	job := ckptJob{cfg: faultCfg(t, "mpich", nil), factory: spec.New(in)}
	if job.native, err = RunNative(job.cfg, ckptJobRanks, job.factory); err != nil {
		t.Fatal(err)
	}
	return job
}

// interval is a checkpoint interval of one step's virtual time.
func (j ckptJob) interval() time.Duration { return j.native.VT / ckptJobSteps }

// store opens a delta + dedup + fast-lz store. The state is 352 KB a
// rank; 32 KB chunks give it the dozen chunks per image the default
// gives a production-size one.
func (j ckptJob) store(t *testing.T) *ckptstore.Store {
	t.Helper()
	st, err := ckptstore.Open(ckptJobRanks, ckptstore.Options{
		Delta: true, Dedup: true, ChunkBytes: 32 << 10,
		Compress: true, CompressTier: ckptimg.TierFastLZ,
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// run runs the job to completion into st, checkpointing every interval
// (none when zero).
func (j ckptJob) run(t *testing.T, st *ckptstore.Store, interval time.Duration, factory app.Factory) Stats {
	t.Helper()
	c := j.cfg
	c.Store, c.CkptInterval, c.SkewBound = st, interval, 1
	s, err := StartJob(c, ckptJobRanks, factory)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := s.Wait()
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

// storedObjects reads back every object st's backend holds: each
// generation's per-rank recipe and the segments the images split into.
func storedObjects(t *testing.T, st *ckptstore.Store) map[string][]byte {
	t.Helper()
	keys, err := st.Backend().List()
	if err != nil {
		t.Fatal(err)
	}
	objs := make(map[string][]byte, len(keys))
	for _, k := range keys {
		if objs[k], err = st.Backend().Get(k); err != nil {
			t.Fatal(err)
		}
	}
	return objs
}

// TestCommittedImagesSurviveRecycledSnapshots is the write-side twin of
// TestRestoredRanksSurviveSharedBuffer: the checkpoint path releases
// every snapshot once its image is encoded, and the next snapshot — the
// next rank's, the next generation's, the next job's — fills the same
// buffer. The same checkpointed job run twice in one process, the
// second time drawing the first run's buffers and stale 0xAA-filled ones,
// must commit the same bytes for every rank and generation and end with
// the same Stats: no stale byte reaches an image and no encoded image
// aliases a snapshot that was recycled under it.
func TestCommittedImagesSurviveRecycledSnapshots(t *testing.T) {
	job := newCkptJob(t)
	run := func() (Stats, map[string][]byte) {
		t.Helper()
		st := job.store(t)
		stats := job.run(t, st, job.interval(), job.factory)
		sameChecksums(t, stats.Checksums, job.native.Checksums, "checkpointed run vs native")
		if gens := len(st.Generations()); gens < 3 {
			t.Fatalf("%d generations committed, want at least 3", gens)
		}
		stats.Wall = 0
		return stats, storedObjects(t, st)
	}

	// Empty the pool, so the first run starts from fresh buffers.
	runtime.GC()
	runtime.GC()
	first, firstObjs := run()
	// Larger than a rank's 352 KB state, so any snapshot can draw them.
	for range 2 * ckptJobRanks {
		app.ReleaseSnapshot(bytes.Repeat([]byte{0xAA}, 1<<20))
	}
	second, secondObjs := run()

	if d := firstStatsDiff(first, second); d != "none" {
		t.Errorf("Stats differ between the runs: %s", d)
	}
	if len(firstObjs) != len(secondObjs) {
		t.Fatalf("the stores hold %d and %d objects", len(firstObjs), len(secondObjs))
	}
	for k, want := range firstObjs {
		if got, ok := secondObjs[k]; !ok {
			t.Errorf("%s: committed by the first run only", k)
		} else if !bytes.Equal(got, want) {
			t.Errorf("%s: the run on recycled snapshot buffers committed different bytes", k)
		}
	}
}

// TestUncompressedCommitAllocBound: encoding uncompressed full images
// and committing them into a mem store allocates little more than the
// bytes the store keeps. Each image is encoded in pooled scratch and
// returned at exact size, and the store keeps that slice as its blob,
// so an image's bytes are allocated once (about 1.0x). A whole-image
// buffer sized by estimate beside the exact copy, or a backend that
// copies what it is handed, puts it back above 2x. Under -race the
// pool drops a random quarter of what is put back, so a quarter of the
// encodes regrow their scratch from nothing (2.3-2.7x measured); the
// bound there is 3x, which one more copy per image still breaks.
func TestUncompressedCommitAllocBound(t *testing.T) {
	const ranks, state, gens = 8, 256 << 10, 4
	st, err := ckptstore.Open(ranks, ckptstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	apps := make([][]byte, ranks)
	for r := range apps {
		apps[r] = bytes.Repeat([]byte{byte(r), 0x5a, 0xc3}, state/3)
	}
	commit := func(step int) (stored uint64) {
		images := make([][]byte, ranks)
		for r := range images {
			img := &ckptimg.Image{Rank: r, NRanks: ranks, Step: step, Impl: "mpich", Design: "virtid", AppState: apps[r]}
			if images[r], err = ckptimg.EncodeOpts(img, st.EncodeOptions()); err != nil {
				t.Fatal(err)
			}
			stored += uint64(len(images[r]))
		}
		if _, err := st.Commit(images); err != nil {
			t.Fatal(err)
		}
		return stored
	}
	commit(0) // grows the pooled scratch to an image's size
	var before, after runtime.MemStats
	var stored uint64
	runtime.ReadMemStats(&before)
	for g := 1; g <= gens; g++ {
		stored += commit(g)
	}
	runtime.ReadMemStats(&after)
	alloc := after.TotalAlloc - before.TotalAlloc
	ratio := float64(alloc) / float64(stored)
	t.Logf("%d generations: %d bytes allocated for %d bytes stored (%.2fx)", gens, alloc, stored, ratio)
	limit, bound := stored*13/10, "1.3x"
	if raceEnabled {
		limit, bound = 3*stored, "3x"
	}
	if alloc > limit {
		t.Fatalf("encode + commit allocated %d bytes for %d bytes stored (%.2fx, bound %s): an image is copied or over-allocated on the write path",
			alloc, stored, ratio, bound)
	}
}

// TestRestartReleasesImages: a restarted session must not pin the
// images it restarted from. Every rank is restored out of the store's
// resolver before the session is built, so once a rank is restored its
// image holds no application state: the only copy is the one its
// instance restored.
func TestRestartReleasesImages(t *testing.T) {
	const ranks = 4
	spec, in := batteryInput(t, "hpcg", 7)
	cfg := faultCfg(t, "mpich", nil)
	stop := cfg
	stop.ExitAtCheckpoint = true
	s, _, err := run(stop, ranks, spec.New(in), 2)
	if err != nil {
		t.Fatal(err)
	}
	st := s.Store()
	var imgs []*ckptimg.Image
	if _, err := st.RestoreStream(0, func(img *ckptimg.Image) error {
		if len(img.AppState) == 0 {
			t.Fatalf("rank %d image has no application state to release", img.Rank)
		}
		rr, err := restoreRank(img, spec.New(in))
		imgs = append(imgs, rr.img)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	for r, img := range imgs {
		if img.AppState != nil {
			t.Errorf("rank %d: the image keeps %d bytes of restored application state", r, len(img.AppState))
		}
	}
	rst, err := restartWait(cfg, st, spec.New(in))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := RunStats(cfg, ranks, spec.New(in), -1)
	if err != nil {
		t.Fatal(err)
	}
	sameChecksums(t, rst.Checksums, plain.Checksums, "restart from the store")
}

// restoreMeter counts the application-state bytes Restore is handed.
type restoreMeter struct {
	app.Instance
	bytes *atomic.Int64
}

func (m restoreMeter) Restore(data []byte) error {
	m.bytes.Add(int64(len(data)))
	return m.Instance.Restore(data)
}

// TestRestartAllocBound guards the restart read path with a count, not
// a stopwatch: a restart from the final boundary — resolving or decoding
// every rank's state, restoring it into the application, rebinding the
// MPI objects and finalizing — allocates at most 1.3 times the
// application state it restores. One times is the restored state
// itself, which the instances keep; the rest is the encoded blobs, the
// store's one reused state buffer and the session. A whole-state copy
// per rank anywhere between the backend and Restore (an owned resolved
// or decoded image beside the restored one: 2.1-2.2x before ranks
// restored straight out of the resolver, 1.15-1.2x after) breaks the
// bound on any host. The restart's heap objects are bounded too: the
// fast-LZ chain's 16 ranks take ~1 660 (~1 890 while every delta link
// opened a fresh chunk reader and every blob read formatted its key,
// ~2 210 while a 4-byte block header escaped to the heap once per
// decoded block).
func TestRestartAllocBound(t *testing.T) {
	const ranks, steps = 16, 8
	spec, err := apps.ByName("hpcg")
	if err != nil {
		t.Fatal(err)
	}
	in := spec.DefaultInput(apps.SiteDiscovery)
	in.Ranks, in.SimSteps, in.Local, in.PollsPerStep = ranks, steps, 24, 4
	cfg := faultCfg(t, "mpich", nil)
	native, err := RunNative(cfg, ranks, spec.New(in))
	if err != nil {
		t.Fatal(err)
	}
	var restored atomic.Int64
	inner := spec.New(in)
	factory := func() app.Instance { return restoreMeter{inner(), &restored} }

	// A base at boundary 3 and a delta at the final boundary, each taken
	// by a job that stops at its checkpoint, as after a preemption. The
	// state is 1.2 MB a rank, large beside what a rank's rebinding and
	// finalize allocate; 32 KB chunks cut it into 37.
	st, err := ckptstore.Open(ranks, ckptstore.Options{
		Delta: true, ChunkBytes: 32 << 10,
		Compress: true, CompressTier: ckptimg.TierFastLZ,
	})
	if err != nil {
		t.Fatal(err)
	}
	stop := cfg
	stop.Store, stop.ExitAtCheckpoint = st, true
	if _, _, err := Run(stop, ranks, spec.New(in), 3); err != nil {
		t.Fatal(err)
	}
	s, err := RestartJobFromStore(stop, st, spec.New(in))
	if err != nil {
		t.Fatal(err)
	}
	s.Co.RequestCheckpointAtStep(steps)
	if _, err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	if gens := st.Generations(); len(gens) != 2 || gens[1].Base() {
		t.Fatalf("store holds %+v, want a base and a delta", gens)
	}

	t.Run("store-chain", func(t *testing.T) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rst, err := restartWait(cfg, st, factory)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		sameChecksums(t, rst.Checksums, native.Checksums, "restart vs native")
		state := uint64(restored.Load())
		// The matrix and the four CG vectors: 11 doubles per grid point.
		if want := uint64(ranks * 11 * 8 * 24 * 24 * 24); state < want {
			t.Fatalf("restored %d bytes of application state, want at least %d", state, want)
		}
		alloc := after.TotalAlloc - before.TotalAlloc
		t.Logf("%d bytes allocated to restore %d bytes of application state (%.2fx), %d heap objects", alloc, state, float64(alloc)/float64(state), after.Mallocs-before.Mallocs)
		if alloc*10 > 13*state {
			t.Fatalf("restart allocated %d bytes for %d bytes of restored state (%.2fx, bound 1.3x): a whole-state copy per rank is back on the read path",
				alloc, state, float64(alloc)/float64(state))
		}
		if objs := after.Mallocs - before.Mallocs; objs > 1740 {
			t.Fatalf("restart allocated %d heap objects, bound 1740: a per-block or per-chunk allocation is back on the read path", objs)
		}
	})
}
