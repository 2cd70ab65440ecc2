package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"manasim/internal/app"
	"manasim/internal/apps"
	"manasim/internal/ckptimg"
	"manasim/internal/ckptstore"
	mana "manasim/internal/core"
	"manasim/internal/faults"
)

// iterOut is what one iteration produced.
type iterOut struct {
	// model holds everything read off the virtual clock or counted by
	// the simulator: a pure function of the scenario, so every iteration
	// of a run must produce exactly the same map.
	model map[string]float64
	// host holds host-clock readings only a traced iteration takes.
	host map[string]float64
	// stats holds each job's statistics in launch order, for the test
	// that a traced iteration's equal an untraced one's.
	stats []mana.Stats
}

// runner is a prepared workload: iterate runs one closed-loop iteration
// and checks its outputs; a failed check is an error.
type runner interface {
	iterate(t *tracer) (iterOut, error)
	close() error
}

// workload is one canonical scenario. prepare builds everything an
// iteration needs — native baselines, stores, temporary directories —
// and is timed as set-up; t is nil for the untraced run.
type workload struct {
	name  string
	why   string
	ranks int
	// rtag names the canonical rank count in metric names ("r256"), also
	// at the reduced size.
	rtag string
	// iters is the fixed iteration count of a full run (-seconds 0).
	iters   int
	prepare func(sc *scenario, t *tracer, tmp string) (runner, error)
}

func workloads(d dims) []workload {
	return []workload{
		{
			name: "wrap-lammps", ranks: lammpsRanks, rtag: "r8", iters: 30,
			why:     "8-rank LAMMPS under MANA on mpich/Discovery then craympi/Perlmutter, no checkpoint: wrappers, vid, crossings, mpibase, transport and kernel do all the work, ckpt* layers none",
			prepare: prepareWrapLammps,
		},
		{
			name: "ckpt-hpcg", ranks: hpcgRanks, rtag: "r16", iters: 15,
			why:     "16-rank HPCG, delta+dedup+fast-lz on the tier backend, 3 generations, seeded node crash, streamed restart, run to completion: snapshot, encode, commit and backend I/O dominate",
			prepare: prepareCkptHPCG,
		},
		{
			name: "restart-chain", ranks: hpcgRanks, rtag: "r16", iters: 60,
			why:     "scrub, then restart the head of a base+8-delta chain taken under mpich under openmpi: the store and codec layers read-only, plus vid rebinding across MPI implementations",
			prepare: prepareRestartChain,
		},
		{
			name: "drain-256", ranks: d.DrainRanks, rtag: "r256", iters: 15,
			why:     "256-rank pipelined LAMMPS checkpointed with messages in flight, once per drain strategy: kernel queue, transport matching and drain control traffic dominate, images are tiny",
			prepare: prepareDrain,
		},
	}
}

func sameSums(got, want []uint64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d checksums, want %d", len(got), len(want))
	}
	for r := range got {
		if got[r] != want[r] {
			return fmt.Errorf("rank %d checksum %#x, native run has %#x", r, got[r], want[r])
		}
	}
	return nil
}

func pctOver(vt, native time.Duration) float64 {
	return float64(vt-native) / float64(native) * 100
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// ---------------------------------------------------------------------
// wrap-lammps

type lammpsCell struct {
	name     string
	b        base
	appf     app.Factory
	native   mana.Stats
	paperPct float64
}

type wrapLammps struct{ cells []lammpsCell }

func prepareWrapLammps(sc *scenario, _ *tracer, _ string) (runner, error) {
	w := &wrapLammps{}
	for _, c := range []struct {
		impl  string
		site  apps.Site
		paper float64
	}{
		{"mpich", apps.SiteDiscovery, paperFig2Pct},
		{"craympi", apps.SitePerlmutter, paperFig4Pct},
	} {
		b, err := baseConfig(c.impl, c.site)
		if err != nil {
			return nil, err
		}
		spec, in, err := sc.lammpsInput(c.site)
		if err != nil {
			return nil, err
		}
		cell := lammpsCell{name: c.impl, b: b, appf: spec.New(in), paperPct: c.paper}
		if cell.native, err = mana.RunNative(b.cfg, lammpsRanks, cell.appf); err != nil {
			return nil, fmt.Errorf("native %s: %w", c.impl, err)
		}
		w.cells = append(w.cells, cell)
	}
	return w, nil
}

func (w *wrapLammps) close() error { return nil }

func (w *wrapLammps) iterate(t *tracer) (iterOut, error) {
	m := map[string]float64{}
	var vt, native, crossVT time.Duration
	var calls, crossings uint64
	var stats []mana.Stats
	worst := 0.0
	for _, c := range w.cells {
		j, err := t.launch(c.name, c.b.cfg, lammpsRanks, c.appf, nil)
		if err != nil {
			return iterOut{}, err
		}
		st, err := j.wait()
		if err != nil {
			return iterOut{}, fmt.Errorf("%s: %w", c.name, err)
		}
		if err := sameSums(st.Checksums, c.native.Checksums); err != nil {
			return iterOut{}, fmt.Errorf("%s: %w", c.name, err)
		}
		stats = append(stats, st)
		over := pctOver(st.VT, c.native.VT)
		m["core.overhead_"+c.name+"_pct"] = over
		worst = math.Max(worst, math.Abs(over-c.paperPct))
		vt += st.VT
		native += c.native.VT
		calls += st.WrapperCalls
		crossings += st.Crossings
		crossVT += time.Duration(st.Crossings) * c.b.cfg.Host.CrossCost
	}
	m["vt_job_s"] = vt.Seconds()
	m["vt_overhead_pct"] = pctOver(vt, native)
	m["paper_err_pp"] = worst
	m["core.upper_calls"] = float64(calls)
	m["splitproc.crossings"] = float64(crossings)
	m["splitproc.crossings_per_call"] = float64(crossings) / float64(calls)
	m["splitproc.crossing_vt_ms"] = ms(crossVT)
	return iterOut{model: m, stats: stats}, nil
}

// ---------------------------------------------------------------------
// ckpt-hpcg

type ckptHPCG struct {
	sc       *scenario
	b        base
	appf     app.Factory
	native   mana.Stats
	interval time.Duration
	tmp      string
	// last is the store of the latest iteration, kept open until the
	// next one so the isolated drivers can replay its generations.
	last    *ckptstore.Store
	lastDir string
}

func prepareCkptHPCG(sc *scenario, _ *tracer, tmp string) (runner, error) {
	b, err := baseConfig("mpich", apps.SiteDiscovery)
	if err != nil {
		return nil, err
	}
	spec, in, err := sc.hpcgInput(sc.dims.CkptSteps)
	if err != nil {
		return nil, err
	}
	w := &ckptHPCG{sc: sc, b: b, appf: spec.New(in), tmp: tmp}
	if w.native, err = mana.RunNative(b.cfg, hpcgRanks, w.appf); err != nil {
		return nil, fmt.Errorf("native: %w", err)
	}
	w.interval = w.native.VT / time.Duration(sc.dims.CkptSteps) * time.Duration(sc.dims.CkptEvery)
	return w, nil
}

func (w *ckptHPCG) dropLast() error {
	if w.lastDir == "" {
		return nil
	}
	err := os.RemoveAll(w.lastDir)
	w.last, w.lastDir = nil, ""
	return err
}

func (w *ckptHPCG) close() error { return w.dropLast() }

func (w *ckptHPCG) iterate(t *tracer) (iterOut, error) {
	if err := w.dropLast(); err != nil {
		return iterOut{}, err
	}
	dir, err := os.MkdirTemp(w.tmp, "ckpt-hpcg-")
	if err != nil {
		return iterOut{}, err
	}
	w.lastDir = dir
	opts := w.b.store
	opts.Backend, opts.Dir = "tier", dir
	opts.Delta, opts.Dedup = true, true
	if t != nil {
		opts.WrapBackend = t.wrapBackend
	}
	store, err := ckptstore.Open(hpcgRanks, opts)
	if err != nil {
		return iterOut{}, err
	}
	w.last = store
	inj := faults.NewInjector(hpcgRanks, faults.Plan{
		Seed: w.sc.seed,
		Events: []faults.Event{{
			Kind: faults.NodeCrash, Rank: w.sc.crashRank,
			Step: w.sc.crashStep, Call: w.sc.crashCall,
		}},
	})
	cfg := w.b.cfg
	cfg.Store, cfg.Faults = store, inj
	cfg.CkptInterval, cfg.SkewBound = w.interval, skewBound

	// Segment 1: launch, three periodic checkpoints, node crash.
	j, err := t.launch("segment1", cfg, hpcgRanks, w.appf, nil)
	if err != nil {
		return iterOut{}, err
	}
	st1, err := j.wait()
	var crash *faults.CrashError
	if !errors.As(err, &crash) {
		return iterOut{}, fmt.Errorf("segment 1 ended with %v, want the scripted node crash", err)
	}
	gens := store.Generations()
	if len(gens) != 3 || st1.CkptTaken != 3 {
		return iterOut{}, fmt.Errorf("segment 1 committed %d generations (%d checkpoints), want 3", len(gens), st1.CkptTaken)
	}

	// Segment 2: streamed restart from the head, run to completion.
	cfg.CkptInterval = 0
	j, err = t.launch("segment2", cfg, hpcgRanks, w.appf, store)
	if err != nil {
		return iterOut{}, fmt.Errorf("restart: %w", err)
	}
	chains := j.s.RestartChains()
	st2, err := j.wait()
	if err != nil {
		return iterOut{}, fmt.Errorf("segment 2: %w", err)
	}
	if head := gens[len(gens)-1].Seq; st2.RestartGen != head {
		return iterOut{}, fmt.Errorf("restart resumed generation %d, head is %d", st2.RestartGen, head)
	}
	if err := sameSums(st2.Checksums, w.native.Checksums); err != nil {
		return iterOut{}, fmt.Errorf("restarted run: %w", err)
	}

	m := map[string]float64{}
	job := crash.VT + st2.VT
	m["vt_job_s"] = job.Seconds()
	m["vt_overhead_pct"] = pctOver(job, w.native.VT)
	var ckptCost time.Duration
	for _, c := range st1.CkptCostVTs {
		ckptCost += c
	}
	m["vt_ckpt_s"] = ckptCost.Seconds() / float64(len(st1.CkptCostVTs))
	m["vt_restart_s"] = st2.VT.Seconds()
	m["ctl_msgs"] = float64(st1.CtlMsgs + st2.CtlMsgs)
	m["ckpt.taken"] = float64(st1.CkptTaken + st2.CkptTaken)
	m["fsim.ckpt_write_vt_ms"] = ms(ckptCost - st1.DrainVT)
	m["faults.crashes_fired"] = float64(inj.CrashesFired())
	m["faults.lost_vt_ms"] = ms(crash.VT - st1.CkptVTs[len(st1.CkptVTs)-1])
	m["ckptstore.retries"] = float64(st2.StoreRetries)
	storeModel(m, store, chains)
	return iterOut{model: m, stats: []mana.Stats{st1, st2}}, nil
}

// storeModel reads the store-side counts both checkpoint workloads
// report: stored bytes, dedup ratio, and what the restart's chain
// resolution read.
func storeModel(m map[string]float64, store *ckptstore.Store, chains []ckptstore.ChainStats) {
	gens := store.Generations()
	var unique int64
	for _, g := range gens {
		unique += g.UniqueBytes
	}
	m["stored_mb"] = float64(unique) / 1e6
	m["ckptstore.unique_mb_per_gen"] = float64(unique) / 1e6 / float64(len(gens))
	if store.Dedup() {
		m["ckptstore.dedup_ratio"] = store.DedupStats().Ratio()
	}
	var read, skipped int
	var peak int64
	for _, c := range chains {
		read += c.ChunksRead
		skipped += c.ChunksSkipped
		peak = max(peak, c.PeakBytes)
	}
	m["ckptstore.chunks_read"] = float64(read)
	m["ckptstore.chunks_skipped"] = float64(skipped)
	m["ckptstore.peak_resolver_mb"] = float64(peak) / 1e6
}

// ---------------------------------------------------------------------
// restart-chain

type restartChain struct {
	b      base // the openmpi configuration iterations restart under
	appf   app.Factory
	native mana.Stats
	store  *ckptstore.Store
	head   int
}

func prepareRestartChain(sc *scenario, t *tracer, _ string) (runner, error) {
	d := sc.dims
	spec, in, err := sc.hpcgInput(d.ChainGens + d.ChainTail)
	if err != nil {
		return nil, err
	}
	appf := spec.New(in)
	taken, err := baseConfig("mpich", apps.SiteDiscovery)
	if err != nil {
		return nil, err
	}
	native, err := mana.RunNative(taken.cfg, hpcgRanks, appf)
	if err != nil {
		return nil, fmt.Errorf("native: %w", err)
	}
	opts := taken.store
	opts.Backend = "mem"
	opts.Delta, opts.ChainCap = true, ckptstore.ChainCapUnbounded
	if t != nil {
		opts.WrapBackend = t.wrapBackend
	}
	store, err := ckptstore.Open(hpcgRanks, opts)
	if err != nil {
		return nil, err
	}
	// The same job, preempted at every step boundary and resumed from
	// the store: generation g is the cut at boundary g+1, a delta
	// against generation g-1.
	cfg := taken.cfg
	cfg.Store, cfg.UniformHandles, cfg.ExitAtCheckpoint = store, true, true
	for g := 0; g < d.ChainGens; g++ {
		var s *mana.Session
		if g == 0 {
			s, err = mana.StartJob(cfg, hpcgRanks, appf)
		} else {
			s, err = mana.RestartJobFromStore(cfg, store, appf)
		}
		if err != nil {
			return nil, fmt.Errorf("generation %d: %w", g, err)
		}
		s.Co.RequestCheckpointAtStep(g + 1)
		st, err := s.Wait()
		if err != nil {
			return nil, fmt.Errorf("generation %d: %w", g, err)
		}
		if st.CkptTaken != 1 || !st.Stopped {
			return nil, fmt.Errorf("generation %d: checkpoint did not complete", g)
		}
	}
	gens := store.Generations()
	if len(gens) != d.ChainGens || !gens[0].Base() {
		return nil, fmt.Errorf("store holds %d generations, want a base and %d deltas", len(gens), d.ChainGens-1)
	}
	for _, g := range gens[1:] {
		if g.DeltaRanks != hpcgRanks {
			return nil, fmt.Errorf("generation %d: %d delta ranks, want %d", g.Seq, g.DeltaRanks, hpcgRanks)
		}
	}
	under, err := baseConfig("openmpi", apps.SiteDiscovery)
	if err != nil {
		return nil, err
	}
	under.cfg.UniformHandles = true
	return &restartChain{b: under, appf: appf, native: native, store: store, head: gens[len(gens)-1].Seq}, nil
}

func (w *restartChain) close() error { return nil }

func (w *restartChain) iterate(t *tracer) (iterOut, error) {
	var rep *ckptstore.ScrubReport
	var err error
	t.phase("scrub", bktScrub, func() { rep, err = w.store.Scrub() })
	if err != nil {
		return iterOut{}, fmt.Errorf("scrub: %w", err)
	}
	if !rep.Healthy() {
		return iterOut{}, fmt.Errorf("%s", rep)
	}
	j, err := t.launch("restart", w.b.cfg, hpcgRanks, w.appf, w.store)
	if err != nil {
		return iterOut{}, fmt.Errorf("restart: %w", err)
	}
	chains := j.s.RestartChains()
	st, err := j.wait()
	if err != nil {
		return iterOut{}, err
	}
	if st.RestartGen != w.head {
		return iterOut{}, fmt.Errorf("restart resumed generation %d, head is %d", st.RestartGen, w.head)
	}
	if st.CkptTaken != 0 || len(w.store.Generations()) != w.head+1 {
		return iterOut{}, fmt.Errorf("restart wrote to the store")
	}
	if err := sameSums(st.Checksums, w.native.Checksums); err != nil {
		return iterOut{}, fmt.Errorf("restart under %s: %w", w.b.cfg.ImplName, err)
	}
	m := map[string]float64{
		"vt_job_s":          st.VT.Seconds(),
		"vt_restart_s":      st.VT.Seconds(),
		"ckptstore.retries": float64(st.StoreRetries),
	}
	storeModel(m, w.store, chains)
	return iterOut{model: m, stats: []mana.Stats{st}}, nil
}

// ---------------------------------------------------------------------
// drain-256

type drainScale struct {
	b      base
	n      int
	ckptAt int
	appf   app.Factory
	// ref is each rank's checksum after ckptAt native steps.
	ref []uint64
}

var drainStrategies = []string{"twophase", "toposort"}

func prepareDrain(sc *scenario, _ *tracer, _ string) (runner, error) {
	b, err := baseConfig("mpich", apps.SiteDiscovery)
	if err != nil {
		return nil, err
	}
	spec, in, err := sc.drainInput()
	if err != nil {
		return nil, err
	}
	w := &drainScale{b: b, n: in.Ranks, ckptAt: in.SimSteps / 2, appf: spec.New(in)}
	if w.ref, err = nativeChecksumsAt(b, w.n, w.appf, w.ckptAt); err != nil {
		return nil, fmt.Errorf("native: %w", err)
	}
	return w, nil
}

func (w *drainScale) close() error { return nil }

func (w *drainScale) iterate(t *tracer) (iterOut, error) {
	m := map[string]float64{}
	var host map[string]float64
	var vt, ckptCost time.Duration
	var ctl uint64
	var stats []mana.Stats
	for _, strat := range drainStrategies {
		cfg := w.b.cfg
		cfg.DrainStrategy, cfg.ExitAtCheckpoint = strat, true
		var m0 runtime.MemStats
		var t0 time.Time
		if t != nil {
			runtime.ReadMemStats(&m0)
			t0 = time.Now()
		}
		j, err := t.launch(strat, cfg, w.n, w.appf, nil)
		if err != nil {
			return iterOut{}, err
		}
		j.s.Co.RequestCheckpointAtStep(w.ckptAt)
		st, err := j.wait()
		if err != nil {
			return iterOut{}, fmt.Errorf("%s: %w", strat, err)
		}
		if st.CkptTaken != 1 || !st.Stopped {
			return iterOut{}, fmt.Errorf("%s: checkpoint did not complete (taken=%d stopped=%v)", strat, st.CkptTaken, st.Stopped)
		}
		if err := sameSums(st.Checksums, w.ref); err != nil {
			return iterOut{}, fmt.Errorf("%s: %w", strat, err)
		}
		stats = append(stats, st)
		m["drain."+strat+".vt_ms"] = ms(st.DrainVT)
		m["drain."+strat+".ctl_msgs"] = float64(st.CtlMsgs)
		vt += st.VT
		ctl += st.CtlMsgs
		ckptCost += st.CkptCostVTs[0]
		if t != nil {
			wall := time.Since(t0)
			var m1 runtime.MemStats
			runtime.ReadMemStats(&m1)
			if host == nil {
				host = map[string]float64{}
			}
			host["drain."+strat+".wall_ms"] = ms(wall)
			host["drain."+strat+".alloc_mb"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
			drained, err := drainedMsgs(j.s)
			if err != nil {
				return iterOut{}, fmt.Errorf("%s: %w", strat, err)
			}
			m["drain.drained_msgs"] += float64(drained)
		}
	}
	m["vt_job_s"] = vt.Seconds()
	m["vt_ckpt_s"] = ckptCost.Seconds() / float64(len(drainStrategies))
	m["ctl_msgs"] = float64(ctl)
	m["ckpt.taken"] = float64(len(drainStrategies))
	return iterOut{model: m, host: host, stats: stats}, nil
}

// drainedMsgs counts the in-flight messages the job's checkpoint
// captured, from the images it delivered.
func drainedMsgs(s *mana.Session) (int, error) {
	images, err := s.Co.Images()
	if err != nil {
		return 0, err
	}
	n := 0
	for _, data := range images {
		img, err := ckptimg.Decode(data)
		if err != nil {
			return 0, err
		}
		n += len(img.Drained)
	}
	return n, nil
}
