// Package manasim's top-level benchmarks regenerate every table and
// figure of the paper's evaluation (Section 6) and the ablations called
// out in DESIGN.md. Each Benchmark prints the same rows/series the
// paper reports via -v or the bench output metrics.
//
// Benchmarks use reduced trial counts and step divisors for turnaround;
// `manasim experiment -name all -trials 10` reproduces the full runs.
package manasim

import (
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"manasim/internal/app"
	"manasim/internal/apps"
	"manasim/internal/ckpt"
	"manasim/internal/ckptimg"
	"manasim/internal/ckptstore"
	"manasim/internal/cluster"
	mana "manasim/internal/core"
	"manasim/internal/fsim"
	"manasim/internal/harness"
	"manasim/internal/impls"
	"manasim/internal/mpi"
	"manasim/internal/simtime"
	"manasim/internal/vid"
	"manasim/internal/vidlegacy"
)

// benchOpts keeps benchmark iterations quick.
var benchOpts = harness.Options{Trials: 1, Fast: 2}

// BenchmarkTable1Inputs regenerates Table 1 and Table 2 (application
// inputs per site).
func BenchmarkTable1Inputs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := harness.Table1(apps.SiteDiscovery)
		if len(rows) != 5 {
			b.Fatal("table 1 incomplete")
		}
		rows = harness.Table1(apps.SitePerlmutter)
		if len(rows) != 3 {
			b.Fatal("table 2 incomplete")
		}
	}
	e, err := harness.LookupExperiment("table1")
	if err != nil {
		b.Fatal(err)
	}
	tables, err := e.Run(benchOpts)
	if err != nil {
		b.Fatal(err)
	}
	harness.Render(io.Discard, tables...)
}

// BenchmarkFig2Runtimes regenerates Figure 2: five applications, five
// configurations, MPICH versus Open MPI on the no-FSGSBASE site.
func BenchmarkFig2Runtimes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := figureRows(b, "fig2")
		if i == 0 {
			reportOverhead(b, rows, "LAMMPS", "MANA+virtId/mpich", "lammps-mpich-overhead-%")
			reportOverhead(b, rows, "SW4", "MANA+virtId/OMPI", "sw4-ompi-overhead-%")
		}
	}
}

// BenchmarkFig3ExaMPI regenerates Figure 3: the ExaMPI subset (LULESH,
// CoMD), including the MANA-faster-than-native-ExaMPI effect.
func BenchmarkFig3ExaMPI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := figureRows(b, "fig3")
		if i == 0 {
			reportOverhead(b, rows, "CoMD", "MANA+virtId/exampi", "comd-exampi-overhead-%")
		}
	}
}

// BenchmarkFig4Perlmutter regenerates Figure 4: Cray MPI with userspace
// FSGSBASE (overheads ~5% or less).
func BenchmarkFig4Perlmutter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := figureRows(b, "fig4")
		if i == 0 {
			reportOverhead(b, rows, "LAMMPS", "MANA+virtId/craympi", "lammps-cray-overhead-%")
		}
	}
}

// figureRows runs a registered figure experiment and returns its bars.
func figureRows(b *testing.B, name string) []harness.FigureRow {
	e, err := harness.LookupExperiment(name)
	if err != nil {
		b.Fatal(err)
	}
	tables, err := e.Run(benchOpts)
	if err != nil {
		b.Fatal(err)
	}
	return tables[0].Rows.([]harness.FigureRow)
}

// reportOverhead emits one figure bar's overhead over its native bar as
// a bench metric.
func reportOverhead(b *testing.B, rows []harness.FigureRow, app, bar, metric string) {
	for _, r := range rows {
		if r.App == app && r.Bar == bar {
			b.ReportMetric(r.OverheadPct, metric)
			return
		}
	}
	b.Fatalf("missing %s/%s", app, bar)
}

// BenchmarkContextSwitchRates regenerates the Section 6.3 analysis.
func BenchmarkContextSwitchRates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.ContextSwitches(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				if r.App == "LAMMPS" {
					b.ReportMetric(r.CSPerSec/1e6, "lammps-MCS/s")
				}
			}
		}
	}
}

// BenchmarkTable3Checkpoint regenerates Table 3: checkpoint size, time,
// and MB/s/rank on the NFSv3 model.
func BenchmarkTable3Checkpoint(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := harness.Table3(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				if r.App == "HPCG" {
					b.ReportMetric(r.CkptTimeS, "hpcg-ckpt-s")
				}
			}
		}
	}
}

// ---------------------------------------------------------------------
// Ablations (DESIGN.md Section 4).

// BenchmarkVidDesigns compares the two virtual-id designs on the hot
// translation paths: virtual->real (every wrapper call) and
// real->virtual (the rare direction; O(n) in the legacy design).
func BenchmarkVidDesigns(b *testing.B) {
	const objects = 512
	build := func(s vid.Store) []mpi.Handle {
		handles := make([]mpi.Handle, objects)
		for i := range handles {
			h, err := s.Add(mpi.KindComm, mpi.Handle(0x1000+i), vid.Descriptor{}, vid.StrategyReplay)
			if err != nil {
				b.Fatal(err)
			}
			handles[i] = h
		}
		return handles
	}

	b.Run("virtid/virt-to-real", func(b *testing.B) {
		s := vid.NewStore(32, false)
		handles := build(s)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Phys(mpi.KindComm, handles[i%objects]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("legacy/virt-to-real", func(b *testing.B) {
		s := vidlegacy.New()
		handles := build(s)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Phys(mpi.KindComm, handles[i%objects]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("virtid/real-to-virt", func(b *testing.B) {
		s := vid.NewStore(32, false)
		build(s)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := s.Virt(mpi.KindComm, mpi.Handle(0x1000+i%objects)); !ok {
				b.Fatal("miss")
			}
		}
	})
	b.Run("legacy/real-to-virt", func(b *testing.B) {
		s := vidlegacy.New()
		build(s)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := s.Virt(mpi.KindComm, mpi.Handle(0x1000+i%objects)); !ok {
				b.Fatal("miss")
			}
		}
	})
}

// churnApp creates and frees communicators in a loop: the workload of
// the paper's Section 9 ggid-policy discussion.
type churnApp struct {
	steps int
	world mpi.Handle
	n     int64
}

// newChurnFactory builds churn instances of the given step count.
func newChurnFactory(steps int) app.Factory {
	return func() app.Instance { return &churnApp{steps: steps} }
}

func (c *churnApp) Setup(env *app.Env) error {
	w, err := env.P.LookupConst(mpi.ConstCommWorld)
	c.world = w
	return err
}
func (c *churnApp) Steps() int { return c.steps }
func (c *churnApp) Step(env *app.Env, step int) error {
	sub, err := env.P.CommSplit(c.world, step%2, env.Rank)
	if err != nil {
		return err
	}
	c.n++
	return env.P.CommFree(sub)
}
func (c *churnApp) Finalize(env *app.Env) error { return nil }
func (c *churnApp) Checksum() uint64            { return uint64(c.n) }
func (c *churnApp) Snapshot() ([]byte, error)   { return []byte{byte(c.n)}, nil }
func (c *churnApp) Restore(b []byte) error      { c.n = int64(b[0]); return nil }
func (c *churnApp) FootprintBytes() int64       { return 0 }

// BenchmarkGgidPolicies measures communicator-churn cost under the
// eager, lazy, and hybrid ggid policies (paper Section 9: codes that
// repeatedly create and free communicators motivate a lazy policy).
func BenchmarkGgidPolicies(b *testing.B) {
	factory, err := impls.Get("mpich")
	if err != nil {
		b.Fatal(err)
	}
	for _, pol := range []vid.GGIDPolicy{vid.GGIDEager, vid.GGIDLazy, vid.GGIDHybrid} {
		b.Run(pol.String(), func(b *testing.B) {
			cfg := mana.Config{ImplName: "mpich", Factory: factory, GGIDPolicy: pol}
			var totalVT time.Duration
			for i := 0; i < b.N; i++ {
				st, _, err := mana.Run(cfg, 8, newChurnFactory(64), -1)
				if err != nil {
					b.Fatal(err)
				}
				totalVT += st.VT
			}
			b.ReportMetric(totalVT.Seconds()/float64(b.N)*1e3, "vt-ms/run")
		})
	}
}

// BenchmarkCrossingCost sweeps the split-process crossing cost across
// the two fs-register mechanisms at LAMMPS-like call rates (the
// Section 6.3/6.4 FSGSBASE analysis).
func BenchmarkCrossingCost(b *testing.B) {
	factory, err := impls.Get("mpich")
	if err != nil {
		b.Fatal(err)
	}
	spec, err := apps.ByName("lammps")
	if err != nil {
		b.Fatal(err)
	}
	for _, host := range []simtime.HostProfile{simtime.Discovery(), simtime.Perlmutter()} {
		b.Run(host.Cross.String(), func(b *testing.B) {
			in := spec.DefaultInput(apps.SiteDiscovery)
			in.SimSteps = 50
			cfg := mana.Config{ImplName: "mpich", Factory: factory, Host: host}
			var overhead float64
			for i := 0; i < b.N; i++ {
				native, err := mana.RunNative(cfg, 8, spec.New(in))
				if err != nil {
					b.Fatal(err)
				}
				st, _, err := mana.Run(cfg, 8, spec.New(in), -1)
				if err != nil {
					b.Fatal(err)
				}
				overhead = (st.VT.Seconds() - native.VT.Seconds()) / native.VT.Seconds() * 100
			}
			b.ReportMetric(overhead, "overhead-%")
		})
	}
}

// BenchmarkWrappedIprobe is the wrapper hot path alone: one wrapped
// MPI_Iprobe on an empty mailbox (two crossings, one vid lookup, the
// translation-table charge) per vid design and host profile. ns/op and
// allocs/op are what the simulator pays per wrapped call; vt-ns/op is
// what the model charges for it, exact and identical run to run.
func BenchmarkWrappedIprobe(b *testing.B) {
	factory, err := impls.Get("mpich")
	if err != nil {
		b.Fatal(err)
	}
	for _, host := range []simtime.HostProfile{simtime.Discovery(), simtime.Perlmutter()} {
		for _, design := range []mana.Design{mana.DesignVirtID, mana.DesignLegacy} {
			b.Run(fmt.Sprintf("%s/%s", host.Cross, design), func(b *testing.B) {
				job := cluster.New(1, factory, host.Net)
				cfg := mana.Config{ImplName: "mpich", Factory: factory, Host: host, Design: design}
				rt, err := mana.NewRuntime(cfg, job.Procs[0], job.Clocks[0], nil)
				if err != nil {
					b.Fatal(err)
				}
				world, err := rt.LookupConst(mpi.ConstCommWorld)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				start := job.Clocks[0].Now()
				for i := 0; i < b.N; i++ {
					if _, _, err := rt.Iprobe(mpi.AnySource, mpi.AnyTag, world); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(job.Clocks[0].Now()-start)/float64(b.N), "vt-ns/op")
			})
		}
	}
}

// BenchmarkCheckpointRestartCycle measures a full checkpoint + restart
// round trip for an 8-rank CoMD job.
func BenchmarkCheckpointRestartCycle(b *testing.B) {
	factory, err := impls.Get("mpich")
	if err != nil {
		b.Fatal(err)
	}
	spec, err := apps.ByName("comd")
	if err != nil {
		b.Fatal(err)
	}
	in := spec.DefaultInput(apps.SiteDiscovery)
	in.Ranks = 8
	in.SimSteps = 6
	cfg := mana.Config{ImplName: "mpich", Factory: factory, ExitAtCheckpoint: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, images, err := mana.Run(cfg, 8, spec.New(in), 3)
		if err != nil {
			b.Fatal(err)
		}
		rcfg := mana.Config{ImplName: "mpich", Factory: factory}
		if _, err := mana.Restart(rcfg, images, spec.New(in)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCrossImplRestart measures the cross-implementation restart
// path (checkpoint under MPICH, restart under Open MPI with uniform
// handles — the Section 9 capability).
func BenchmarkCrossImplRestart(b *testing.B) {
	mpichF, err := impls.Get("mpich")
	if err != nil {
		b.Fatal(err)
	}
	ompiF, err := impls.Get("openmpi")
	if err != nil {
		b.Fatal(err)
	}
	spec, err := apps.ByName("comd")
	if err != nil {
		b.Fatal(err)
	}
	in := spec.DefaultInput(apps.SiteDiscovery)
	in.Ranks = 8
	in.SimSteps = 6
	src := mana.Config{ImplName: "mpich", Factory: mpichF, UniformHandles: true, ExitAtCheckpoint: true}
	_, images, err := mana.Run(src, 8, spec.New(in), 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst := mana.Config{ImplName: "openmpi", Factory: ompiF}
		if _, err := mana.Restart(dst, images, spec.New(in)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchImage builds a synthetic rank image whose app state has the
// given size; changedFrac of its chunks differ from the parent state.
func benchImage(size int, gen int, changedFrac float64) *ckptimg.Image {
	app := make([]byte, size)
	for i := range app {
		app[i] = byte(i * 31)
	}
	// Mutate a trailing fraction so chunk-level deltas see a stable
	// prefix — the static-bulk shape real images have.
	from := int(float64(size) * (1 - changedFrac))
	for i := from; i < size; i++ {
		app[i] = byte(i ^ gen*251)
	}
	return &ckptimg.Image{
		Rank: 0, NRanks: 1, Step: gen,
		Impl: "mpich", Design: "virtid", AppState: app,
	}
}

// BenchmarkDeltaEncode measures the incremental encoder against the
// full encoder on a 4 MB app state at several changed fractions: the
// hot path every delta generation pays per rank.
func BenchmarkDeltaEncode(b *testing.B) {
	const size = 4 << 20
	parent := benchImage(size, 0, 0)
	idx := ckptimg.IndexAppState(parent.AppState, ckptimg.AppChunk)
	b.Run("full", func(b *testing.B) {
		img := benchImage(size, 1, 0.1)
		b.SetBytes(size)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ckptimg.Encode(img); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, frac := range []float64{0.05, 0.25, 1.0} {
		b.Run(fmt.Sprintf("delta/changed=%.0f%%", frac*100), func(b *testing.B) {
			img := benchImage(size, 1, frac)
			b.SetBytes(size)
			b.ReportAllocs()
			var encoded int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				data, st, err := ckptimg.EncodeDelta(img, idx, 0, ckptimg.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if st.Changed == 0 && frac > 0 {
					b.Fatal("no chunks changed")
				}
				encoded = len(data)
			}
			b.ReportMetric(float64(encoded)/1024, "delta-KB")
		})
	}
}

// streamBenchStore builds the BenchmarkStreamMaterialize store shape: a
// base plus `chain` delta generations of a 4 MB app state with 10%
// trailing churn.
func streamBenchStore(b *testing.B, size, chain int) *ckptstore.Store {
	b.Helper()
	st := ckptstore.MustOpen(1, ckptstore.Options{Delta: true, ChainCap: chain + 1})
	for gen := 0; gen <= chain; gen++ {
		img := benchImage(size, gen, 0.1)
		var data []byte
		var err error
		if parent, pgen, ok := st.PlanDelta(0); ok {
			data, _, err = ckptimg.EncodeDelta(img, parent, pgen, st.EncodeOptions())
		} else {
			data, err = ckptimg.EncodeOpts(img, st.EncodeOptions())
		}
		if err != nil {
			b.Fatal(err)
		}
		if _, err := st.Commit([][]byte{data}); err != nil {
			b.Fatal(err)
		}
	}
	if head, _ := st.Head(); head.Base() {
		b.Fatal("head generation is not a delta")
	}
	return st
}

// reportChainStats turns one rank's resolution accounting into bench
// metrics, so chain depths compare on bytes inflated and peak resolver
// memory, not just ns/op.
func reportChainStats(b *testing.B, cs ckptstore.ChainStats) {
	b.Helper()
	b.ReportMetric(float64(cs.ChunksRead), "chunks-read")
	b.ReportMetric(float64(cs.ChunksSkipped), "chunks-skipped")
	b.ReportMetric(float64(cs.ChunksRead)*float64(ckptimg.AppChunk)/(1<<20), "inflated-MB")
	b.ReportMetric(float64(cs.PeakBytes)/(1<<20), "peak-MB")
}

// BenchmarkStreamMaterialize measures the chunk-pipelined chain
// resolver across chain depth: newest-wins resolution inflates each
// output chunk exactly once — superseded chunks are skipped, so
// bytes-decompressed and allocations stay flat as the chain deepens.
func BenchmarkStreamMaterialize(b *testing.B) {
	const size = 4 << 20
	for _, chain := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("deltas=%d", chain), func(b *testing.B) {
			st := streamBenchStore(b, size, chain)
			b.SetBytes(size)
			b.ReportAllocs()
			var cs ckptstore.ChainStats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				imgs, stats, err := st.MaterializeStreamHead()
				if err != nil {
					b.Fatal(err)
				}
				if len(imgs) != 1 || imgs[0].AppState == nil {
					b.Fatal("missing image")
				}
				cs = stats[0]
			}
			if cs.ChunksSkipped == 0 {
				b.Fatalf("streaming resolver skipped nothing: %+v", cs)
			}
			reportChainStats(b, cs)
		})
	}
}

// BenchmarkDrainProtocol isolates the in-flight message drain: a
// pipelined LAMMPS job checkpoints with one message in flight per rank.
func BenchmarkDrainProtocol(b *testing.B) {
	factory, err := impls.Get("mpich")
	if err != nil {
		b.Fatal(err)
	}
	spec, err := apps.ByName("lammps")
	if err != nil {
		b.Fatal(err)
	}
	in := spec.DefaultInput(apps.SiteDiscovery)
	in.Ranks = 8
	in.SimSteps = 8
	in.PollsPerStep = 4
	cfg := mana.Config{ImplName: "mpich", Factory: factory, ExitAtCheckpoint: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, images, err := mana.Run(cfg, 8, spec.New(in), 4)
		if err != nil {
			b.Fatal(err)
		}
		if len(images) != 8 {
			b.Fatal("missing images")
		}
	}
}

// BenchmarkCheckpointDrain compares the registered drain strategies on
// the checkpoint hot path across rank counts, so future PRs have a
// perf trajectory for the subsystem. Each iteration checkpoints a
// pipelined LAMMPS job mid-run with in-flight halo messages and reports
// the checkpoint-time virtual cost and the control plane's size. At 64
// and 256 ranks the all-pairs control traffic (n(n−1) messages either
// way) is the cost.
func BenchmarkCheckpointDrain(b *testing.B) {
	factory, err := impls.Get("mpich")
	if err != nil {
		b.Fatal(err)
	}
	spec, err := apps.ByName("lammps")
	if err != nil {
		b.Fatal(err)
	}
	for _, strat := range ckpt.DrainNames() {
		for _, ranks := range []int{4, 8, 16, 64, 256} {
			b.Run(fmt.Sprintf("%s/ranks=%d", strat, ranks), func(b *testing.B) {
				in := spec.DefaultInput(apps.SiteDiscovery)
				in.Ranks = ranks
				in.SimSteps = 8
				in.PollsPerStep = 4
				cfg := mana.Config{
					ImplName: "mpich", Factory: factory,
					DrainStrategy: strat, ExitAtCheckpoint: true,
				}
				var totalVT time.Duration
				var drained int
				var ctlMsgs, ctlBytes uint64
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					st, images, err := mana.Run(cfg, ranks, spec.New(in), 4)
					if err != nil {
						b.Fatal(err)
					}
					if len(images) != ranks {
						b.Fatal("missing images")
					}
					totalVT += st.VT
					ctlMsgs, ctlBytes = st.CtlMsgs, st.CtlBytes
					if i == 0 {
						for _, data := range images {
							img, err := ckptimg.Decode(data)
							if err != nil {
								b.Fatal(err)
							}
							drained += len(img.Drained)
						}
					}
				}
				b.ReportMetric(totalVT.Seconds()/float64(b.N)*1e3, "vt-ms/run")
				b.ReportMetric(float64(drained), "drained-msgs")
				b.ReportMetric(float64(ctlMsgs), "ctl-msgs")
				b.ReportMetric(float64(ctlBytes)/1e3, "ctl-KB")
			})
		}
	}
}

// benchAppInstance runs an application natively for one step at a
// problem size that puts a few megabytes of state on every rank, and
// returns one rank's instance as the run left it.
func benchAppInstance(b *testing.B, name string) (app.Factory, app.Instance) {
	b.Helper()
	spec, err := apps.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	in := spec.DefaultInput(apps.SiteDiscovery)
	in.Ranks, in.SimSteps, in.PollsPerStep = 4, 1, 2
	in.Local = map[string]int{"hpcg": 32, "lammps": 32, "comd": 96, "lulesh": 48, "sw4": 384}[name]
	factory, err := impls.Get("mpich")
	if err != nil {
		b.Fatal(err)
	}
	var mu sync.Mutex
	var insts []app.Instance
	fresh := spec.New(in)
	cfg := mana.Config{ImplName: "mpich", Factory: factory}
	if _, err := mana.RunNative(cfg, in.Ranks, func() app.Instance {
		inst := fresh()
		mu.Lock()
		insts = append(insts, inst)
		mu.Unlock()
		return inst
	}); err != nil {
		b.Fatal(err)
	}
	return fresh, insts[0]
}

// BenchmarkAppSnapshot measures the first copy of the checkpoint write
// path: one rank's state serialized by the application. It never
// releases a snapshot (app.ReleaseSnapshot), so every one is a fresh
// buffer: B/op should read the state's size and allocs/op 1.
func BenchmarkAppSnapshot(b *testing.B) {
	for _, name := range apps.Names() {
		b.Run(name, func(b *testing.B) {
			_, inst := benchAppInstance(b, name)
			snap, err := inst.Snapshot()
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(snap)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := inst.Snapshot(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAppRestore measures the last copy of the restart path: a
// fresh instance adopting one rank's snapshot.
func BenchmarkAppRestore(b *testing.B) {
	for _, name := range apps.Names() {
		b.Run(name, func(b *testing.B) {
			fresh, inst := benchAppInstance(b, name)
			snap, err := inst.Snapshot()
			if err != nil {
				b.Fatal(err)
			}
			into := fresh()
			b.SetBytes(int64(len(snap)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := into.Restore(snap); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchGeneration encodes one full generation of rank images against
// the store's options.
func benchGeneration(b *testing.B, st *ckptstore.Store, ranks, size, gen int, changedFrac float64) [][]byte {
	b.Helper()
	images := make([][]byte, ranks)
	for r := 0; r < ranks; r++ {
		img := benchImage(size, gen, changedFrac)
		img.Rank, img.NRanks = r, ranks
		var data []byte
		var err error
		if parent, pgen, ok := st.PlanDelta(r); ok {
			data, _, err = ckptimg.EncodeDelta(img, parent, pgen, st.EncodeOptions())
		} else {
			data, err = ckptimg.EncodeOpts(img, st.EncodeOptions())
		}
		if err != nil {
			b.Fatal(err)
		}
		images[r] = data
	}
	return images
}

// BenchmarkParallelCommit measures Store.Commit across worker-pool
// widths: 8 ranks delivering 4 MB images into a delta store, so every
// rank pays a validate + chunk-index pass that the pool fans out.
// workers=1 is the serial reference. B/op is the mem backend's copy of
// the 32 MB plus one chunk of scratch per rank — validation holds no
// state (it was 67 MB/op while Commit decoded every image).
func BenchmarkParallelCommit(b *testing.B) {
	const ranks, size = 8, 4 << 20
	for _, workers := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opts := ckptstore.Options{Delta: true, Workers: workers}
			images := benchGeneration(b, ckptstore.MustOpen(ranks, opts), ranks, size, 0, 0)
			b.SetBytes(int64(ranks * size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				st := ckptstore.MustOpen(ranks, opts)
				b.StartTimer()
				if _, err := st.Commit(images); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelMaterialize measures restart-side chain resolution
// across worker-pool widths: 8 ranks, each resolving a base plus three
// delta links of a 4 MB app state. workers=1 is the serial reference.
func BenchmarkParallelMaterialize(b *testing.B) {
	const ranks, size = 8, 4 << 20
	for _, workers := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			st := ckptstore.MustOpen(ranks, ckptstore.Options{Delta: true, ChainCap: 8, Workers: workers})
			for gen := 0; gen < 4; gen++ {
				if _, err := st.Commit(benchGeneration(b, st, ranks, size, gen, 0.1)); err != nil {
					b.Fatal(err)
				}
			}
			if head, _ := st.Head(); head.Base() {
				b.Fatal("head generation is not a delta")
			}
			b.SetBytes(int64(ranks * size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				imgs, _, err := st.MaterializeStreamHead()
				if err != nil {
					b.Fatal(err)
				}
				if len(imgs) != ranks {
					b.Fatal("missing image")
				}
			}
		})
	}
}

// BenchmarkBackends measures Store.Commit across the registered
// persistence backends on one generation shape (8 ranks x 1 MB), with
// RetainBases bounding blob growth across iterations. ns/op is the real
// pipeline cost (mem and obj are memory-speed; fs and tier hit disk);
// commit-vt-ms is the modeled per-rank write charge of the tier each
// backend models — the burst-buffer-vs-NFS gap the backends experiment
// reports — and the tier row adds its modeled drain lag.
func BenchmarkBackends(b *testing.B) {
	const ranks, size = 8, 1 << 20
	for _, name := range []string{"mem", "fs", "obj", "tier"} {
		b.Run(name, func(b *testing.B) {
			opts := ckptstore.Options{Backend: name, RetainBases: 2}
			if name == "fs" || name == "tier" {
				opts.Dir = b.TempDir()
			}
			st := ckptstore.MustOpen(ranks, opts)
			images := benchGeneration(b, st, ranks, size, 0, 0)
			perRank := int64(len(images[0]))
			b.SetBytes(int64(ranks * size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := st.Commit(images); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			model := st.CostModel()
			if model.Name == "" {
				model = fsim.NFSv3() // the job-FS default these backends charge
			}
			b.ReportMetric(model.WriteCost(perRank).Seconds()*1e3, "commit-vt-ms")
			if d, ok := st.Backend().(interface{ DrainLag() time.Duration }); ok {
				b.ReportMetric(d.DrainLag().Seconds()*1e3/float64(b.N), "drain-lag-ms/op")
			}
		})
	}
}

// BenchmarkCompressTiers measures the compression codecs on the commit
// shape hot checkpoints take — 8 ranks x 4 MB app state encoded and
// committed per iteration. The gzip tiers trade encode speed for ratio
// (fast = flate BestSpeed, max = archival); fast-lz is the pure-Go
// LZ-class codec built for exactly this shape, targeting a multiple of
// gzip fast's throughput at a modestly worse ratio. The encoded-KB
// metric reports one rank's encoded image size.
func BenchmarkCompressTiers(b *testing.B) {
	const ranks, size = 8, 4 << 20
	imgs := make([]*ckptimg.Image, ranks)
	for r := range imgs {
		imgs[r] = benchImage(size, 1, 0.1)
		imgs[r].Rank, imgs[r].NRanks = r, ranks
	}
	tiers := []ckptimg.CompressTier{ckptimg.TierFast, ckptimg.TierBalanced, ckptimg.TierMax, ckptimg.TierFastLZ}
	for _, tier := range tiers {
		b.Run(tier.String(), func(b *testing.B) {
			st := ckptstore.MustOpen(ranks, ckptstore.Options{Compress: true, CompressTier: tier, RetainBases: 2})
			b.SetBytes(int64(ranks * size))
			b.ReportAllocs()
			var encoded int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				images := make([][]byte, ranks)
				for r, img := range imgs {
					data, err := ckptimg.EncodeOpts(img, st.EncodeOptions())
					if err != nil {
						b.Fatal(err)
					}
					images[r] = data
				}
				if _, err := st.Commit(images); err != nil {
					b.Fatal(err)
				}
				encoded = len(images[0])
			}
			b.ReportMetric(float64(encoded)/1024, "encoded-KB")
		})
	}
}

// BenchmarkDedupCommit measures the content-addressed commit against
// the plain store on the same 8 x 4 MB shape with rank-identical bulk:
// the extra segmentation + hashing cost dedup pays per commit, and the
// stored-byte shrink it buys (the stored-KB and ratio metrics).
func BenchmarkDedupCommit(b *testing.B) {
	const ranks, size = 8, 4 << 20
	for _, dedup := range []bool{false, true} {
		b.Run(fmt.Sprintf("dedup=%v", dedup), func(b *testing.B) {
			opts := ckptstore.Options{Delta: true, Dedup: dedup, RetainBases: 2}
			st := ckptstore.MustOpen(ranks, opts)
			images := benchGeneration(b, st, ranks, size, 0, 0)
			b.SetBytes(int64(ranks * size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				st = ckptstore.MustOpen(ranks, opts)
				b.StartTimer()
				if _, err := st.Commit(images); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if dedup {
				ds := st.DedupStats()
				b.ReportMetric(float64(ds.StoredBytes)/1024, "stored-KB")
				b.ReportMetric(ds.Ratio(), "ratio")
			}
		})
	}
}
