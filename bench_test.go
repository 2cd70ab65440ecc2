// Package manasim's top-level benchmarks are the testing.B
// micro-benchmarks that no replay workload of bench/ isolates: the
// application's own snapshot and restore copies, the store's commit,
// the two virtual-id designs' translation
// paths, the split-process crossing cost per fs-register mechanism and
// one wrapped call on its own. The paper's tables and figures are the
// registered experiments (manasim experiment, pinned by
// internal/harness/testdata/golden), and the end-to-end pipeline, drain,
// codec and backend costs are bench/'s workloads (bash bench/run.sh).
package manasim

import (
	"fmt"
	"testing"

	"manasim/internal/app"
	"manasim/internal/apps"
	"manasim/internal/ckptimg"
	"manasim/internal/ckptstore"
	"manasim/internal/cluster"
	mana "manasim/internal/core"
	"manasim/internal/impls"
	"manasim/internal/mpi"
	"manasim/internal/simtime"
	"manasim/internal/vid"
	"manasim/internal/vidlegacy"
)

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

// BenchmarkCrossingCost sweeps the split-process crossing cost across
// the two sites' fs-register mechanisms — Discovery's prctl, Perlmutter's
// userspace FSGSBASE — at LAMMPS-like call rates (the Section 6.3/6.4
// FSGSBASE analysis).
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
		b.Run(host.Name, func(b *testing.B) {
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
// what the model charges for it, exact and identical run to run. The
// batch sub-benchmarks run the applications' progress polling instead,
// Runtime.Iprobes over batchPolls discarded polls (one real Iprobe, the
// rest charged in closed form, with no horizon in the batch): ns/poll
// is what the simulator pays per poll there, and vt-ns/poll equals the
// single call's vt-ns/op.
func BenchmarkWrappedIprobe(b *testing.B) {
	const batchPolls = 1000
	factory, err := impls.Get("mpich")
	if err != nil {
		b.Fatal(err)
	}
	for _, host := range []simtime.HostProfile{simtime.Discovery(), simtime.Perlmutter()} {
		for _, design := range []mana.Design{mana.DesignVirtID, mana.DesignLegacy} {
			b.Run(fmt.Sprintf("%s/%s", host.Name, design), func(b *testing.B) {
				job := cluster.New(1, 0, factory, host.Net)
				cfg := mana.Config{ImplName: "mpich", Factory: factory, Host: host, Design: design}
				rt, err := mana.NewRuntime(cfg, job.Procs[0], job.Clocks[0], nil, nil)
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
			b.Run(fmt.Sprintf("%s/%s/batch", host.Name, design), func(b *testing.B) {
				job := cluster.New(1, 0, factory, host.Net)
				cfg := mana.Config{ImplName: "mpich", Factory: factory, Host: host, Design: design}
				rt, err := mana.NewRuntime(cfg, job.Procs[0], job.Clocks[0], nil, nil)
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
					if err := rt.Iprobes(batchPolls, mpi.AnySource, mpi.AnyTag, world); err != nil {
						b.Fatal(err)
					}
				}
				polls := float64(b.N) * batchPolls
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/polls, "ns/poll")
				b.ReportMetric(float64(job.Clocks[0].Now()-start)/polls, "vt-ns/poll")
			})
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
	var insts []app.Instance
	fresh := spec.New(in)
	cfg := mana.Config{ImplName: "mpich", Factory: factory}
	if _, err := mana.RunNative(cfg, in.Ranks, func() app.Instance {
		inst := fresh()
		insts = append(insts, inst)
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

// BenchmarkCommit measures Store.Commit of 8 ranks delivering 4 MB
// images into a delta store, so every rank pays a validate +
// chunk-index pass on the calling goroutine. B/op is the chunk indexes
// and the manifest, about 0.3 MB: the mem backend keeps the images
// Put hands it, and validation holds no state (it was 67 MB/op while
// Commit decoded every image).
func BenchmarkCommit(b *testing.B) {
	const ranks, size = 8, 4 << 20
	open := func() *ckptstore.Store {
		st, err := ckptstore.Open(ranks, ckptstore.Options{Delta: true})
		if err != nil {
			b.Fatal(err)
		}
		return st
	}
	images := benchGeneration(b, open(), ranks, size, 0, 0)
	b.SetBytes(int64(ranks * size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st := open()
		b.StartTimer()
		if _, err := st.Commit(images); err != nil {
			b.Fatal(err)
		}
	}
}
