package main

import (
	"fmt"
	"runtime"
	"time"

	"manasim/internal/ckptimg"
	"manasim/internal/ckptstore"
	"manasim/internal/cluster"
	mana "manasim/internal/core"
	"manasim/internal/mpi"
	"manasim/internal/simtime"
	"manasim/internal/transport"
	"manasim/internal/vid"
)

// The isolated drivers run after the traced iterations. Each feeds one
// layer, through its public functions only, the inputs the workload left
// behind — its checkpoint images, its store's generations, its rank
// count — so a layer metric moves only when that layer's code does.

// replay runs the drivers of the layers workload w exercises.
func replay(rep *workloadReport, w workload, r runner) error {
	switch r := r.(type) {
	case *wrapLammps:
		tables, err := lammpsVidTables(r.cells[0])
		if err != nil {
			return err
		}
		if err := vidOps(rep, tables); err != nil {
			return err
		}
		return ringDrivers(rep, r.cells[0].b, w)
	case *ckptHPCG:
		return storeDrivers(rep, r.last, false)
	case *restartChain:
		return storeDrivers(rep, r.store, true)
	case *drainScale:
		return ringDrivers(rep, r.b, w)
	}
	return fmt.Errorf("no drivers for %T", r)
}

func allocated(fn func() error) (time.Duration, uint64, uint64, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	err := fn()
	dt := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return dt, m1.TotalAlloc - m0.TotalAlloc, m1.Mallocs - m0.Mallocs, err
}

func mbPerS(bytes int64, d time.Duration) float64 {
	return float64(bytes) / 1e6 / d.Seconds()
}

// ---------------------------------------------------------------------
// ckptimg and ckptstore

// storeDrivers replays the store's generations through the checkpoint
// write path (encode, then commit into a fresh in-memory store with the
// same options) and the read path (decode, materialize), one generation
// in memory at a time.
func storeDrivers(rep *workloadReport, src *ckptstore.Store, vidRestore bool) error {
	opts := src.Opts()
	opts.Backend, opts.Dir, opts.WrapBackend = "mem", "", nil
	n := src.Ranks()
	dst, err := ckptstore.Open(n, opts)
	if err != nil {
		return err
	}
	enc := dst.EncodeOptions()
	var (
		fullNs, deltaNs, commitNs time.Duration
		fullRaw, deltaRaw         int64
		fullEnc, committed        int64
		fullAlloc, commitAlloc    uint64
		bases                     [][]byte
		head                      []*ckptimg.Image
	)
	for _, g := range src.Generations() {
		imgs, _, err := src.MaterializeStream(g.Seq)
		if err != nil {
			return err
		}
		head = imgs
		encoded := make([][]byte, n)
		for rank, img := range imgs {
			raw := int64(len(img.AppState))
			if parent, parentGen, ok := dst.PlanDelta(rank); ok {
				t0 := time.Now()
				data, _, err := ckptimg.EncodeDelta(img, parent, parentGen, enc)
				deltaNs += time.Since(t0)
				if err != nil {
					return err
				}
				deltaRaw += raw
				encoded[rank] = data
				continue
			}
			dt, bytes, _, err := allocated(func() (err error) {
				encoded[rank], err = ckptimg.EncodeOpts(img, enc)
				return err
			})
			if err != nil {
				return err
			}
			fullNs += dt
			fullAlloc += bytes
			fullRaw += raw
			fullEnc += int64(len(encoded[rank]))
			bases = append(bases, encoded[rank])
		}
		for _, data := range encoded {
			committed += int64(len(data))
		}
		dt, bytes, _, err := allocated(func() error {
			_, err := dst.Commit(encoded)
			return err
		})
		if err != nil {
			return fmt.Errorf("replayed commit of generation %d: %w", g.Seq, err)
		}
		commitNs += dt
		commitAlloc += bytes
	}
	gens := float64(len(src.Generations()))
	rep.set("ckptimg.encode_mb_s", mbPerS(fullRaw, fullNs))
	rep.set("ckptimg.encode_alloc_ratio", float64(fullAlloc)/float64(fullRaw))
	rep.set("ckptimg.ratio", float64(fullEnc)/float64(fullRaw))
	if deltaRaw > 0 {
		rep.set("ckptimg.encode_delta_mb_s", mbPerS(deltaRaw, deltaNs))
	}
	rep.set("ckptstore.commit_ms", ms(commitNs)/gens)
	rep.set("ckptstore.commit_alloc_ratio", float64(commitAlloc)/float64(committed))

	t0 := time.Now()
	for _, data := range bases {
		if _, err := ckptimg.Decode(data); err != nil {
			return err
		}
	}
	rep.set("ckptimg.decode_mb_s", mbPerS(fullRaw, time.Since(t0)))

	var state int64
	dt, bytes, _, err := allocated(func() error {
		imgs, _, err := dst.MaterializeStreamHead()
		for _, img := range imgs {
			state += int64(len(img.AppState))
		}
		return err
	})
	if err != nil {
		return err
	}
	rep.set("ckptstore.materialize_ms", ms(dt))
	rep.set("ckptstore.materialize_alloc_ratio", float64(bytes)/float64(state))

	if vidRestore {
		tables := vidTables(head)
		t0 := time.Now()
		for _, tab := range tables {
			if _, err := tab.restoreBound(); err != nil {
				return err
			}
		}
		rep.set("vid.restore_ms", ms(time.Since(t0)))
	}
	return nil
}

// ---------------------------------------------------------------------
// vid

// vidTable is one rank's virtual-id table as a checkpoint image holds
// it, with the handle embedding it was taken under.
type vidTable struct {
	snap    vid.StoreSnapshot
	uniform bool
}

func vidTables(imgs []*ckptimg.Image) []vidTable {
	tables := make([]vidTable, len(imgs))
	for i, img := range imgs {
		tables[i] = vidTable{snap: img.Store, uniform: img.UniformHandles}
	}
	return tables
}

// lammpsVidTables runs the cell's job up to a checkpoint at the first
// boundary and returns each rank's table: what wrap-lammps translates
// through.
func lammpsVidTables(c lammpsCell) ([]vidTable, error) {
	cfg := c.b.cfg
	cfg.ExitAtCheckpoint = true
	_, images, err := mana.Run(cfg, lammpsRanks, c.appf, 1)
	if err != nil {
		return nil, fmt.Errorf("capturing vid tables: %w", err)
	}
	imgs := make([]*ckptimg.Image, len(images))
	for i, data := range images {
		if imgs[i], err = ckptimg.Decode(data); err != nil {
			return nil, err
		}
	}
	return vidTables(imgs), nil
}

// restoreBound rebuilds the table from its snapshot and binds every live
// entry to a physical handle, as a restart does. Every workload takes
// its images under the MPICH family, whose handles are 32 bits wide.
func (tab vidTable) restoreBound() (vid.Store, error) {
	s := tab.snap
	st, err := vid.RestoreStore(s, 32, tab.uniform)
	if err != nil {
		return nil, err
	}
	for i, it := range s.Items {
		if it.Freed {
			continue
		}
		// A snapshot names entries by their 32-bit reference.
		if err := st.Rebind(it.Kind, st.VirtFromRef(vid.RefOf(it.Virt)), mpi.Handle(0x1000+i)); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// vidOps times the three operations wrappers perform on the table, on
// the workload's own tables.
func vidOps(rep *workloadReport, tables []vidTable) error {
	const ops = 1 << 21
	var phys, virt, add time.Duration
	for _, tab := range tables {
		st, err := tab.restoreBound()
		if err != nil {
			return err
		}
		var live []vid.Item
		for _, it := range tab.snap.Items {
			if !it.Freed {
				it.Virt = st.VirtFromRef(vid.RefOf(it.Virt))
				live = append(live, it)
			}
		}
		if len(live) == 0 {
			return fmt.Errorf("vid snapshot has no live entry")
		}
		per := ops / len(tables)
		physOf := make([]mpi.Handle, len(live))
		t0 := time.Now()
		for i := 0; i < per; i++ {
			it := live[i%len(live)]
			h, err := st.Phys(it.Kind, it.Virt)
			if err != nil {
				return err
			}
			physOf[i%len(live)] = h
		}
		phys += time.Since(t0)
		t0 = time.Now()
		for i := 0; i < per; i++ {
			k := i % len(live)
			if _, ok := st.Virt(live[k].Kind, physOf[k]); !ok {
				return fmt.Errorf("vid: no virtual id for a bound physical handle")
			}
		}
		virt += time.Since(t0)
		// Add then Drop is what a wrapper does for every request.
		t0 = time.Now()
		for i := 0; i < per; i++ {
			h, err := st.Add(mpi.KindRequest, mpi.Handle(0x100000+i), vid.Descriptor{}, vid.StrategyReplay)
			if err != nil {
				return err
			}
			if err := st.Drop(mpi.KindRequest, h); err != nil {
				return err
			}
		}
		add += time.Since(t0)
	}
	rep.set("vid.phys_ns_per_op", float64(phys)/ops)
	rep.set("vid.virt_ns_per_op", float64(virt)/ops)
	rep.set("vid.add_ns_per_op", float64(add)/ops)
	return nil
}

// ---------------------------------------------------------------------
// transport and kernel

// bareProc is a no-op lower half: the ring drivers talk to the fabric
// directly and never call it.
type bareProc struct{ mpi.Proc }

func bareFactory(*transport.Fabric, int, *simtime.Clock, simtime.NetModel) mpi.Proc {
	return bareProc{}
}

// ringDrivers measures the two layers under mpibase at the workload's
// rank count: kernel_bench_test.go's token ring for the kernel (one
// park, one wake and one queue pop per hop), and an all-to-all deposit
// and drain on a bare fabric for transport matching (every mailbox holds
// a message from every peer, as during a drain's counter exchange).
func ringDrivers(rep *workloadReport, b base, w workload) error {
	n := w.ranks
	const hops = 1 << 16
	j := b.newJob(n, bareFactory, b.cfg.Host.Net)
	dt, _, mallocs, err := allocated(func() error {
		j.Start(tokenRing(j, n, hops))
		_, err := j.WaitResult()
		return err
	})
	if err != nil {
		return fmt.Errorf("token ring: %w", err)
	}
	events := float64(hops + n)
	rep.set("kernel.ns_per_event_"+w.rtag, float64(dt)/events)
	if w.name == wDrain {
		rep.set("kernel.allocs_per_event_"+w.rtag, float64(mallocs)/events)
	}

	rounds := max(1, (1<<18)/(n*(n-1)))
	msgs := float64(rounds * n * (n - 1))
	dt, _, mallocs, err = allocated(func() error { return allToAll(n, rounds) })
	if err != nil {
		return fmt.Errorf("all-to-all: %w", err)
	}
	rep.set("transport.ns_per_msg_"+w.rtag, float64(dt)/msgs)
	rep.set("transport.allocs_per_msg", float64(mallocs)/msgs)
	return nil
}

// tokenRing circulates one token for a fixed hop budget, then a
// shutdown lap retires every rank (see kernel_bench_test.go).
func tokenRing(j *cluster.Job, n, hops int) cluster.RankFn {
	return func(rank int, _ mpi.Proc, clock *simtime.Clock) error {
		ep := j.Fabric.Endpoint(rank)
		next, prev := (rank+1)%n, (rank+n-1)%n
		send := func(v int64) error {
			return ep.Send(next, 1, 0, mpi.Int64Bytes([]int64{v}), clock.Now())
		}
		if rank == 0 {
			if err := send(int64(hops + n - 1)); err != nil {
				return err
			}
		}
		for {
			msg, err := ep.Recv(transport.Match{Context: 1, Src: prev, Tag: 0})
			if err != nil {
				return err
			}
			v := mpi.Int64s(msg.Payload)[0]
			if v >= int64(n) {
				clock.Advance(time.Microsecond)
				if err := send(v - 1); err != nil {
					return err
				}
				continue
			}
			if v > 0 {
				return send(v - 1)
			}
			return nil
		}
	}
}

// allToAll deposits one 8-byte message from every rank into every other
// rank's mailbox, then drains each mailbox source by source.
func allToAll(n, rounds int) error {
	fab := transport.NewFabric(n)
	defer fab.Close()
	payload := make([]byte, 8)
	for round := 0; round < rounds; round++ {
		for src := 0; src < n; src++ {
			ep := fab.Endpoint(src)
			for dst := 0; dst < n; dst++ {
				if dst == src {
					continue
				}
				if err := ep.Send(dst, 1, round, payload, 0); err != nil {
					return err
				}
			}
		}
		for dst := 0; dst < n; dst++ {
			ep := fab.Endpoint(dst)
			for src := 0; src < n; src++ {
				if src == dst {
					continue
				}
				_, ok, err := ep.TryRecv(transport.Match{Context: 1, Src: src, Tag: round})
				if err != nil {
					return err
				}
				if !ok {
					return fmt.Errorf("transport: message %d->%d of round %d not matched", src, dst, round)
				}
			}
		}
	}
	return nil
}
