package harness

import (
	"fmt"
	"time"

	"manasim/internal/apps"
	"manasim/internal/ckpt"
	"manasim/internal/cluster"
	mana "manasim/internal/core"
	"manasim/internal/fsim"
	"manasim/internal/impls"
)

// DrainScaleRow is one cell of the drain rank sweep: one drain strategy
// checkpointing the pipelined workload at one job size.
type DrainScaleRow struct {
	Ranks    int    `col:"Ranks,%d"`
	Strategy string `col:"Strategy,%s"`
	// CkptVTS is the virtual time up to and including the checkpoint
	// (the job stops there), in seconds.
	CkptVTS float64 `col:"Ckpt VT (s),%.1f"`
	// DrainVTS is the drain strategy's own virtual cost (slowest rank),
	// in seconds.
	DrainVTS float64 `col:"Drain VT (ms),%.3f,1e3"`
	// CtlMsgs is the number of drain control messages across all ranks —
	// the protocol traffic the sweep exposes: twophase's Alltoall is
	// n(n−1) slots, toposort's announcement E + 2(n−1) messages for a
	// send graph of E edges.
	CtlMsgs uint64 `col:"Ctl msgs,%d"`
	// CtlBytes is the payload of those messages in bytes, the column
	// that tells a sparse counter row from a dense one.
	CtlBytes uint64 `col:"Ctl KB,%.1f,1e-3"`
	// WallS is the real time the simulation took, in seconds: the one
	// host-clock field of any table, zeroed in the goldens.
	WallS float64 `col:"Wall (s),%.2f" clock:"wall"`
}

// DrainScaleRanks is the default rank sweep of the drain scale
// experiment.
var DrainScaleRanks = []int{64, 256, 1024}

// DrainScale sweeps the registered drain strategies over large job
// sizes. The kernel runs each cell single-threaded through the
// virtual-time queue, so a 1024-rank drain costs wall time proportional
// to its event count, not its rank count. Each cell runs the pipelined
// LAMMPS-style workload on MPICH, checkpoints mid-run, and stops at the
// checkpoint (the images are delivered to the store but never
// materialized — at 1024 ranks that alone would dominate the
// measurement).
func DrainScale(opts Options) ([]DrainScaleRow, error) {
	spec, err := apps.ByName("lammps")
	if err != nil {
		return nil, err
	}
	factory, err := impls.Get("mpich")
	if err != nil {
		return nil, err
	}
	var rows []DrainScaleRow
	for _, ranks := range DrainScaleRanks {
		for _, strat := range ckpt.DrainNames() {
			row, err := drainScaleCell(spec, factory, ranks, strat)
			if err != nil {
				return nil, err
			}
			if opts.Logf != nil {
				opts.Logf("drain-scale %d/%s: vt=%.1fs drain-vt=%.3fs ctl-msgs=%d ctl-bytes=%d wall=%.2fs",
					ranks, strat, row.CkptVTS, row.DrainVTS, row.CtlMsgs, row.CtlBytes, row.WallS)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// drainScaleCell runs one cell of the sweep.
func drainScaleCell(spec apps.Spec, factory cluster.Factory, ranks int, strat string) (DrainScaleRow, error) {
	in := spec.DefaultInput(apps.SiteDiscovery)
	in.Ranks = ranks
	in.SimSteps = 4
	in.PollsPerStep = 2
	cfg := mana.Config{
		ImplName:         "mpich",
		Factory:          factory,
		FS:               fsim.NFSv3(),
		DrainStrategy:    strat,
		ExitAtCheckpoint: true,
	}
	start := time.Now()
	s, err := mana.StartJob(cfg, ranks, spec.New(in))
	if err != nil {
		return DrainScaleRow{}, fmt.Errorf("drain scale %d/%s: %w", ranks, strat, err)
	}
	s.Co.RequestCheckpointAtStep(in.SimSteps / 2)
	st, err := s.Wait()
	if err != nil {
		return DrainScaleRow{}, fmt.Errorf("drain scale %d/%s: %w", ranks, strat, err)
	}
	if st.CkptTaken != 1 || !st.Stopped {
		return DrainScaleRow{}, fmt.Errorf("drain scale %d/%s: checkpoint did not complete (taken=%d stopped=%v)",
			ranks, strat, st.CkptTaken, st.Stopped)
	}
	return DrainScaleRow{
		Ranks:    ranks,
		Strategy: strat,
		CkptVTS:  st.VT.Seconds(),
		DrainVTS: st.DrainVT.Seconds(),
		CtlMsgs:  st.CtlMsgs,
		CtlBytes: st.CtlBytes,
		WallS:    time.Since(start).Seconds(),
	}, nil
}
