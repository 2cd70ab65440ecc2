package harness

import (
	"fmt"
	"os"
	"slices"
	"time"

	"manasim/internal/apps"
	"manasim/internal/ckptstore"
	mana "manasim/internal/core"
	"manasim/internal/fsim"
	"manasim/internal/impls"
)

// drainLagger is implemented by write-behind backends (the tier
// backend) that can report how far back-tier durability trails the
// acknowledged writes.
type drainLagger interface {
	DrainLag() time.Duration
}

// BackendRow is one cell of the storage-tier comparison: the same
// workload checkpointed and restarted over one store backend, with
// checkpoint I/O charged against the tier that backend models.
type BackendRow struct {
	// Backend is the ckptstore backend name (mem, fs, obj, tier).
	Backend string `col:"Backend,%s"`
	// Profile names the cost profile the checkpoint writes were charged
	// against (the backend's own model, or the job's NFSv3 default).
	Profile string `col:"Profile,%s"`
	// CommitVTS is the virtual time of the run up to and including the
	// checkpoint (preemption stop) — where the write-tier cost lands.
	CommitVTS float64 `col:"Commit VT (s),%.1f"`
	// RestartVTS is the virtual time of the restarted final segment.
	RestartVTS float64 `col:"Restart VT (s),%.1f"`
	// DrainLagS is the modeled gap between front-tier commit and
	// back-tier durability (tier backend only; zero elsewhere).
	DrainLagS float64 `col:"Drain lag (s),%.1f"`
	// StoredKB is the total bytes the backend holds across generations.
	StoredKB float64 `col:"Stored KB,%.1f"`
	// RestartOK records checksum equality with an uninterrupted run.
	RestartOK Verdict `col:"Restart,%s"`
}

// Backends sweeps the registered store backends over one workload: CoMD
// on MPICH checkpoints mid-run (preemption stop) and restarts to
// completion over mem, fs, obj, and tier persistence. The mem and fs
// rows charge the job's NFSv3 model (the direct-NFS path); obj charges
// per-op round trips; tier commits at burst-buffer speed while its
// drainer flushes to the NFS-model back tier — the drain-lag column is
// the durability price of that speed.
func Backends(opts Options) ([]BackendRow, error) {
	opts = opts.normalized()
	spec, err := apps.ByName("comd")
	if err != nil {
		return nil, err
	}
	factory, err := impls.Get("mpich")
	if err != nil {
		return nil, err
	}
	in := spec.DefaultInput(apps.SiteDiscovery)
	in.Ranks = 8
	in.SimSteps = max(6, 12/opts.Fast)
	ckptStep := in.SimSteps / 2

	base := mana.Config{ImplName: "mpich", Factory: factory, FS: fsim.NFSv3()}
	plain, err := mana.RunStats(base, in.Ranks, spec.New(in), -1)
	if err != nil {
		return nil, fmt.Errorf("backends experiment baseline: %w", err)
	}

	var rows []BackendRow
	for _, backend := range []string{"mem", "fs", "obj", "tier"} {
		o := ckptstore.Options{Backend: backend}
		if backend == "fs" || backend == "tier" {
			dir, err := os.MkdirTemp("", "manasim-backends-*")
			if err != nil {
				return nil, err
			}
			defer os.RemoveAll(dir)
			o.Dir = dir
		}
		st, err := ckptstore.Open(in.Ranks, o)
		if err != nil {
			return nil, fmt.Errorf("backends experiment %s: %w", backend, err)
		}
		run, err := runChain(base, st, spec.New(in), ckptStep)
		if err != nil {
			return nil, fmt.Errorf("backends experiment %s: %w", backend, err)
		}

		row := BackendRow{
			Backend:    backend,
			Profile:    profileName(st, base.FS),
			CommitVTS:  run.first.VT.Seconds(),
			RestartVTS: run.last.VT.Seconds(),
			RestartOK:  Verdict(slices.Equal(plain.Checksums, run.last.Checksums)),
		}
		for _, g := range st.Generations() {
			row.StoredKB += float64(g.Bytes) / 1024
		}
		if d, ok := st.Backend().(drainLagger); ok {
			row.DrainLagS = d.DrainLag().Seconds()
		}
		if opts.Logf != nil {
			opts.Logf("backends %s (%s): commit-vt=%.1fs restart-vt=%.1fs drain-lag=%.1fs ok=%v",
				backend, row.Profile, row.CommitVTS, row.RestartVTS, row.DrainLagS, row.RestartOK)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// profileName renders the cost profile a store's checkpoint I/O is
// charged against.
func profileName(st *ckptstore.Store, jobFS fsim.FS) string {
	if m := st.CostModel(); m.Name != "" {
		return m.Name
	}
	return jobFS.Name + " (job FS)"
}
