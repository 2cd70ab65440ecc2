package harness

import (
	"fmt"
	"slices"

	"manasim/internal/apps"
	"manasim/internal/ckpt"
	"manasim/internal/ckptstore"
	mana "manasim/internal/core"
	"manasim/internal/fsim"
	"manasim/internal/impls"
)

// DrainRow is one cell of the drain-strategy comparison: one MPI
// implementation checkpointing a pipelined workload under one drain
// strategy, then restarting from its checkpoint store.
type DrainRow struct {
	Impl     string `col:"Impl,%s"`
	Strategy string `col:"Strategy,%s"`
	// CkptVTS is the virtual time of the run up to and including the
	// checkpoint (preemption stop), in seconds.
	CkptVTS float64 `col:"Ckpt VT (s),%.1f"`
	// DrainVTS is the virtual time the drain strategy itself spent
	// reconciling in-flight messages (slowest rank), in seconds — the
	// protocol cost isolated from the rest of the checkpoint.
	DrainVTS float64 `col:"Drain VT (ms),%.3f,1e3"`
	// CtlMsgs is the number of drain control messages sent over the
	// internal communicator across all ranks.
	CtlMsgs uint64 `col:"Ctl msgs,%d"`
	// CtlBytes is the payload of those messages in bytes.
	CtlBytes uint64 `col:"Ctl B,%d"`
	// Drained is the total number of in-flight messages captured across
	// all rank images.
	Drained int `col:"Drained,%d"`
	// ImageKB is the mean encoded image size per rank in KiB.
	ImageKB float64 `col:"Image KB,%.1f"`
	// RestartOK records that the restarted run finished with checksums
	// identical to an uninterrupted run.
	RestartOK Verdict `col:"Restart,%s"`
}

// DrainStrategies compares the registered drain strategies across the
// four simulated MPI implementations on a pipelined LAMMPS-style
// workload that keeps halo-exchange messages in flight at the
// checkpoint boundary. Every cell checkpoints mid-run, stops
// (preemption), restarts from the store, and validates bitwise-equal
// checksums against an uninterrupted run.
func DrainStrategies(opts Options) ([]DrainRow, error) {
	opts = opts.normalized()
	var rows []DrainRow
	for _, implName := range impls.Names() {
		// ExaMPI runs the compatible subset (Figure 3): CoMD stands in
		// for the pipelined workload there.
		appName := "lammps"
		if implName == "exampi" {
			appName = "comd"
		}
		spec, err := apps.ByName(appName)
		if err != nil {
			return nil, err
		}
		in := spec.DefaultInput(apps.SiteDiscovery)
		in.Ranks = 8
		in.SimSteps = max(4, 8/opts.Fast)
		in.PollsPerStep = 4
		ckptStep := in.SimSteps / 2

		factory, err := impls.Get(implName)
		if err != nil {
			return nil, err
		}
		base := mana.Config{ImplName: implName, Factory: factory, FS: fsim.NFSv3()}
		plain, err := mana.RunStats(base, in.Ranks, spec.New(in), -1)
		if err != nil {
			return nil, fmt.Errorf("drain experiment %s baseline: %w", implName, err)
		}
		for _, strat := range ckpt.DrainNames() {
			store, err := ckptstore.Open(in.Ranks, ckptstore.Options{})
			if err != nil {
				return nil, err
			}
			cfg := base
			cfg.DrainStrategy = strat
			run, err := runChain(cfg, store, spec.New(in), ckptStep)
			if err != nil {
				return nil, fmt.Errorf("drain experiment %s/%s: %w", implName, strat, err)
			}
			st := run.first
			row := DrainRow{
				Impl: implName, Strategy: strat,
				CkptVTS:   st.VT.Seconds(),
				DrainVTS:  st.DrainVT.Seconds(),
				CtlMsgs:   st.CtlMsgs,
				CtlBytes:  st.CtlBytes,
				RestartOK: Verdict(slices.Equal(plain.Checksums, run.last.Checksums)),
			}
			head, _ := store.Head()
			imgs, _, err := store.MaterializeStream(head.Seq)
			if err != nil {
				return nil, err
			}
			for _, img := range imgs {
				row.Drained += len(img.Drained)
			}
			row.ImageKB = float64(head.Bytes) / float64(len(imgs)) / 1024
			if opts.Logf != nil {
				opts.Logf("drain %s/%s: vt=%.1fs drain-vt=%.2fs ctl-msgs=%d ctl-bytes=%d drained=%d restart-ok=%v",
					implName, strat, row.CkptVTS, row.DrainVTS, row.CtlMsgs, row.CtlBytes, row.Drained, row.RestartOK)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}
