package harness

import (
	"fmt"
	"slices"

	"manasim/internal/apps"
	"manasim/internal/ckptstore"
	mana "manasim/internal/core"
	"manasim/internal/fsim"
	"manasim/internal/impls"
)

// deltaChunkBytes is the delta chunk size of the experiment. Production
// images are GBs chunked at ckptimg.AppChunk; the proxies' snapshots
// are tens of KB, so the chunk shrinks proportionally to keep a
// realistic chunks-per-image ratio.
const deltaChunkBytes = 4 << 10

// DeltaRow is one cell of the incremental-checkpoint comparison: one
// application checkpointed twice along a run/restart chain, with the
// store either writing every generation in full or writing the second
// generation as a delta against the first.
type DeltaRow struct {
	App  string `col:"App,%s"`
	Mode string `col:"Mode,%s"` // "full" or "delta"
	// BaseKB is generation 0's total encoded bytes (always a base).
	BaseKB float64 `col:"Base KB,%.1f"`
	// IncrKB is generation 1's total encoded bytes — the generation the
	// delta tier shrinks.
	IncrKB float64 `col:"Incr KB,%.1f"`
	// IncrPct is IncrKB as a percentage of BaseKB.
	IncrPct float64 `col:"Incr %,%.0f%%"`
	// RestartVTS is the virtual time of the final restarted segment
	// (chain resolution is charged through the filesystem model).
	RestartVTS float64 `col:"Restart VT (s),%.1f"`
	// RestartOK records that the run completed from the materialized
	// chain with checksums identical to an uninterrupted run.
	RestartOK Verdict `col:"Restart,%s"`
}

// DeltaImages compares full and incremental checkpoint generations on
// a run → checkpoint → restart → checkpoint → restart chain: the second
// generation is taken after a restart, so in delta mode it is encoded
// against the first generation's chunk index and materialized through
// the base+delta chain for the final restart.
func DeltaImages(opts Options) ([]DeltaRow, error) {
	opts = opts.normalized()
	var rows []DeltaRow
	for _, appName := range []string{"comd", "lammps", "hpcg"} {
		spec, err := apps.ByName(appName)
		if err != nil {
			return nil, err
		}
		in := spec.DefaultInput(apps.SiteDiscovery)
		in.Ranks = 8
		in.SimSteps = max(6, 12/opts.Fast)
		s1, s2 := in.SimSteps/3, 2*in.SimSteps/3

		factory, err := impls.Get("mpich")
		if err != nil {
			return nil, err
		}
		base := mana.Config{ImplName: "mpich", Factory: factory, FS: fsim.NFSv3()}
		plain, err := mana.RunStats(base, in.Ranks, spec.New(in), -1)
		if err != nil {
			return nil, fmt.Errorf("delta experiment %s baseline: %w", appName, err)
		}

		for _, delta := range []bool{false, true} {
			st, err := ckptstore.Open(in.Ranks, ckptstore.Options{
				Delta: delta, ChunkBytes: deltaChunkBytes, ChainCap: 8,
			})
			if err != nil {
				return nil, err
			}
			// Generation 1 is taken after a restart from generation 0;
			// in delta mode it diffs against generation 0, and the
			// final restart resolves the chain.
			run, err := runChain(base, st, spec.New(in), s1, s2)
			if err != nil {
				return nil, fmt.Errorf("delta experiment %s: %w", appName, err)
			}

			gens := st.Generations()
			if len(gens) != 2 {
				return nil, fmt.Errorf("delta experiment %s: %d generations, want 2", appName, len(gens))
			}
			mode := "full"
			if delta {
				mode = "delta"
				if gens[1].Base() {
					return nil, fmt.Errorf("delta experiment %s: second generation is not incremental", appName)
				}
			}
			row := DeltaRow{
				App: spec.Paper, Mode: mode,
				BaseKB:     float64(gens[0].Bytes) / 1024,
				IncrKB:     float64(gens[1].Bytes) / 1024,
				RestartVTS: run.last.VT.Seconds(),
				RestartOK:  Verdict(slices.Equal(plain.Checksums, run.last.Checksums)),
			}
			if gens[0].Bytes > 0 {
				row.IncrPct = float64(gens[1].Bytes) / float64(gens[0].Bytes) * 100
			}
			if opts.Logf != nil {
				opts.Logf("delta %s/%s: base=%.1fKB incr=%.1fKB (%.0f%%) restart-vt=%.1fs ok=%v",
					appName, mode, row.BaseKB, row.IncrKB, row.IncrPct, row.RestartVTS, row.RestartOK)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// DeltaChainRow is one point of the restart-cost sweep: the same
// checkpoint cadence driven through stores of different ChainCap, so
// the head generation sits on delta chains of different depth when the
// final restart resolves it (newest-wins chunk ownership: only winning
// chunks decompressed, the links charged as one pipelined read) — the
// sweep shows restart VT and peak resolver memory against chain depth.
type DeltaChainRow struct {
	// ChainCap is the store's consecutive-delta bound.
	ChainCap int `col:"ChainCap,%d"`
	// Gens is the number of generations committed by the cadence.
	Gens int `col:"Gens,%d"`
	// HeadLinks is the delta-chain depth the final restart resolved.
	HeadLinks int `col:"Links,%d"`
	// StoredKB is the total bytes the backend holds across generations.
	StoredKB float64 `col:"Stored KB,%.1f"`
	// RestartVTS is the final restarted segment's VT.
	RestartVTS float64 `col:"Restart VT (s),%.1f"`
	// ChunksRead / ChunksSkipped aggregate the resolver's per-rank chunk
	// accounting: skipped chunks are superseded payloads that were never
	// decompressed.
	ChunksRead    int `col:"Read,%d"`
	ChunksSkipped int `col:"Skipped,%d"`
	// PeakKB is the resolver's worst per-rank resident-set estimate.
	PeakKB float64 `col:"Peak KB,%.1f"`
	// RestartOK records checksum equality with an uninterrupted run.
	RestartOK Verdict `col:"Restart,%s"`
}

// DeltaChainSweep measures restart cost against chain depth: one
// application checkpointed nine times along a restart chain, with
// ChainCap swept so the final restart resolves head chains of depth 0
// (every generation a base) up to 8 (one base plus eight deltas).
func DeltaChainSweep(opts Options) ([]DeltaChainRow, error) {
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
	in.SimSteps = 20
	ckptSteps := []int{2, 4, 6, 8, 10, 12, 14, 16, 18}

	base := mana.Config{ImplName: "mpich", Factory: factory, FS: fsim.NFSv3()}
	plain, err := mana.RunStats(base, in.Ranks, spec.New(in), -1)
	if err != nil {
		return nil, fmt.Errorf("delta chain sweep baseline: %w", err)
	}

	var rows []DeltaChainRow
	for _, chainCap := range []int{0, 1, 2, 4, 8} {
		// chainCap 0 means "every generation a base": the honored
		// sentinel expresses it directly in delta mode (a literal zero
		// would select the default cap).
		cap := chainCap
		if cap == 0 {
			cap = ckptstore.ChainCapNone
		}
		st, err := ckptstore.Open(in.Ranks, ckptstore.Options{
			Delta: true, ChainCap: cap, ChunkBytes: deltaChunkBytes,
		})
		if err != nil {
			return nil, err
		}
		run, err := runChain(base, st, spec.New(in), ckptSteps...)
		if err != nil {
			return nil, fmt.Errorf("delta chain sweep cap=%d: %w", chainCap, err)
		}

		gens := st.Generations()
		links := 0
		for i := len(gens) - 1; i >= 0 && !gens[i].Base(); i-- {
			links++
		}
		var stored int64
		for _, g := range gens {
			stored += g.Bytes
		}
		row := DeltaChainRow{
			ChainCap: chainCap, Gens: len(gens), HeadLinks: links,
			StoredKB:   float64(stored) / 1024,
			RestartVTS: run.last.VT.Seconds(),
			RestartOK:  Verdict(slices.Equal(plain.Checksums, run.last.Checksums)),
		}
		for _, cs := range run.chains {
			row.ChunksRead += cs.ChunksRead
			row.ChunksSkipped += cs.ChunksSkipped
			row.PeakKB = max(row.PeakKB, float64(cs.PeakBytes)/1024)
		}
		if opts.Logf != nil {
			opts.Logf("delta chain cap=%d: links=%d stored=%.1fKB restart-vt=%.1fs skipped=%d ok=%v",
				chainCap, row.HeadLinks, row.StoredKB, row.RestartVTS, row.ChunksSkipped, row.RestartOK)
		}
		rows = append(rows, row)
	}
	return rows, nil
}
