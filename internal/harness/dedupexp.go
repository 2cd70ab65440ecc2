package harness

import (
	"fmt"
	"slices"

	"manasim/internal/apps"
	"manasim/internal/ckptimg"
	"manasim/internal/ckptstore"
	mana "manasim/internal/core"
	"manasim/internal/fsim"
	"manasim/internal/impls"
)

// DedupRow is one cell of the content-addressed-store comparison: the
// same workload checkpointed twice along a run/restart chain over a
// plain store and over a dedup store with identical delta settings, at
// one (application, rank count, codec) point of the sweep.
type DedupRow struct {
	App   string `col:"App,%s"`
	Ranks int    `col:"Ranks,%d"`
	// Codec names the image compression in front of the store: "none",
	// "gzip-fast" (flate BestSpeed), or "fast-lz" (the pure-Go LZ
	// codec). Compression interacts with dedup: identical states still
	// compress to identical bytes, but small per-rank differences smear
	// through the compressed stream and shrink cross-rank sharing.
	Codec string `col:"Codec,%s"`
	// StoredKB is the plain store's backend bytes across generations;
	// DedupKB is the content-addressed store's — unique blob bytes plus
	// the per-rank reassembly recipes.
	StoredKB float64 `col:"Stored KB,%.1f"`
	DedupKB  float64 `col:"Dedup KB,%.1f"`
	// SavedPct is the stored-byte shrink dedup bought at equal ChainCap.
	SavedPct float64 `col:"Saved,%.0f%%"`
	// Ratio is logical image bytes over stored blob bytes (cross-rank
	// and cross-generation sharing combined); SharedRefs counts recipe
	// references to blobs that at least one other reference also holds.
	Ratio      float64 `col:"Ratio,%.2f"`
	SharedRefs int     `col:"Shared,%d"`
	// CommitVTS / DedupCommitVTS are the virtual time of the run up to
	// and including the first checkpoint (preemption stop) — where the
	// write charge lands; the dedup store charges each rank only its new
	// unique bytes.
	CommitVTS      float64 `col:"Commit VT plain (s),%.1f"`
	DedupCommitVTS float64 `col:"Commit VT dedup (s),%.1f"`
	// RestartVTS / DedupRestartVTS are the virtual time of the final
	// restarted segment, whose materialization resolves blob recipes on
	// the dedup store.
	RestartVTS      float64 `col:"Restart VT plain (s),%.1f"`
	DedupRestartVTS float64 `col:"Restart VT dedup (s),%.1f"`
	// RestartOK records checksum equality with an uninterrupted run in
	// both modes.
	RestartOK Verdict `col:"Restart,%s"`
}

// DedupSweep measures the content-addressed store across rank counts,
// applications, and codecs. Each cell runs checkpoint → restart →
// checkpoint → restart twice — once over a plain delta store, once over
// a dedup store with the same ChainCap — and reports the stored-byte
// shrink, the dedup ratio, and the commit/restart virtual times of both.
func DedupSweep(opts Options) ([]DedupRow, error) {
	opts = opts.normalized()
	var rows []DedupRow
	for _, appName := range []string{"comd", "hpcg"} {
		for _, ranks := range []int{8, 64} {
			for _, codec := range []string{"none", "gzip-fast", "fast-lz"} {
				row, err := dedupCell(appName, ranks, codec, opts.Fast)
				if err != nil {
					return nil, err
				}
				if opts.Logf != nil {
					opts.Logf("dedup %s/%dr/%s: stored=%.1fKB dedup=%.1fKB (-%.0f%%) ratio=%.2f commit-vt=%.1fs/%.1fs restart-vt=%.1fs/%.1fs ok=%v",
						appName, ranks, codec, row.StoredKB, row.DedupKB, row.SavedPct, row.Ratio,
						row.CommitVTS, row.DedupCommitVTS, row.RestartVTS, row.DedupRestartVTS, row.RestartOK)
				}
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

// dedupCell runs one (application, ranks, codec) cell of the sweep:
// a full baseline run for checksums, then the two-generation
// checkpoint/restart chain over a plain and a dedup store.
func dedupCell(appName string, ranks int, codec string, fast int) (DedupRow, error) {
	spec, err := apps.ByName(appName)
	if err != nil {
		return DedupRow{}, err
	}
	factory, err := impls.Get("mpich")
	if err != nil {
		return DedupRow{}, err
	}
	in := spec.DefaultInput(apps.SiteDiscovery)
	in.Ranks = ranks
	in.SimSteps = max(6, 12/fast)
	s1, s2 := in.SimSteps/3, 2*in.SimSteps/3

	base := mana.Config{ImplName: "mpich", Factory: factory, FS: fsim.NFSv3()}
	plain, err := mana.RunStats(base, in.Ranks, spec.New(in), -1)
	if err != nil {
		return DedupRow{}, fmt.Errorf("dedup cell %s/%d baseline: %w", appName, ranks, err)
	}

	o := ckptstore.Options{Delta: true, ChunkBytes: deltaChunkBytes, ChainCap: 8}
	switch codec {
	case "none":
	case "gzip-fast":
		o.Compress, o.CompressTier = true, ckptimg.TierFast
	case "fast-lz":
		o.Compress, o.CompressTier = true, ckptimg.TierFastLZ
	default:
		return DedupRow{}, fmt.Errorf("dedup cell: unknown codec %q", codec)
	}

	row := DedupRow{App: spec.Paper, Ranks: ranks, Codec: codec, RestartOK: true}
	for _, dedup := range []bool{false, true} {
		o.Dedup = dedup
		st, err := ckptstore.Open(in.Ranks, o)
		if err != nil {
			return DedupRow{}, err
		}
		run, err := runChain(base, st, spec.New(in), s1, s2)
		if err != nil {
			return DedupRow{}, fmt.Errorf("dedup cell %s/%d/%s: %w", appName, ranks, codec, err)
		}
		ck, rst := run.first, run.last
		row.RestartOK = row.RestartOK && Verdict(slices.Equal(plain.Checksums, rst.Checksums))

		// Stored bytes: the plain store holds every generation's encoded
		// images; the dedup store holds each generation's new unique
		// bytes (blobs + recipes).
		var stored int64
		for _, g := range st.Generations() {
			if dedup {
				stored += g.UniqueBytes
			} else {
				stored += g.Bytes
			}
		}
		if dedup {
			ds := st.DedupStats()
			row.DedupKB = float64(stored) / 1024
			row.Ratio = ds.Ratio()
			row.SharedRefs = ds.SharedRefs
			row.DedupCommitVTS = ck.VT.Seconds()
			row.DedupRestartVTS = rst.VT.Seconds()
		} else {
			row.StoredKB = float64(stored) / 1024
			row.CommitVTS = ck.VT.Seconds()
			row.RestartVTS = rst.VT.Seconds()
		}
	}
	if row.StoredKB > 0 {
		row.SavedPct = 100 * (1 - row.DedupKB/row.StoredKB)
	}
	return row, nil
}
