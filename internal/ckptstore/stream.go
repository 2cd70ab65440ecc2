package ckptstore

import (
	"fmt"
	"hash/crc32"
	"io"

	"manasim/internal/ckptimg"
)

// This file is the streaming restart pipeline: the chunk-granular
// counterpart of the batch resolver in store.go. Batch materialization
// decodes every link of a rank's base+delta chain in full and applies
// the deltas whole-image, so a chain of K links inflates ~K x the
// application state and holds O(image x links) memory. The streaming
// resolver instead walks the chain newest-to-oldest at chunk
// granularity (ckptimg.OpenDelta never inflates a chunk), picks a
// newest-wins owner per chunk position, and decompresses only the
// winning chunk from its owning link — superseded payloads are proved
// stale by their position alone and never touched beyond their section
// frame CRC.
//
// Concurrency: ranks fan out on the store's bounded worker pool
// (pool.go), exactly like the batch path; within a rank, the next
// link's backend Get runs on a lookahead goroutine while the current
// link parses, so backend reads, per-chunk gunzip, and chunk
// application overlap across ranks and links. Each in-flight rank owns
// at most one lookahead read, so the extra goroutine count is bounded
// by Options.Workers.

// MaterializeStream resolves generation seq into decoded images — one
// per rank, restart-ready without the encode/decode round trip of the
// batch path — using newest-wins chunk resolution. Per-rank ChainStats
// report what the resolution actually read (winning chunks only) and
// skipped. Ranks whose chain streaming cannot walk (a legacy v2 base)
// fall back to the batch resolver and report Streamed false.
//
// Batch Materialize remains the compatibility path; both produce
// byte-identical application state for the same generation.
func (s *Store) MaterializeStream(seq int) ([]*ckptimg.Image, []ChainStats, error) {
	s.mu.Lock()
	nGens, prunedTo, quarantined := len(s.gens), s.prunedTo, s.quarantined[seq]
	s.mu.Unlock()
	if seq < 0 || seq >= nGens {
		return nil, nil, fmt.Errorf("ckptstore: no generation %d (have %d)", seq, nGens)
	}
	if seq < prunedTo {
		return nil, nil, fmt.Errorf("ckptstore: generation %d: %w (blobs survive from generation %d on)", seq, ErrPruned, prunedTo)
	}
	if quarantined {
		return nil, nil, fmt.Errorf("ckptstore: generation %d: %w", seq, ErrQuarantined)
	}
	out := make([]*ckptimg.Image, s.n)
	stats := make([]ChainStats, s.n)
	err := forEachRank(s.n, s.opts.Workers, func(r int) error {
		img, cs, err := s.materializeRankStream(seq, r)
		if err != nil {
			return err
		}
		out[r], stats[r] = img, cs
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	orphans := s.ResidualOrphans()
	for r := range stats {
		stats[r].ResidualOrphans = orphans
	}
	return out, stats, nil
}

// MaterializeStreamHead streams the most recent generation.
func (s *Store) MaterializeStreamHead() ([]*ckptimg.Image, []ChainStats, error) {
	s.mu.Lock()
	n := len(s.gens)
	s.mu.Unlock()
	if n == 0 {
		return nil, nil, fmt.Errorf("ckptstore: store has no generations")
	}
	return s.MaterializeStream(n - 1)
}

// fetchResult is one lookahead backend read.
type fetchResult struct {
	data []byte
	dr   dedupRead
	err  error
}

// prefetchBlob starts one background rank-image read — the link
// lookahead that overlaps the parent's read with the current link's
// parse. It goes through getBlob so a dedup store's recipes reassemble
// off the critical path too.
func (s *Store) prefetchBlob(seq, rank int) chan fetchResult {
	ch := make(chan fetchResult, 1)
	// Lifetime: one backend read, then exit. The channel is buffered,
	// so the send never blocks and a prefetch whose result is abandoned
	// still exits; its read may finish after the materialize returns,
	// but it only reads from the backend.
	go func() {
		data, dr, err := s.getBlob(seq, rank)
		ch <- fetchResult{data, dr, err}
	}()
	return ch
}

// prefixCheck records one pass-through link's claim about a chunk
// position: the link said "unchanged" and committed to the CRC of its
// prefix (of length n) of the deeper content.
type prefixCheck struct {
	n   int
	crc uint32
}

// materializeRankStream resolves one rank's chain at seq through the
// streaming pipeline. Like materializeRank it runs without s.mu:
// committed generations are immutable.
func (s *Store) materializeRankStream(seq, rank int) (*ckptimg.Image, ChainStats, error) {
	data, dr, err := s.getBlob(seq, rank)
	if err != nil {
		return nil, ChainStats{}, err
	}
	if !ckptimg.IsDelta(data) {
		// A full head image has no chain to resolve; decode it whole.
		img, err := ckptimg.Decode(data)
		if err != nil {
			return nil, ChainStats{}, &ChainLinkError{Gen: seq, Rank: rank, Err: err}
		}
		st := ChainStats{
			Streamed:  true,
			BaseBytes: int64(len(data)),
			PeakBytes: int64(len(data) + len(img.AppState)),

			UniqueBytes: dr.unique, DedupBytes: dr.shared, SharedChunks: dr.refs,
		}
		if n := len(img.AppState); n > 0 {
			st.ChunksRead = (n + s.opts.ChunkBytes - 1) / s.opts.ChunkBytes
		}
		return img, st, nil
	}

	// Walk the chain newest to oldest at chunk granularity. The parent
	// of link g is always g-1, so its blob is prefetched while g parses.
	var links []*ckptimg.ChunkReader
	defer func() {
		for _, cr := range links {
			cr.Close()
		}
	}()
	st := ChainStats{Streamed: true}
	st.UniqueBytes, st.DedupBytes, st.SharedChunks = dr.unique, dr.shared, dr.refs
	blobBytes := int64(len(data))
	cur := seq
	for ckptimg.IsDelta(data) {
		var pf chan fetchResult
		if cur > 0 {
			pf = s.prefetchBlob(cur-1, rank)
		}
		cr, err := ckptimg.OpenDelta(data, len(links) == 0)
		if err != nil {
			return nil, ChainStats{}, &ChainLinkError{Gen: cur, Rank: rank, Err: err}
		}
		if cr.ParentGen != cur-1 {
			return nil, ChainStats{}, &ChainLinkError{Gen: cur, Rank: rank,
				Err: fmt.Errorf("delta parents generation %d, want %d", cr.ParentGen, cur-1)}
		}
		if cr.ChunkBytes != s.opts.ChunkBytes {
			return nil, ChainStats{}, &ChainLinkError{Gen: cur, Rank: rank,
				Err: fmt.Errorf("delta chunk size %d != store %d", cr.ChunkBytes, s.opts.ChunkBytes)}
		}
		if n := len(links); n > 0 && links[n-1].ParentLen != cr.NewLen {
			return nil, ChainStats{}, &ChainLinkError{Gen: cur, Rank: rank,
				Err: fmt.Errorf("link is %d bytes, child expects a %d-byte parent (wrong generation?)", cr.NewLen, links[n-1].ParentLen)}
		}
		links = append(links, cr)
		st.Links++
		cur--
		if cur < 0 {
			return nil, ChainStats{}, fmt.Errorf("ckptstore: rank %d delta chain has no base", rank)
		}
		res := <-pf
		if res.err != nil {
			if cur < s.PrunedBefore() {
				return nil, ChainStats{}, fmt.Errorf("ckptstore: generation %d: %w (pruned during the read)", cur, ErrPruned)
			}
			return nil, ChainStats{}, res.err
		}
		data = res.data
		st.UniqueBytes += res.dr.unique
		st.DedupBytes += res.dr.shared
		st.SharedChunks += res.dr.refs
		blobBytes += int64(len(data))
	}

	// data now holds the base blob of generation cur.
	head := links[0]
	ar, err := ckptimg.OpenAppState(data, false)
	if err != nil {
		// Not a streamable v3 base (a legacy v2 image, an opaque
		// payload): resolve the whole chain through the batch path.
		return s.materializeRankFallback(seq, rank)
	}
	defer ar.Close()
	baseLen := links[len(links)-1].ParentLen
	if t := ar.Total(); t >= 0 && t != baseLen {
		return nil, ChainStats{}, &ChainLinkError{Gen: cur, Rank: rank,
			Err: fmt.Errorf("base is %d bytes, chain expects %d (wrong generation?)", t, baseLen)}
	}

	cs := head.ChunkBytes
	n := head.NumChunks()
	out := make([]byte, head.NewLen)
	scratch := make([]byte, cs)
	checks := make([]prefixCheck, 0, len(links))
	var baseOwned int64  // raw base bytes copied into the result
	var deltaWinners int // winning chunks inflated from delta links
	for pos := 0; pos < n; pos++ {
		off := pos * cs
		wantOut := min(cs, head.NewLen-off)

		// Find the owner: the newest link that shipped bytes for this
		// position. Links passed through recorded it unchanged; their
		// bounds are checked here, their CRC claims verified below.
		winner := -1
		checks = checks[:0]
		for li, cr := range links {
			ch := cr.Chunk(pos)
			if ch.Changed {
				winner = li
				break
			}
			w := min(cs, cr.NewLen-off)
			if off+w > cr.ParentLen {
				return nil, ChainStats{}, &ChainLinkError{Gen: seq - li, Rank: rank,
					Err: fmt.Errorf("unchanged chunk %d outside parent state (%w)", pos, ckptimg.ErrCorrupt)}
			}
			checks = append(checks, prefixCheck{n: w, crc: ch.CRC})
		}

		// Produce the winning content — straight into the output buffer
		// when its length matches, via the scratch chunk otherwise (the
		// owner's chunk can be longer than the head's when state sizes
		// changed along the chain; the head consumes a prefix).
		var content []byte
		if winner >= 0 {
			wcr := links[winner]
			wlen := wcr.ChunkLen(pos)
			if wlen == wantOut {
				content = out[off : off+wantOut]
			} else {
				content = scratch[:wlen]
			}
			if err := wcr.InflateChunk(pos, content); err != nil {
				return nil, ChainStats{}, &ChainLinkError{Gen: seq - winner, Rank: rank, Err: err}
			}
			st.ChunksRead++
			st.DeltaBytes += int64(len(wcr.Chunk(pos).Payload))
			deltaWinners++
			// The base bytes under this position are superseded: skip
			// them (free on an uncompressed base; a compressed base must
			// still inflate through them).
			if off < baseLen {
				bw := min(cs, baseLen-off)
				if err := ar.Skip(bw); err != nil {
					return nil, ChainStats{}, &ChainLinkError{Gen: cur, Rank: rank,
						Err: fmt.Errorf("base app state (%w): %v", ckptimg.ErrCorrupt, err)}
				}
				if ar.Compressed() {
					st.ChunksRead++
				} else {
					st.ChunksSkipped++
				}
			}
		} else {
			// Base-owned: every link recorded the chunk unchanged, so
			// the last link's bounds check pins off < baseLen.
			bw := min(cs, baseLen-off)
			if bw == wantOut {
				content = out[off : off+wantOut]
			} else {
				content = scratch[:bw]
			}
			if _, err := io.ReadFull(ar, content); err != nil {
				return nil, ChainStats{}, &ChainLinkError{Gen: cur, Rank: rank,
					Err: fmt.Errorf("base app state (%w): %v", ckptimg.ErrCorrupt, err)}
			}
			baseOwned += int64(bw)
			st.ChunksRead++
		}

		// Verify every pass-through link's CRC claim over its prefix of
		// the winning content — the same checks batch Apply performs
		// level by level, done once against the resolved bytes. In the
		// common stable-size chain all prefixes coincide, so this is one
		// CRC per position.
		prevLen, prevCRC := -1, uint32(0)
		for _, pc := range checks {
			if pc.n != prevLen {
				prevCRC = crc32.ChecksumIEEE(content[:pc.n])
				prevLen = pc.n
			}
			if pc.crc != prevCRC {
				return nil, ChainStats{}, &ChainLinkError{Gen: cur, Rank: rank,
					Err: fmt.Errorf("parent chunk %d checksum mismatch (wrong generation?)", pos)}
			}
		}
		if len(content) != wantOut {
			copy(out[off:off+wantOut], content[:wantOut])
		}
	}
	// Base chunks beyond the head's state (the state shrank along the
	// chain) are superseded wholesale; an uncompressed base never reads
	// them at all.
	if rest := baseLen - n*cs; rest > 0 && !ar.Compressed() {
		st.ChunksSkipped += (rest + cs - 1) / cs
	}
	if ar.Compressed() {
		// A gzip base reveals its state length only at EOF (Total is
		// unknown up front), so enforce the chain's expectation the way
		// batch Apply does: drain any superseded tail and demand the
		// stream end exactly at baseLen — a longer base means the blob
		// belongs to a different lineage.
		if rest := baseLen - min(baseLen, n*cs); rest > 0 {
			if err := ar.Skip(rest); err != nil {
				return nil, ChainStats{}, &ChainLinkError{Gen: cur, Rank: rank,
					Err: fmt.Errorf("base app state (%w): %v", ckptimg.ErrCorrupt, err)}
			}
		}
		var one [1]byte
		if k, err := ar.Read(one[:]); k != 0 {
			return nil, ChainStats{}, &ChainLinkError{Gen: cur, Rank: rank,
				Err: fmt.Errorf("base is longer than the %d bytes the chain expects (wrong generation?)", baseLen)}
		} else if err != io.EOF {
			return nil, ChainStats{}, &ChainLinkError{Gen: cur, Rank: rank,
				Err: fmt.Errorf("base app state (%w): %v", ckptimg.ErrCorrupt, err)}
		}
	}
	// Superseded delta payloads were never visited: every changed record
	// that did not win was skipped.
	for _, cr := range links {
		st.ChunksSkipped += cr.NumChanged
	}
	st.ChunksSkipped -= deltaWinners

	if ar.Compressed() {
		st.BaseBytes = int64(len(data))
	} else {
		st.BaseBytes = baseOwned
	}
	st.PeakBytes = blobBytes + int64(len(out)) + int64(cs)

	img := *head.Image
	if len(out) > 0 {
		img.AppState = out
	}
	return &img, st, nil
}

// materializeRankFallback resolves chains the streaming walk cannot
// handle (a non-v3 base) through the batch resolver, decoding its
// re-encoded output. The stats keep the batch shape (Streamed false).
func (s *Store) materializeRankFallback(seq, rank int) (*ckptimg.Image, ChainStats, error) {
	data, cs, err := s.materializeRank(seq, rank)
	if err != nil {
		return nil, ChainStats{}, err
	}
	img, err := ckptimg.Decode(data)
	if err != nil {
		return nil, ChainStats{}, &ChainLinkError{Gen: seq, Rank: rank, Err: err}
	}
	return img, cs, nil
}
