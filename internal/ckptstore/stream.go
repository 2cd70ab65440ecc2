package ckptstore

import (
	"fmt"
	"hash/crc32"
	"io"

	"manasim/internal/ckptimg"
)

// This file is the restart-side chain resolver. A rank's base+delta
// chain is walked newest-to-oldest at chunk granularity
// (ckptimg.OpenDelta never inflates a chunk); each chunk position gets a
// newest-wins owner, and only the winning chunk is decompressed from its
// owning link — superseded payloads are proved stale by their position
// alone and never touched beyond their section frame CRC. A resolution
// holds the rank's encoded blobs, one state buffer and one chunk of
// scratch, however deep the chain.
//
// There is one resolver (resolveRank) and two ways to run it, both on
// the calling goroutine over ranks 0..n-1 in order. MaterializeStream
// hands out owned images: each rank resolves into buffers of its own.
// RestoreStream hands each image to a callback and takes it back: rank
// after rank resolves into the same state buffer and scratch, so peak
// resolver memory is one rank's, however many ranks there are.

// MaterializeStream resolves generation seq into decoded images — one
// per rank, restart-ready — using newest-wins chunk resolution, plus
// per-rank ChainStats reporting what the resolution read (winning
// chunks only) and skipped. Every link must be a v3 image: a link that
// is not fails the rank with a *ChainLinkError wrapping
// ckptimg.ErrCorrupt, and the first rank that fails is the one
// reported. Committed generations are immutable: a later Commit never
// changes what an earlier generation resolves to.
func (s *Store) MaterializeStream(seq int) ([]*ckptimg.Image, []ChainStats, error) {
	if err := s.checkReadable(seq); err != nil {
		return nil, nil, err
	}
	out := make([]*ckptimg.Image, s.n)
	stats := make([]ChainStats, s.n)
	for r := range out {
		// Fresh buffers per rank: every image owns its state.
		img, cs, err := s.resolveRank(seq, r, &resolveBufs{})
		if err != nil {
			return nil, nil, err
		}
		out[r], stats[r] = img, cs
	}
	return out, stats, nil
}

// MaterializeStreamHead streams the most recent generation.
func (s *Store) MaterializeStreamHead() ([]*ckptimg.Image, []ChainStats, error) {
	n := len(s.gens)
	if n == 0 {
		return nil, nil, fmt.Errorf("ckptstore: store has no generations")
	}
	return s.MaterializeStream(n - 1)
}

// RestoreStream resolves generation seq exactly as MaterializeStream
// does, but hands each rank's image to fn instead of returning it, in
// rank order. Every rank resolves into one state buffer and one chunk
// scratch, so img.AppState is valid only during the call: fn must copy
// whatever it keeps of it. The rest of the image is fn's to keep.
//
// The first failure — a rank that does not resolve, or fn's error —
// stops the walk and is returned: no later rank resolves and fn is not
// called again. It returns the per-rank ChainStats on success.
func (s *Store) RestoreStream(seq int, fn func(img *ckptimg.Image) error) ([]ChainStats, error) {
	if err := s.checkReadable(seq); err != nil {
		return nil, err
	}
	stats := make([]ChainStats, s.n)
	var bufs resolveBufs
	for r := range stats {
		img, cs, err := s.resolveRank(seq, r, &bufs)
		if err == nil {
			err = fn(img)
		}
		if err != nil {
			return nil, err
		}
		stats[r] = cs
	}
	return stats, nil
}

// checkReadable refuses a generation the resolver must not read: out of
// range, already pruned, or quarantined by Scrub.
func (s *Store) checkReadable(seq int) error {
	switch {
	case seq < 0 || seq >= len(s.gens):
		return fmt.Errorf("ckptstore: no generation %d (have %d)", seq, len(s.gens))
	case seq < s.prunedTo:
		return fmt.Errorf("ckptstore: generation %d: %w (blobs survive from generation %d on)", seq, ErrPruned, s.prunedTo)
	case s.quarantined[seq]:
		return fmt.Errorf("ckptstore: generation %d: %w", seq, ErrQuarantined)
	}
	return nil
}

// resolveBufs is one resolver's memory for application state: the
// buffer the resolved state lands in and a chunk-sized scratch for a
// winning chunk whose length differs from the head's. The zero value
// allocates both at the first rank; RestoreStream keeps one and reuses
// them from rank to rank, growing them when a rank needs more.
type resolveBufs struct {
	state, scratch []byte
}

// get returns the state buffer and chunk scratch sized for one rank.
func (b *resolveBufs) get(stateLen, chunk int) (state, scratch []byte) {
	if cap(b.state) < stateLen {
		b.state = make([]byte, stateLen)
	}
	if cap(b.scratch) < chunk {
		b.scratch = make([]byte, chunk)
	}
	return b.state[:stateLen], b.scratch[:chunk]
}

// prefixCheck records one pass-through link's claim about a chunk
// position: the link said "unchanged" and committed to the CRC of its
// prefix (of length n) of the deeper content.
type prefixCheck struct {
	n   int
	crc uint32
}

// resolveRank resolves one rank's chain at seq into bufs: the image's
// AppState aliases bufs.state, the rest of the image is its own. It
// reads only blobs of committed generations that checkReadable let
// through, which nothing rewrites.
func (s *Store) resolveRank(seq, rank int, bufs *resolveBufs) (*ckptimg.Image, ChainStats, error) {
	data, err := s.getBlob(seq, rank)
	if err != nil {
		return nil, ChainStats{}, err
	}
	if !ckptimg.IsDelta(data) {
		// A full head image has no chain to resolve; decode it whole.
		img, err := ckptimg.DecodeInto(data, bufs.state)
		if err != nil {
			return nil, ChainStats{}, &ChainLinkError{Gen: seq, Rank: rank, Err: err}
		}
		if cap(img.AppState) > cap(bufs.state) {
			bufs.state = img.AppState
		}
		st := ChainStats{
			BaseBytes: int64(len(data)),
			PeakBytes: int64(len(data) + len(img.AppState)),
		}
		if n := len(img.AppState); n > 0 {
			st.ChunksRead = (n + s.opts.ChunkBytes - 1) / s.opts.ChunkBytes
		}
		return img, st, nil
	}

	// Walk the chain newest to oldest at chunk granularity. The parent
	// of link g is always g-1, read once link g has parsed.
	var links []*ckptimg.ChunkReader
	defer func() {
		for _, cr := range links {
			cr.Close()
		}
	}()
	var st ChainStats
	blobBytes := int64(len(data))
	cur := seq
	for ckptimg.IsDelta(data) {
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
		if data, err = s.getBlob(cur, rank); err != nil {
			return nil, ChainStats{}, err
		}
		blobBytes += int64(len(data))
	}

	// data now holds the base blob of generation cur.
	head := links[0]
	ar, err := ckptimg.OpenAppState(data, false)
	if err != nil {
		return nil, ChainStats{}, &ChainLinkError{Gen: cur, Rank: rank, Err: fmt.Errorf("base: %w", err)}
	}
	defer ar.Close()
	baseLen := links[len(links)-1].ParentLen
	if t := ar.Total(); t >= 0 && t != baseLen {
		return nil, ChainStats{}, &ChainLinkError{Gen: cur, Rank: rank,
			Err: fmt.Errorf("base is %d bytes, chain expects %d (wrong generation?)", t, baseLen)}
	}

	cs := head.ChunkBytes
	n := head.NumChunks()
	out, scratch := bufs.get(head.NewLen, cs)
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
		// the winning content, once against the resolved bytes. In the
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
		// unknown up front), so enforce the chain's expectation here:
		// drain any superseded tail and demand the stream end exactly at
		// baseLen — a longer base means the blob belongs to a different
		// lineage.
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
