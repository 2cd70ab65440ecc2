package ckptstore

import (
	"fmt"
	"hash/crc32"
	"io"
	"sync"
	"sync/atomic"

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
// There is one resolver (resolveRank) and two ways to run it.
// MaterializeStream hands out owned images: each rank resolves into
// buffers of its own. RestoreStream hands each image to a callback and
// takes it back: each worker resolves rank after rank into the same
// state buffer and scratch, so peak resolver memory is per worker, not
// per rank.
//
// Concurrency: ranks fan out on the store's bounded worker pool
// (pool.go); within a rank, the next link's backend Get runs on a
// lookahead goroutine while the current link parses, so backend reads,
// per-chunk inflation, and chunk application overlap across ranks and
// links. Each in-flight rank owns at most one lookahead read, so the
// extra goroutine count is bounded by Options.Workers.

// MaterializeStream resolves generation seq into decoded images — one
// per rank, restart-ready — using newest-wins chunk resolution, plus
// per-rank ChainStats reporting what the resolution read (winning
// chunks only) and skipped. Every link must be a v3 image: a link that
// is not (a pre-v3 image, an opaque payload) fails the rank with a
// *ChainLinkError wrapping ckptimg.ErrCorrupt.
//
// Rank chains resolve in parallel on the store's worker pool; results
// are rank-ordered regardless of scheduling. Committed generations are
// immutable, so MaterializeStream never blocks a concurrent Commit.
func (s *Store) MaterializeStream(seq int) ([]*ckptimg.Image, []ChainStats, error) {
	if err := s.checkReadable(seq); err != nil {
		return nil, nil, err
	}
	out := make([]*ckptimg.Image, s.n)
	stats := make([]ChainStats, s.n)
	err := forEachRank(s.n, s.opts.Workers, func(r int) error {
		// Fresh buffers per rank: every image owns its state.
		img, cs, err := s.resolveRank(seq, r, &resolveBufs{})
		if err != nil {
			return err
		}
		out[r], stats[r] = img, cs
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	s.stampOrphans(stats)
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

// RestoreStream resolves generation seq exactly as MaterializeStream
// does, but hands each rank's image to fn instead of returning it — one
// call at a time, on the calling goroutine, in the order ranks finish
// resolving (rank order on a one-worker store). Each worker resolves
// rank after rank into one state buffer and one chunk scratch, so
// img.AppState is valid only during the call: fn must copy whatever it
// keeps of it. The rest of the image is fn's to keep.
//
// The first failure — a rank that does not resolve, or fn's error —
// stops the walk: no new rank starts, fn is not called again, and the
// lowest-ranked error among those that occurred is returned. It returns
// the per-rank ChainStats on success.
func (s *Store) RestoreStream(seq int, fn func(img *ckptimg.Image) error) ([]ChainStats, error) {
	if err := s.checkReadable(seq); err != nil {
		return nil, err
	}
	type resolved struct {
		rank int
		img  *ckptimg.Image
		cs   ChainStats
		err  error
		// next tells the worker whether to reuse its buffers for
		// another rank (true) or exit (false).
		next chan<- bool
	}
	results := make(chan resolved)
	var claim atomic.Int64
	var wg sync.WaitGroup
	workers := poolWidth(s.n, s.opts.Workers)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		// Lifetime: a worker exits when the ranks run out or when told
		// to stop, and results closes only after the last one has, so
		// no worker outlives the loop below. Until its go-ahead arrives
		// the worker leaves its buffers alone: fn is reading them.
		go func() {
			defer wg.Done()
			var bufs resolveBufs
			next := make(chan bool)
			for {
				r := int(claim.Add(1)) - 1
				if r >= s.n {
					return
				}
				img, cs, err := s.resolveRank(seq, r, &bufs)
				results <- resolved{r, img, cs, err, next}
				if !<-next {
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()
	stats := make([]ChainStats, s.n)
	errRank, firstErr := s.n, error(nil)
	for res := range results {
		if res.err == nil && firstErr == nil {
			res.err = fn(res.img)
		}
		if res.err != nil && res.rank < errRank {
			errRank, firstErr = res.rank, res.err
		}
		stats[res.rank] = res.cs
		res.next <- firstErr == nil
	}
	if firstErr != nil {
		return nil, firstErr
	}
	s.stampOrphans(stats)
	return stats, nil
}

// checkReadable refuses a generation the resolver must not read: out of
// range, already pruned, or quarantined by Scrub.
func (s *Store) checkReadable(seq int) error {
	s.mu.Lock()
	nGens, prunedTo, quarantined := len(s.gens), s.prunedTo, s.quarantined[seq]
	s.mu.Unlock()
	switch {
	case seq < 0 || seq >= nGens:
		return fmt.Errorf("ckptstore: no generation %d (have %d)", seq, nGens)
	case seq < prunedTo:
		return fmt.Errorf("ckptstore: generation %d: %w (blobs survive from generation %d on)", seq, ErrPruned, prunedTo)
	case quarantined:
		return fmt.Errorf("ckptstore: generation %d: %w", seq, ErrQuarantined)
	}
	return nil
}

// stampOrphans copies the store's residual-orphan count into every
// rank's statistics.
func (s *Store) stampOrphans(stats []ChainStats) {
	orphans := s.ResidualOrphans()
	for r := range stats {
		stats[r].ResidualOrphans = orphans
	}
}

// resolveBufs is one resolver's memory for application state: the
// buffer the resolved state lands in and a chunk-sized scratch for a
// winning chunk whose length differs from the head's. The zero value
// allocates both at the first rank; a worker that keeps one reuses
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

// resolveRank resolves one rank's chain at seq into bufs: the image's
// AppState aliases bufs.state, the rest of the image is its own. It runs
// without s.mu: it touches only the backend (safe for concurrent use)
// and blobs of committed generations, which retention may delete
// (surfaced as ErrPruned) but nothing rewrites.
func (s *Store) resolveRank(seq, rank int, bufs *resolveBufs) (*ckptimg.Image, ChainStats, error) {
	data, dr, err := s.getBlob(seq, rank)
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
	var st ChainStats
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
