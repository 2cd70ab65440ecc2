package ckptstore

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"manasim/internal/ckptimg"
	"manasim/internal/fsim"
)

// DefaultChainCap is the delta-chain bound applied when Options.ChainCap
// is left zero.
const DefaultChainCap = 4

// ChainCapNone is the documented ChainCap sentinel for "delta mode, but
// every generation is a base": chunk indexes are still maintained, yet
// PlanDelta never approves a delta. A literal zero cannot express this —
// it is indistinguishable from an unset field and selects
// DefaultChainCap.
const ChainCapNone = -1

// ChainCapUnbounded never forces a new base; chains grow until the next
// un-indexable image. (Any negative value other than ChainCapNone is
// treated the same way.)
const ChainCapUnbounded = -2

// Options parameterizes a Store.
type Options struct {
	// Backend names the registered persistence backend (default
	// DefaultBackend, the in-memory store).
	Backend string
	// Dir is the root directory of directory-backed backends: "fs", and
	// the "tier" backend's fs back tier (without Dir it drains to "obj").
	Dir string
	// FrontCap bounds the "tier" backend's front tier to this many
	// resident bytes (0 = unbounded): once a blob is flushed to the back
	// tier, the least-recently-used blobs past the cap are evicted from
	// the burst buffer and re-promoted on demand. Ignored by other
	// backends.
	FrontCap int64
	// Delta enables incremental generations: after a base, ranks whose
	// chunk index is known write delta images until ChainCap is hit.
	Delta bool
	// ChainCap bounds consecutive delta generations before a new base
	// is forced. Zero selects DefaultChainCap; ChainCapNone forces every
	// generation to a base; ChainCapUnbounded (or any other negative)
	// never forces one.
	ChainCap int
	// Dedup enables the content-addressed blob layer (dedup.go): Commit
	// splits every rank image into section-aligned segments, stores each
	// unique segment once — shared across ranks and generations — and
	// writes a small reassembly recipe per rank. Restart resolution is
	// behaviorally unchanged; the cost model charges only new unique
	// bytes (CommitCharge). The mode is pinned by the manifest: a
	// backend written with dedup must be reopened with it, and vice
	// versa.
	Dedup bool
	// RetainBases, when positive, bounds blob growth: after each commit
	// the store prunes superseded chains so at most RetainBases base
	// generations (each with its trailing deltas) keep blobs. Zero keeps
	// every generation's blobs.
	RetainBases int
	// ChunkBytes is the delta chunk size (default ckptimg.AppChunk).
	// All generations of one store share it.
	ChunkBytes int
	// Compress gzips image app state (full images whole, delta images
	// per changed chunk).
	Compress bool
	// CompressTier selects the flate effort when Compress is set:
	// ckptimg.TierFast trades ratio for encode speed (hot checkpoints,
	// FlagFastCompress), ckptimg.TierMax is the archival tier,
	// ckptimg.TierBalanced (default) the middle ground.
	CompressTier ckptimg.CompressTier
	// WrapBackend, when set, decorates the backend right after
	// construction — the fault injector's hook for making Put/Get
	// flaky. The store's retry and rollback paths see only the wrapped
	// backend.
	WrapBackend func(Backend) Backend
}

// withDefaults fills unset fields.
func (o Options) withDefaults() Options {
	if o.Backend == "" {
		o.Backend = DefaultBackend
	}
	switch o.ChainCap {
	case 0:
		o.ChainCap = DefaultChainCap
	case ChainCapNone:
		// The honored explicit zero: PlanDelta refuses every delta.
		o.ChainCap = 0
	}
	if o.ChunkBytes <= 0 {
		o.ChunkBytes = ckptimg.AppChunk
	}
	return o
}

// Generation is the metadata of one committed job checkpoint.
type Generation struct {
	// Seq is the generation sequence number (0-based, dense).
	Seq int
	// Step is the checkpoint boundary the generation was taken at, as
	// rank 0's image records it.
	Step int
	// Bytes is the total encoded size across ranks — what the backend
	// actually stored, the quantity the delta tier shrinks.
	Bytes int64
	// UniqueBytes is what the backend actually stored for the
	// generation: with dedup, the new unique segment bytes plus the
	// per-rank recipes; without, exactly Bytes. Bytes-UniqueBytes is the
	// write traffic dedup eliminated.
	UniqueBytes int64
	// DeltaRanks counts ranks that stored an incremental image; 0 means
	// the generation is a base.
	DeltaRanks int
}

// Base reports whether the generation is a full base.
func (g Generation) Base() bool { return g.DeltaRanks == 0 }

// ChainStats describes what one rank's chain resolution
// (MaterializeStream, RestoreStream) actually read from the backend — the quantities
// the restart cost model charges. They count only what newest-wins
// resolution consumed: the base bytes actually read plus the compressed
// bytes of winning delta chunks; superseded chunk payloads appear in
// ChunksSkipped instead.
type ChainStats struct {
	// BaseBytes is the encoded size of the rank's full image when no
	// chain was involved. Over a chain's uncompressed base only the
	// bytes of the base-owned chunks are counted — superseded base
	// regions are never read; a compressed base charges its whole
	// stream (it has no random access).
	BaseBytes int64
	// DeltaBytes is the encoded size of the winning delta chunk
	// payloads read.
	DeltaBytes int64
	// Links is the number of delta links resolved; 0 means the rank's
	// image at that generation was already full.
	Links int
	// ChunksRead counts the content chunks the resolution inflated or
	// copied (winning chunks, plus every base chunk when the base is
	// compressed and must be inflated through).
	ChunksRead int
	// ChunksSkipped counts chunk payloads present in the chain that
	// newest-wins resolution proved superseded and never inflated.
	ChunksSkipped int
	// PeakBytes estimates the resolver's peak resident bytes for the
	// rank: the encoded blobs, the output state and one chunk of
	// scratch — O(image + chunk), however deep the chain. Under
	// RestoreStream the state and scratch are its one resolver buffer
	// pair, reused by the next rank.
	PeakBytes int64
}

// ChainLinkError reports that one link of a rank's base+delta chain
// failed to resolve — a damaged blob (wraps ckptimg.ErrCorrupt), a
// broken parent linkage, or a chunk that contradicts its recorded CRC.
// Gen names the generation of the failing link, which on a chain walk
// may be older than the generation being materialized. MaterializeStream
// and RestoreStream fail the whole call with it and return no
// partially-applied state.
type ChainLinkError struct {
	// Gen is the generation whose link failed.
	Gen int
	// Rank is the rank whose chain was being resolved.
	Rank int
	// Err is the underlying failure.
	Err error
}

func (e *ChainLinkError) Error() string {
	return fmt.Sprintf("ckptstore: generation %d rank %d: %v", e.Gen, e.Rank, e.Err)
}

func (e *ChainLinkError) Unwrap() error { return e.Err }

// rankIndex is one rank's chunk index at the head generation; Valid is
// false outside delta mode and after ForceBase or a quarantined head.
type rankIndex struct {
	Valid bool
	X     ckptimg.ChunkIndex
}

// ErrPruned reports a generation whose blobs were removed by retention:
// its metadata is still listed, but it can no longer be materialized.
var ErrPruned = errors.New("generation pruned by retention")

// manifest is the persisted store state, rewritten after every commit
// so a new process resuming on the same backend continues the chain.
type manifest struct {
	N          int
	ChunkBytes int
	Gens       []Generation
	Chain      int // consecutive delta generations at the head
	Index      []rankIndex
	// PrunedTo is the first generation whose blobs survive retention;
	// generations below it exist only as metadata.
	PrunedTo int
	// Dedup pins the content-addressed mode of the lineage. Blob
	// refcounts are deliberately NOT persisted: they are derived state,
	// rebuilt at Open from the surviving recipes (see rebuildRefs), so a
	// crash between a prune's deletes and its manifest write cannot
	// leave the counts stale.
	Dedup bool
	// Quarantined lists generations scrub found unrepairably damaged
	// (scrub.go); they refuse to materialize until released. Absent in
	// manifests written before the integrity subsystem — gob leaves the
	// field nil, meaning none.
	Quarantined []int
}

const manifestKey = "manifest"

// Store is a generation-chained checkpoint store for one n-rank job
// lineage. It has one caller at a time — the rank holding the kernel's
// execution token, or the goroutine that owns the job — and holds no
// lock; see the package documentation for the concurrency model.
type Store struct {
	b    Backend
	n    int
	opts Options

	gens     []Generation
	chain    int
	index    []rankIndex
	prunedTo int
	// quarantined marks generations scrub condemned (scrub.go); they
	// refuse to materialize until a later scrub releases them.
	quarantined map[int]bool
	// retentionErr is the outcome of the latest automatic prune
	// (LastRetentionErr); retention never fails a durable commit.
	retentionErr error

	// blobRefs is the live refcount per content-addressed blob key —
	// one reference per recipe that lists it. Nil unless Options.Dedup.
	blobRefs map[string]int
	// lastUnique is the per-rank byte attribution of the most recent
	// commit (CommitCharge).
	lastUnique []int64

	retry RetryStats
}

// RetryStats aggregates the store's transient-failure recovery work:
// how many backend operations were retried, the cumulative modeled
// backoff time, and how many operations failed permanently.
type RetryStats struct {
	// Retries counts individual retry attempts across all operations.
	Retries int
	// BackoffVT is the total modeled backoff wait. The store has no
	// clock of its own; callers fold this into their virtual-time
	// accounting (the checkpoint path charges it to the committing
	// rank).
	BackoffVT time.Duration
}

// retryAttempts bounds the transient-failure retry loop per operation:
// the first try plus up to three retries.
const retryAttempts = 4

// transientErr reports whether err advertises itself as retryable via
// a Transient() method (the fault injector's StoreError does).
func transientErr(err error) bool {
	var t interface{ Transient() bool }
	return errors.As(err, &t) && t.Transient()
}

// retryOp runs one backend operation under the bounded
// exponential-backoff retry policy and accounts the recovery work.
func (s *Store) retryOp(fn func() error) error {
	fs := s.b.CostModel()
	var err error
	for attempt := 1; attempt <= retryAttempts; attempt++ {
		if err = fn(); err == nil {
			return nil
		}
		if !transientErr(err) || attempt == retryAttempts {
			break
		}
		s.retry.Retries++
		s.retry.BackoffVT += fs.RetryBackoff(attempt)
	}
	return err
}

// bPut is Backend.Put under the retry policy.
func (s *Store) bPut(key string, data []byte) error {
	return s.retryOp(func() error { return s.b.Put(key, data) })
}

// bGet is Backend.Get under the retry policy.
func (s *Store) bGet(key string) ([]byte, error) {
	var data []byte
	err := s.retryOp(func() error {
		var e error
		data, e = s.b.Get(key)
		return e
	})
	return data, err
}

// Retry reports the accumulated transient-failure recovery statistics.
func (s *Store) Retry() RetryStats {
	return s.retry
}

// Open builds a store for an n-rank job over the configured backend.
// If the backend already holds a manifest (a directory written by an
// earlier process), the generation chain is resumed from it, and any
// blob the manifest does not account for — a generation half-written by
// a process that crashed mid-commit — is pruned, so a crash before the
// manifest update can never leave dark bytes or be mistaken for a
// committed generation.
func Open(n int, o Options) (*Store, error) {
	if n <= 0 {
		return nil, fmt.Errorf("ckptstore: store needs a positive rank count, got %d", n)
	}
	o = o.withDefaults()
	b, err := NewBackend(o.Backend, BackendConfig{Dir: o.Dir, FrontCap: o.FrontCap})
	if err != nil {
		return nil, err
	}
	if o.WrapBackend != nil {
		b = o.WrapBackend(b)
	}
	s := &Store{b: b, n: n, opts: o, index: make([]rankIndex, n), quarantined: make(map[int]bool)}
	if o.Dedup {
		s.blobRefs = make(map[string]int)
	}
	resumed := false
	if data, err := b.Get(manifestKey); err == nil {
		var m manifest
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&m); err != nil {
			return nil, fmt.Errorf("ckptstore: decoding manifest: %w", err)
		}
		if m.N != n {
			return nil, fmt.Errorf("ckptstore: backend holds a %d-rank lineage, job has %d ranks", m.N, n)
		}
		if m.ChunkBytes != o.ChunkBytes {
			return nil, fmt.Errorf("ckptstore: backend chunk size %d != configured %d", m.ChunkBytes, o.ChunkBytes)
		}
		if m.Dedup != o.Dedup {
			return nil, fmt.Errorf("ckptstore: backend holds a dedup=%v lineage, store configured dedup=%v", m.Dedup, o.Dedup)
		}
		s.gens, s.chain, s.index, s.prunedTo = m.Gens, m.Chain, m.Index, m.PrunedTo
		for _, seq := range m.Quarantined {
			s.quarantined[seq] = true
		}
		resumed = true
	}
	if err := s.pruneOrphans(resumed); err != nil {
		return nil, err
	}
	return s, nil
}

// pruneOrphans deletes generation blobs the manifest does not cover:
// leftovers of a process that crashed between its blob writes and its
// manifest update. resumed distinguishes "no manifest at all" (every
// generation blob is an orphan) from a decoded one. With dedup the
// pass also rebuilds the refcount table from the surviving recipes and
// collects content blobs no recipe references — the crash-resume rule
// for the content-addressed layer (see dedup.go).
func (s *Store) pruneOrphans(resumed bool) error {
	keys, err := s.b.List()
	if err != nil {
		return fmt.Errorf("ckptstore: scanning for orphan blobs: %w", err)
	}
	head := 0
	if resumed {
		head = len(s.gens)
	}
	var errs []error
	var contentBlobs []string
	for _, k := range keys {
		if strings.HasPrefix(k, blobPrefix) {
			contentBlobs = append(contentBlobs, k)
			continue
		}
		seq, _, ok := parseRankKey(k)
		if !ok {
			continue
		}
		if seq >= head {
			if err := s.b.Delete(k); err != nil {
				errs = append(errs, fmt.Errorf("ckptstore: pruning orphan %q: %w", k, err))
			}
		}
	}
	if s.opts.Dedup {
		if err := s.rebuildRefs(contentBlobs); err != nil {
			errs = append(errs, err)
		}
	} else {
		// A non-dedup store never owns content blobs; any present are
		// leftovers of a dedup process that crashed before its first
		// manifest write (a mode mismatch against a manifest errors out
		// in Open instead).
		for _, bk := range contentBlobs {
			if err := s.b.Delete(bk); err != nil {
				errs = append(errs, fmt.Errorf("ckptstore: pruning orphan blob %q: %w", bk, err))
			}
		}
	}
	return errors.Join(errs...)
}

// Ranks reports the store's rank count.
func (s *Store) Ranks() int { return s.n }

// BackendName reports the backend in use.
func (s *Store) BackendName() string { return s.b.Name() }

// Backend exposes the persistence backend (experiments and tests
// inspect tier drain statistics and object-store op counts through it).
func (s *Store) Backend() Backend { return s.b }

// CostModel reports the backend's storage cost profile; a zero FS
// (empty Name) means the backend models no tier of its own and the
// job's configured filesystem profile governs checkpoint I/O charges.
func (s *Store) CostModel() fsim.FS { return s.b.CostModel() }

// Opts reports the resolved options.
func (s *Store) Opts() Options { return s.opts }

// key names one rank image blob: gen%04d/rank%02d (seq, rank >= 0).
func key(seq, rank int) string {
	var b [48]byte
	return string(appendKey(b[:0], seq, rank))
}

// appendKey appends key(seq, rank) to dst without fmt.
func appendKey(dst []byte, seq, rank int) []byte {
	dst = append(dst, "gen"...)
	dst = appendPadded(dst, seq, 4)
	dst = append(dst, "/rank"...)
	return appendPadded(dst, rank, 2)
}

// appendPadded appends v >= 0 in decimal, zero-padded to width digits
// as fmt's %0*d does.
func appendPadded(dst []byte, v, width int) []byte {
	var d [20]byte
	digits := strconv.AppendInt(d[:0], int64(v), 10)
	for i := len(digits); i < width; i++ {
		dst = append(dst, '0')
	}
	return append(dst, digits...)
}

// parseRankKey recovers the generation and rank of a rank image key,
// accepting exactly the strings key writes.
func parseRankKey(k string) (seq, rank int, ok bool) {
	g, r, _ := strings.Cut(strings.TrimPrefix(k, "gen"), "/rank")
	seq, errSeq := strconv.Atoi(g)
	rank, errRank := strconv.Atoi(r)
	var b [48]byte
	ok = errSeq == nil && errRank == nil && seq >= 0 && rank >= 0 &&
		string(appendKey(b[:0], seq, rank)) == k
	return seq, rank, ok
}

// PlanDelta decides how a rank should encode the next generation. When
// it returns ok, the rank encodes a delta with ckptimg.EncodeDelta
// against the returned parent index and generation; otherwise it writes
// a full image. Delta is refused when the store is not in delta mode,
// no generation is committed yet, the chain cap is reached, or the
// rank holds no chunk index (after ForceBase or a quarantined head).
func (s *Store) PlanDelta(rank int) (parent ckptimg.ChunkIndex, parentGen int, ok bool) {
	if !s.opts.Delta || rank < 0 || rank >= s.n || len(s.gens) == 0 {
		return ckptimg.ChunkIndex{}, 0, false
	}
	if s.opts.ChainCap >= 0 && s.chain >= s.opts.ChainCap {
		return ckptimg.ChunkIndex{}, 0, false
	}
	ri := s.index[rank]
	if !ri.Valid {
		return ckptimg.ChunkIndex{}, 0, false
	}
	return ri.X, s.gens[len(s.gens)-1].Seq, true
}

// EncodeOptions returns the ckptimg options matching the store's
// configuration, so rank-side encodes chunk at the store's granularity
// and compress at its tier.
func (s *Store) EncodeOptions() ckptimg.Options {
	return ckptimg.Options{
		Compress:  s.opts.Compress,
		Tier:      s.opts.CompressTier,
		ChunkSize: s.opts.ChunkBytes,
	}
}

// Commit records one complete generation: exactly one encoded v3
// image per rank, full or delta. The store never sees partial
// generations — the coordinator stages deliveries and commits only
// complete sets. Every image updates the rank's chunk index in delta
// mode.
//
// Commit runs on the calling goroutine and walks ranks 0..n-1 in
// order: validation and chunk indexing, the dedup plan, then the
// backend writes. Validation is streaming (ckptimg.IndexDelta,
// ckptimg.IndexFull): every check a full decode makes runs, through one
// pooled chunk-sized scratch buffer at a time, and no application state
// is assembled. The first failing rank fails the commit and is the one
// reported, any blobs already written for the generation are deleted,
// and neither the in-memory chain nor the manifest records it: a failed
// commit leaves no partial generation behind.
func (s *Store) Commit(images [][]byte) (Generation, error) {
	if len(images) != s.n {
		return Generation{}, fmt.Errorf("ckptstore: commit of %d images for a %d-rank store", len(images), s.n)
	}
	seq := len(s.gens)

	// Phase 1: validate and index every rank, in rank order.
	gen := Generation{Seq: seq}
	newIndex := make([]rankIndex, s.n)
	for r, data := range images {
		if data == nil {
			return Generation{}, fmt.Errorf("ckptstore: commit with no image for rank %d", r)
		}
		step, delta, ix, err := s.validate(seq, data)
		if err != nil {
			return Generation{}, fmt.Errorf("ckptstore: generation %d rank %d: %w", seq, r, err)
		}
		gen.Bytes += int64(len(data))
		if r == 0 {
			gen.Step = step
		}
		if delta {
			gen.DeltaRanks++
		}
		newIndex[r] = ix
	}

	// Phase 1.5 (dedup): segment and hash every image in rank order —
	// new blobs, refcount increments, and the per-rank unique-byte
	// attribution follow from the images alone.
	var plan *dedupPlan
	var unique []int64
	if s.opts.Dedup {
		plan = s.planDedup(images)
		unique = plan.unique
	} else {
		unique = make([]int64, s.n)
		for r := range images {
			unique[r] = int64(len(images[r]))
		}
	}
	for _, u := range unique {
		gen.UniqueBytes += u
	}

	// Phase 2: persist every rank blob in order. On any failure the
	// generation's blobs are deleted so the backend holds no torso; a
	// rollback that itself fails to delete is reported alongside, never
	// swallowed — the caller must know blobs leaked. In dedup mode the
	// writes are the new unique content blobs, then one recipe per rank,
	// and the rollback deletes only what this commit introduced.
	if s.opts.Dedup {
		if err := s.putDedup(seq, plan); err != nil {
			return Generation{}, errors.Join(err, s.discardDedup(seq, plan.newBlobs))
		}
		s.applyRefs(plan.added)
	} else {
		for r, data := range images {
			if err := s.bPut(key(seq, r), data); err != nil {
				return Generation{}, errors.Join(err, s.discardGeneration(seq))
			}
		}
	}

	// Phase 3: flip the in-memory chain and the manifest together; a
	// manifest failure rolls both back and discards the blobs.
	oldChain, oldIndex := s.chain, s.index
	s.gens = append(s.gens, gen)
	s.index = newIndex
	if gen.DeltaRanks > 0 {
		s.chain++
	} else {
		s.chain = 0
	}
	rollback := func(err error) error {
		s.gens = s.gens[:len(s.gens)-1]
		s.chain, s.index = oldChain, oldIndex
		if s.opts.Dedup {
			s.unapplyRefs(plan.added)
			return errors.Join(err, s.discardDedup(seq, plan.newBlobs))
		}
		return errors.Join(err, s.discardGeneration(seq))
	}
	if err := s.persistManifest(); err != nil {
		return Generation{}, rollback(err)
	}

	// Phase 4: for write-behind backends, flush to the back tier —
	// Commit's durability promise covers the slow tier. A flush failure
	// fails the commit like a manifest failure (the rolled-back manifest
	// is rewritten so a resume does not see the dead generation).
	if err := s.drainBarrier(); err != nil {
		err = rollback(fmt.Errorf("ckptstore: draining to the back tier: %w", err))
		if merr := s.persistManifest(); merr != nil {
			err = errors.Join(err, merr)
		} else if berr := s.drainBarrier(); berr != nil {
			// The rolled-back manifest's own flush failed: the back
			// tier may still list the dead generation. Report it —
			// losing this error would hide a resume hazard.
			err = errors.Join(err, fmt.Errorf("ckptstore: flushing the rolled-back manifest: %w", berr))
		}
		return Generation{}, err
	}

	// Phase 5: retention. The generation is durable at this point, so a
	// prune failure must not fail the commit (callers would mistake a
	// committed generation for a failed one). The failure is recorded —
	// LastRetentionErr exposes it — and the next prune retries the same
	// range, since the cutoff never advances past a failed delete.
	if s.opts.RetainBases > 0 {
		s.retentionErr = s.pruneRetention(s.opts.RetainBases)
	}
	s.lastUnique = unique
	return gen, nil
}

// validate checks one rank's image for generation seq and returns the
// step it claims, whether it is a delta, and the chunk index the rank
// holds after the commit. A payload that is not a v3 image fails with an
// error wrapping ckptimg.ErrCorrupt. A delta goes through IndexDelta and
// must parent the head at the store's chunk size; a full image in delta
// mode goes through IndexFull. Outside delta mode the index is never
// consulted, so a full image only has its header and META section
// checked (ckptimg.PeekMeta) and the rank keeps no index.
func (s *Store) validate(seq int, data []byte) (step int, delta bool, ix rankIndex, err error) {
	switch {
	case ckptimg.IsDelta(data):
		d, err := ckptimg.IndexDelta(data)
		if err != nil {
			return 0, false, rankIndex{}, fmt.Errorf("delta: %w", err)
		}
		if seq == 0 || d.ParentGen != seq-1 {
			return 0, false, rankIndex{}, fmt.Errorf("delta parents generation %d, head is %d", d.ParentGen, seq-1)
		}
		if d.Index.ChunkBytes != s.opts.ChunkBytes {
			return 0, false, rankIndex{}, fmt.Errorf("delta chunk size %d != store %d", d.Index.ChunkBytes, s.opts.ChunkBytes)
		}
		return d.Step, true, rankIndex{Valid: true, X: d.Index}, nil
	case !s.opts.Delta:
		img, err := ckptimg.PeekMeta(data)
		if err != nil {
			return 0, false, rankIndex{}, err
		}
		return img.Step, false, rankIndex{}, nil
	default:
		f, err := ckptimg.IndexFull(data, s.opts.ChunkBytes)
		if err != nil {
			return 0, false, rankIndex{}, err
		}
		return f.Step, false, rankIndex{Valid: true, X: f.Index}, nil
	}
}

// drainBarrier flushes a write-behind backend to its slow tier
// (Drainer); other backends are durable when Put returns.
func (s *Store) drainBarrier() error {
	if d, ok := s.b.(Drainer); ok {
		return d.DrainBarrier()
	}
	return nil
}

// LastRetentionErr reports the outcome of the most recent automatic
// retention pass (Options.RetainBases): nil after a clean prune, the
// aggregated delete failures otherwise. Retention failures never fail
// Commit — the generation is already durable when pruning runs — so
// callers that care about leaked blobs poll here; the next commit's
// pass retries the same range.
func (s *Store) LastRetentionErr() error {
	return s.retentionErr
}

// discardGeneration removes every blob a failed commit may have written
// for seq. Deletes that fail get one bounded retry pass; blobs that
// survive it are reported in the aggregated error — a rollback that
// leaks blobs must not report success, and the next Open's orphan
// sweep is the recovery of last resort.
func (s *Store) discardGeneration(seq int) error {
	var failed []int
	for r := 0; r < s.n; r++ {
		if err := s.b.Delete(key(seq, r)); err != nil {
			failed = append(failed, r)
		}
	}
	if len(failed) == 0 {
		return nil
	}
	var errs []error
	for _, r := range failed {
		if err := s.b.Delete(key(seq, r)); err != nil {
			errs = append(errs, fmt.Errorf("ckptstore: discarding generation %d rank %d: %w", seq, r, err))
		}
	}
	return errors.Join(errs...)
}

// pruneRetention removes the blobs of superseded chains, keeping the most
// recent keepBases (positive) base generations and every delta chained
// onto them; Commit runs it when Options.RetainBases is set. Pruned
// generations stay listed in Generations() as metadata but can no
// longer be materialized (ErrPruned). The cutoff always lands on a base
// generation, so every surviving generation's chain resolves without
// crossing into pruned territory.
func (s *Store) pruneRetention(keepBases int) error {
	var bases []int
	for _, g := range s.gens {
		if g.Base() {
			bases = append(bases, g.Seq)
		}
	}
	if len(bases) <= keepBases {
		return nil
	}
	cutoff := bases[len(bases)-keepBases]
	if cutoff <= s.prunedTo {
		return nil
	}
	var errs []error
	for seq := s.prunedTo; seq < cutoff; seq++ {
		for r := 0; r < s.n; r++ {
			if s.opts.Dedup {
				// Refcounted delete: the recipe goes first, then each blob
				// whose last reference this was. A blob another live
				// recipe still lists survives — see pruneRecipe.
				if err := s.pruneRecipe(key(seq, r)); err != nil {
					errs = append(errs, err)
				}
			} else if err := s.b.Delete(key(seq, r)); err != nil {
				errs = append(errs, fmt.Errorf("ckptstore: pruning generation %d rank %d: %w", seq, r, err))
			}
		}
	}
	if err := errors.Join(errs...); err != nil {
		// Deleting a missing key is not an error, so the retry on the
		// next prune is safe; the cutoff does not advance past failures.
		return err
	}
	s.prunedTo = cutoff
	// Quarantine entries below the cutoff are stale: the generations are
	// metadata-only now, and ErrPruned outranks ErrQuarantined.
	for seq := range s.quarantined {
		if seq < s.prunedTo {
			delete(s.quarantined, seq)
		}
	}
	if err := s.persistManifest(); err != nil {
		return err
	}
	// A back-tier resume must not read the pre-prune manifest.
	return s.drainBarrier()
}

// persistManifest rewrites the manifest blob.
func (s *Store) persistManifest() error {
	var quarantined []int
	for seq := range s.quarantined {
		quarantined = append(quarantined, seq)
	}
	sort.Ints(quarantined)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&manifest{
		N: s.n, ChunkBytes: s.opts.ChunkBytes,
		Gens: s.gens, Chain: s.chain, Index: s.index,
		PrunedTo: s.prunedTo, Dedup: s.opts.Dedup,
		Quarantined: quarantined,
	}); err != nil {
		return fmt.Errorf("ckptstore: encoding manifest: %w", err)
	}
	return s.bPut(manifestKey, buf.Bytes())
}

// ForceBase invalidates the head chunk indexes and resets the delta
// chain, so the next commit writes full base images. Restart fallback
// calls it after resuming from an older generation: the in-memory
// indexes still describe the newer (damaged) head, and a delta encoded
// against them would chain new work onto bytes that cannot resolve.
func (s *Store) ForceBase() {
	for r := range s.index {
		s.index[r] = rankIndex{}
	}
	s.chain = 0
}

// Generations lists the committed generations in order.
func (s *Store) Generations() []Generation {
	return append([]Generation(nil), s.gens...)
}

// Head reports the most recent committed generation.
func (s *Store) Head() (Generation, bool) {
	if len(s.gens) == 0 {
		return Generation{}, false
	}
	return s.gens[len(s.gens)-1], true
}

// getBlob reads one rank image. Committed images are never rewritten,
// and a pruned generation never gets here: checkReadable refuses it up
// front, and the retention cutoff lands on a base, so no live chain
// links below it. On a dedup store the rank key holds a recipe, which
// is reassembled — and verified blob-by-blob — into the exact original
// encoded image.
func (s *Store) getBlob(seq, rank int) ([]byte, error) {
	data, err := s.bGet(key(seq, rank))
	if err != nil || !s.opts.Dedup {
		return data, err
	}
	return s.assembleRecipe(seq, rank, data)
}
