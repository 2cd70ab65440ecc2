// Package ckptstore is the generation-chained checkpoint store: the
// persistence layer between the checkpoint coordinator and the restart
// path. It turns "a checkpoint happened" into "a checkpoint is stored,
// versioned, and cheap".
//
// # Generations and the delta chain
//
// Every completed job checkpoint commits one Generation: a sequence
// number, the checkpoint boundary step, and one encoded image per rank.
// A generation is either a base — every rank stored a full v3 image —
// or a delta: ranks whose application state could be diffed stored an
// incremental image (ckptimg.FlagDelta) that records, per fixed-size
// app-state chunk, "unchanged since the parent generation" or the new
// chunk bytes. The store keeps each rank's chunk-CRC index
// (ckptimg.ChunkIndex) across generations, so a rank can encode the
// next delta without the store holding the parent bytes in memory.
//
// The chain is strictly sequential: generation g's deltas are always
// encoded against generation g-1. Options.ChainCap bounds the number of
// consecutive delta generations; once the cap is reached PlanDelta
// forces the next generation to be a new base, bounding restart's chain
// resolution (and the blast radius of a damaged delta).
//
// Restart never sees deltas. One resolver walks each rank's chain
// newest-to-oldest at chunk granularity, resolves a newest-wins owner
// per chunk position, and decompresses only the winning chunk from its
// owning link. Superseded payloads are never inflated (their section
// frames are still CRC-checked), every pass-through link's CRC claim is
// verified against the resolved bytes, and a resolution holds the
// rank's blobs, one state buffer and one chunk of scratch however deep
// the chain. MaterializeStream returns decoded images, restart-ready,
// each owning its state. RestoreStream hands each rank's image to a
// callback instead — the restart path, which restores the application
// from it — and resolves rank after rank into the same state buffer and
// scratch, so peak resolver memory is one rank's, not one per rank.
//
// Every link must be a v3 image. A damaged link — or one that is not a
// v3 image at all (a pre-v3 image) — fails the resolution with a
// *ChainLinkError naming the broken generation and wrapping
// ckptimg.ErrCorrupt, and no partially-applied state is returned.
//
// # Commit validation
//
// Commit trusts no image. A delta goes through ckptimg.IndexDelta:
// every section frame's CRC, the linkage, exactly one record per chunk,
// the identity and tail sections decode, and every changed chunk's
// content checks against its recorded CRC and length; then the store's
// own rules — it parents the head generation, at the store's chunk
// size. A full image in delta mode goes through ckptimg.IndexFull,
// which makes the same checks and reads the application state to the
// end of its stream to index it. Outside delta mode the index is never
// consulted, and Commit checks only the header and the META section
// (ckptimg.PeekMeta). Any failure refuses the whole generation with an
// error naming the generation and the first failing rank; a payload
// that is not a v3 image wraps ckptimg.ErrCorrupt. So the store holds
// nothing but v3 images, and Scrub can condemn any stored byte that
// fails its integrity walk. Validation is streaming: each rank's
// changed chunks (or its full state) pass one at a time through a
// chunk-sized scratch buffer, checked and indexed as they go, and
// nothing is materialized. The scratch comes from a pool in ckptimg
// that every rank of every commit shares, so a commit allocates the
// indexes — not a chunk per image, never a second application state,
// and no copy of an image.
//
// # Backends
//
// Persistence is pluggable behind the Backend interface — a flat
// key/blob namespace — and Options.Backend selects one of the built-ins
// by name:
//
//   - "mem" keeps blobs in process memory (tests, benchmarks, the
//     default for in-process restart).
//   - "fs" lays blobs out under a root directory (Options.Dir), one
//     file per key, written via a temp file + rename so a torn write
//     never leaves a half image under the final name.
//   - "obj" models an object store: blobs in memory behind S3-style
//     semantics where every Put/Get/List/Delete is a keyed round trip.
//     It is the mem backend reporting the fsim.ObjStore cost profile
//     (per-op latency + bandwidth) through CostModel.
//   - "tier" composes a fast mem front tier over a slow durable back
//     tier: fs under Options.Dir/back, or obj when no Dir is given. See
//     "The tier drainer" below.
//
// Every backend reports a CostModel: the storage profile the simulated
// job charges for checkpoint writes and restart reads over that
// backend. mem and fs report a zero model — they are the direct path
// onto the job's configured filesystem (Config.FS, NFSv3 by default) —
// while obj and tier attach their own tiers' profiles, so the modeled
// cost follows the tier actually hit.
//
// Blob bytes change hands once in each direction. Put takes ownership
// of its data: mem, obj and the tier backend's front keep the caller's
// slice as the stored blob, fs writes it out, and the caller must not
// write to it afterwards. Commit hands each rank's image to Put as it
// is, so the encoder's exact-size output is the only copy a store holds
// of it. A caller may keep reading what it committed. A dedup blob is a
// segment of its image and is copied out at exact size before Put, so
// no stored blob pins a whole image. Get returns a copy the caller owns.
//
// The store persists a manifest blob (generation metadata, per-rank
// chunk indexes, chain length, the retention cutoff) after every
// commit, so Open on a backend written by an earlier process resumes
// the chain: the next generation deltas against the last committed one.
// Generation keys are gen%04d/rank%02d. Open also prunes orphan blobs
// — keys of exactly that form for generations the manifest does not
// cover, left by a process that crashed between its blob writes and its
// manifest update — so a torn commit can neither resurface nor leak.
// A key that only resembles one is left for Scrub, which deletes it as
// an orphan.
//
// Retention bounds blob growth over long lineages: with
// Options.RetainBases set, each Commit deletes superseded chains down
// to the K most recent base generations. Pruned generations stay listed
// as metadata but materialize to ErrPruned; the cutoff always lands on
// a base, so every surviving generation's chain resolves without
// crossing it.
//
// # Content-addressed dedup
//
// With Options.Dedup the store splits each rank's encoded image into
// content segments (ckptimg.SplitDedupSegments: section frames of the
// v3 format, with app state already chunked at ChunkBytes granularity
// by the encoder) and stores each unique segment once, as a blob keyed
// by its content:
//
//	blob/<crc32>-<length>-<sha256 prefix>
//
// The per-rank generation key no longer holds image bytes; it holds a
// recipe — the image length and an ordered list of segments whose
// blobs concatenate to exactly the encoded image. A recipe ("MANARCP2")
// stores each segment as what its key names, in binary: the CRC-32, a
// uvarint length and the 16-byte hash prefix, from which the reader
// rebuilds the key. Recipes of earlier builds ("MANARCP1", one text key
// per segment) are refused as corrupt. Blobs are shared across ranks and across
// generations: rank-identical state (HPCG's assembled stencil matrix)
// and unchanged-across-generations state both collapse to one stored
// copy. MaterializeStream resolves recipes through the blob table
// transparently; restart output is byte-identical to the plain
// store's.
//
// Blob ownership and the refcount lifecycle:
//
//   - A blob is owned by the set of recipes that reference it. The
//     in-memory refcount table is derived state: it is rebuilt at Open
//     by walking every surviving recipe, and is never persisted. The
//     manifest pins only the store's Dedup mode (a store is dedup or
//     plain for its whole life; Open rejects a mode mismatch).
//   - Commit writes only blobs the table does not already hold, then
//     the recipes, then increments refcounts ("applyRefs") only after
//     the manifest flips — so a failed commit rolls back by deleting
//     exactly the blobs it introduced, never a shared one.
//   - Retention and generation discard delete the recipe FIRST, then
//     decrement; a blob is deleted only when its refcount reaches
//     zero. Because the recipe is gone before any blob delete, a crash
//     mid-prune retries idempotently: the next Open's rebuild simply
//     never counts the dead recipe, and rebuildRefs deletes any blob
//     no surviving recipe references (self-healing a failed blob
//     delete the same way it collects a torn commit's orphans).
//
// Crash-resume rule of thumb: recipes are the source of truth; blobs
// and refcounts follow. Any blob unreachable from a live recipe is
// garbage and Open collects it; any blob reachable from a live recipe
// is never deleted.
//
// Cost attribution: the simulated job charges only new unique bytes
// per commit. A chunk shared by several ranks in the same generation
// is paid for by the lowest rank that carries it (CommitCharge);
// recipe bytes are charged to their rank (Generation.UniqueBytes).
//
// # The tier drainer
//
// The tier backend's Put is write-through: it returns once the front
// tier (the burst buffer) holds the blob and appends the key to a FIFO
// flush queue. DrainBarrier flushes that queue to the back tier on the
// calling goroutine, oldest key first — blob Puts flush before the
// manifest Put that references them, so a back-tier-only resume never
// sees a manifest pointing at bytes that have not arrived. Ownership
// and ordering rules:
//
//   - The queue owns keys, not bytes: a flush re-reads the front tier
//     at flush time, so re-Puts of a key collapse (newest wins) and the
//     queue stays O(keys).
//   - Delete cancels a pending flush before touching either tier, so a
//     flush can never resurrect a deleted blob on the back tier.
//   - DrainBarrier returns every flush failure of its pass. The store
//     issues it after each manifest write — Commit's (its retention
//     pass included) and Scrub's — so the back tier is current whenever one returns.
//     Commit's durability promise covers the back tier, and a flush
//     failure rolls the generation back like a manifest failure.
//   - Get is read-through with promotion: a back-tier hit (a resume
//     with a cold front tier) is copied into the front tier directly,
//     never through the flush queue.
//
// The modeled side runs on two virtual clocks: front-tier durability
// advances per Put at the front profile's cost, back-tier durability
// trails it at the back profile's; DrainLag reports their gap — the
// durability price of committing at burst-buffer speed — which the
// backends experiment surfaces as its drain-lag column.
//
// The front tier is unbounded by default; Options.FrontCap bounds it
// in bytes with LRU eviction. Eviction never drops the only copy of a
// blob: keys still queued for the back tier and the manifest key are
// pinned, so between barriers the front tier may overshoot its cap and
// recovers on the next insert after one. Evicted keys fall through to
// the back tier on Get and re-promote into the front (re-entering the
// LRU); the backend counts front hits/misses, promotions and
// evictions.
//
// # Concurrency model
//
// The store has no goroutines and no locks of its own, and neither has
// any backend. Every operation — Commit's validation, dedup planning
// and Puts, MaterializeStream's and RestoreStream's chain resolution,
// Scrub, retention, and the tier backend's flush inside DrainBarrier —
// runs on the calling goroutine and walks ranks 0..n-1 in order. The
// sequence of backend calls is therefore a pure function of the
// store's inputs, the first failing rank is the one every error
// reports, and RestoreStream's one resolver buffer pair is its whole
// peak state (ChainStats.PeakBytes). The simulator's parallelism is
// the kernel's, not the store's.
//
// A store has one caller at a time: the rank holding the kernel's
// execution token (a checkpoint's Commit, issued by the generation's
// last-delivering rank) or the goroutine that owns the job (opening,
// restarting, scrubbing, reading images back), and the kernel's
// coroutine switch orders each caller after the last. A store must not be shared
// by goroutines nothing orders. Within that one caller, operations
// interleave freely: committed generations are immutable (blobs are
// never rewritten), so a later Commit never changes what an earlier
// generation resolves to, and a generation retention has pruned fails
// with ErrPruned.
//
// A link's chunk payloads alias its backend blob, which the resolution
// owns until it completes; pooled codec state (the gzip inflater) is
// owned by one ChunkReader and returned on Close. Winning chunks
// inflate directly into the output state buffer, with one chunk-sized
// scratch for length-mismatched tails. MaterializeStream gives every
// rank a buffer pair of its own; RestoreStream reuses one for the next
// rank only after the callback has returned.
//
// # Scrub, quarantine, and restart fallback
//
// The store assumes backends can lie: a blob may come back bit-flipped,
// truncated, or torn without any operation having failed. Scrub() is
// the integrity pass that finds out. It walks manifest → generation
// chains → dedup recipes → blobs, verifying every section-frame CRC,
// every content key's length and hash, and the dedup refcount table,
// and classifies each defect as a ScrubFinding. Repairs happen in
// place where the store holds redundancy:
//
//   - a corrupt dedup blob is re-derived from any surviving recipe
//     sharer's materialized bytes (donor repair);
//   - refcount drift is rebuilt from the surviving recipes;
//   - orphan blobs (reachable from no live recipe or generation) are
//     deleted.
//
// What cannot be repaired is quarantined: the generation is marked in
// the manifest (surviving process restarts), the resolver refuses
// it with ErrQuarantined, and a later scrub
// pass releases it if the damage turns out to have been transient
// (a flaky read, since healed). Quarantining the head also invalidates
// the delta index, forcing the next commit to a full base — a delta
// against unverifiable state would be unreconstructable. A scrub pass
// never deletes generation data: quarantine is reversible, deletion is
// not, and the restart fallback in core (Config.RestartFallback) may
// still want an older generation this pass could not vouch for.
//
// The restart side of the contract: every decode failure is typed
// (ckptimg.ErrCorrupt, ErrQuarantined, ErrPruned, *ChainLinkError), so
// core.RestartJobFromStore can walk generations newest-first and
// degrade to the newest one that verifies instead of returning
// bit-wrong state. The walk stops at a pruned generation — older
// blobs are deleted, nothing below can restart.
//
// Compression is configured per store: Options.Compress enables it,
// Options.CompressTier picks the codec and effort — ckptimg.TierFast
// (flate BestSpeed, images flagged ckptimg.FlagFastCompress) for hot
// checkpoints, ckptimg.TierMax for archival generations,
// ckptimg.TierBalanced as the default middle ground, and
// ckptimg.TierFastLZ (images flagged ckptimg.FlagLZ) for the pure-Go
// LZ-class codec that trades some ratio for roughly twice gzip
// BestSpeed's throughput.
package ckptstore
