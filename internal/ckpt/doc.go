// Package ckpt is the checkpoint subsystem of the MANA reproduction:
// the coordinator that drives coordinated checkpoints across the ranks
// of a job, and the interfaces a drain strategy implements to pull
// in-flight point-to-point messages off the network before the cut.
//
// The package deliberately contains no runtime code. internal/core
// depends only on the types defined here; concrete drain strategies
// live in internal/ckpt/drain and register themselves through
// RegisterDrain from an init function, so the dependency graph is
//
//	core ──▶ ckpt ◀── ckpt/drain
//	              ▲
//	cmd/harness/impls ──(blank import of ckpt/drain)──┘
//
// A DrainStrategy sees one rank's runtime through the DrainEnv
// interface: the per-peer send/receive counters (a ckptimg.Counters
// list, one entry per peer the rank has talked to), the live
// communicators, a handful of lower-half primitives (counter exchange,
// probe, pull, control messages over MANA's internal communicator) and
// the phase label the stall diagnostic prints. Strategies are selected
// by name via Config.DrainStrategy or the manasim --drain flag:
//
//   - "twophase" — the paper's two-phase protocol (SC'23, Section 5):
//     an MPI_Alltoall of cumulative send counters followed by
//     Iprobe+Recv until every expected message has been drained.
//   - "toposort" — the topological-sort approach of arXiv:2408.02218:
//     no collective; ranks announce counters point-to-point along the
//     E send edges, a tree of 2(n−1) tokens closes the announcement,
//     and each rank drains its senders in send-dependency order.
//
// The Coordinator plays the role of the DMTCP coordinator in real
// MANA: an entity outside the ranks that requests checkpoints,
// arbitrates the checkpoint boundary (the agreement protocol of
// NextBoundary), and collects one image per rank per generation,
// rejecting double delivery and incomplete sets with typed errors.
//
// Collected images land in a generation-chained checkpoint store
// (internal/ckptstore): Deliver stages a rank's encoded image and
// commits the generation only once every rank has delivered, so a rank
// killed mid-checkpoint leaves nothing in the store — the staged bytes
// die with the coordinator and Images keeps returning the last complete
// generation (or *IncompleteSetError when none exists). Images
// resolves base+delta chains and re-encodes full images, so its callers
// are oblivious to whether generations were written incrementally.
// Rank-side encoding asks the store (Coordinator.Store) whether to
// write a delta via PlanDelta; the dependency graph gains one edge:
//
//	core ──▶ ckpt ──▶ ckptstore ──▶ ckptimg
//	          ▲                       ▲
//	          └────── ckpt/drain ─────┘
//
// ckpt/drain holds the init-registered strategies; the counters they
// read are the image's own representation, ckptimg.Counters.
//
// # Concurrency model
//
// The Coordinator holds no lock and no atomic. The event kernel runs
// one rank at a time, so every Coordinator method has one caller at a
// time: the rank holding the execution token (NextBoundary, Deliver,
// CheckpointDone, and a periodic RequestCheckpoint from rank 0), or the
// goroutine that owns the job — presetting a checkpoint before the
// ranks start, reading Taken and Images after they finish — and the
// kernel's coroutine switch orders each caller after the last. The
// checkpoint pipeline runs one layer down, inside Store.Commit, which
// validates, chunk-indexes and writes every rank's image on the
// calling goroutine: the generation's last-delivering rank, while
// every other rank is parked at the post-checkpoint barrier. A
// Coordinator is not safe for use by goroutines the kernel does not
// order.
//
// A store commit failure surfaces from the completing rank's Deliver;
// the store guarantees the failed generation left no blobs or chain
// state behind, so the coordinator simply stays at the previous
// generation count.
//
// Restart resolution likewise lives in the store: the chain resolver
// (MaterializeStream and RestoreStream, newest-wins ownership per
// chunk) walks the ranks in order; the coordinator and runtime never
// see partially resolved chains.
package ckpt
