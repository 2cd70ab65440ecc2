// Package drain holds the concrete in-flight message drain strategies
// of the checkpoint subsystem. Each strategy implements
// ckpt.DrainStrategy and registers itself under a name from an init
// function; consumers select one via Config.DrainStrategy or the
// manasim --drain flag, and wire the package in with a blank import:
//
//	import _ "manasim/internal/ckpt/drain"
//
// Two strategies are provided:
//
//   - TwoPhase ("twophase") implements the drain protocol of the source
//     paper, "Implementation-Oblivious Transparent Checkpoint-Restart
//     for MPI" (SC'23), Section 5: every rank joins an MPI_Alltoall of
//     cumulative per-peer send counters (a de-facto barrier that proves
//     all application sending has stopped), then drains with
//     MPI_Iprobe + MPI_Recv until its receive counters match every
//     peer's send counters.
//
//   - TopoSort ("toposort") implements the approach of "Enabling
//     Practical Transparent Checkpointing for MPI: A Topological Sort
//     Approach" (arXiv:2408.02218): no global collective is issued.
//     Each rank announces its send counters point-to-point on the
//     internal communicator as it reaches its cut, builds the
//     send-dependency graph incrementally from the announcements it
//     receives, and drains announced peers in topological order of
//     that graph while later announcements are still in flight. The
//     counter agreement is pairwise rather than collective: every rank
//     still needs each peer's row to prove its cut complete, but no
//     rank blocks inside an MPI collective while another is late.
//
// Both strategies leave the rank in the same post-condition — receive
// counters equal to every peer's send counters, all in-flight payloads
// buffered — so images taken under either strategy restore
// identically.
//
// # The counter announcement
//
// The toposort announcement carries a rank's cumulative send counters
// in one wire format. A row lists only the peers the rank has sent to,
// as int64 values:
//
//	[k, peer₁, count₁, …, peer_k, count_k]     peers ascending, counts > 0
//
// The rank's own entry is included when it has sent to itself; a rank
// that has sent nothing announces [0]. A row is input from another
// rank, so the receiver checks it before using any value as an index,
// and rejects it with a *RowError naming the sender unless
//
//   - it has 1+2k values, with 0 ≤ k ≤ n;
//   - every peer lies in [0,n) and the peers ascend strictly (no
//     duplicates);
//   - every count is positive;
//   - the sender has not announced already in this drain.
//
// The receiver keeps two things of a row: the count addressed to
// itself (what it must pull from the sender) and the sender's successor
// list, appended to one arena per rank (rows.succ). The dependency
// order is Kahn's algorithm over those lists — a min-heap of the ranks
// with no unsorted predecessor, cycles broken at the smallest remaining
// rank — and equals, sequence for sequence, the order the dense n×n
// matrix gave (the dense sort survives in the tests as the reference),
// so images are byte-identical to those of the dense implementation.
//
// What the sparse row changes for an n-rank job whose ranks have sent
// to E (rank, peer) pairs in total, against a dense n-entry row:
//
//	                          dense row        sparse row
//	control messages          n(n−1)           n(n−1)  (unchanged)
//	announcement bytes        8n³              8(n−1)(n+2E), O(n·E) once E ≥ n
//	order, per recomputation  O(n²)            O((n+E) log n)
//	memory per rank           8n²              O(n+E)
//
// The message count is the protocol's and does not move; exchanging
// the rows through per-node leaders instead of all pairs is what would
// lower it. Stats.CtlBytes counts the announcement bytes, and a test
// holds them to the sparse bound.
package drain
