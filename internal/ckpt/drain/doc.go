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
//     internal communicator as it reaches its cut, to the peers it sent
//     to only, builds the send-dependency graph of its senders
//     incrementally from the announcements it receives, and drains
//     them in topological order of that graph while later
//     announcements are still in flight. A binomial tree of
//     point-to-point tokens closes the announcement, so a rank learns
//     that no further row is coming without any rank blocking inside
//     an MPI collective.
//
// Both strategies leave the rank in the same post-condition — receive
// counters equal to every peer's send counters, all in-flight payloads
// buffered — so images taken under either strategy restore
// identically.
//
// # The counter announcement
//
// A rank's counters are one list of (peer, sent, received) entries,
// peers ascending, holding only the peers the rank has talked to
// (ckptimg.Counters; the runtime counts into it, the image carries it).
// The toposort announcement is the list's entries with a nonzero send
// count; the two-phase exchange writes its MPI_Alltoall send half from
// the same entries. A strategy reads the list whole only before its
// first Pull, because a Pull may insert the sender's entry; after
// that it looks counts up by peer.
//
// The toposort announcement carries a rank's cumulative send counters
// in one wire format, sent on TagDrainCounters to each peer the rank has
// sent to (itself excepted). A row lists only those peers, as int64
// values:
//
//	[k, peer₁, count₁, …, peer_k, count_k]     peers ascending, counts > 0
//
// The rank's own entry is included when it has sent to itself. The
// close of the announcement travels on the same tag, so one blocking
// wait wakes on either, as one-value tokens whose negative header no
// row has:
//
//	[-1]   child to parent: my subtree has announced
//	[-2]   parent to child: every rank has announced
//
// The tree is binomial over world ranks, rooted at rank 0: the parent
// of r is r with its lowest set bit cleared. A rank sends [-1] once its
// rows are sent and each child's [-1] has arrived; the root then sends
// [-2] down, and each rank forwards it to its children. Rows precede
// the reports that cover them and the transport deposits on send, so a
// rank holding [-2] can probe every row addressed to it; a rank no one
// sent to receives no row and drains nothing. A token from a rank that
// is not a pending child, or a release from any rank but the parent
// before the rank has reported, is an error. A row is input from
// another rank, so the receiver checks it before using any value as an
// index, and rejects it with a *RowError naming the sender unless
//
//   - it has 1+2k values, with 0 ≤ k ≤ n;
//   - every peer lies in [0,n) and the peers ascend strictly (no
//     duplicates);
//   - every count is positive;
//   - the sender has not announced already in this drain.
//
// The receiver keeps two things of a row: the count addressed to
// itself (what it must pull from the sender) and the sender's successor
// list, appended to one arena per rank (rows.succ). The rows are held
// per sender, sorted by world rank and found by binary search, so a
// rank's drain state grows with its in-degree, not with n. The
// dependency order is Kahn's algorithm over those holders — a min-heap
// of the holders with no unsorted predecessor, cycles broken at the
// smallest remaining one — and equals the order the dense n×n matrix of
// the same rows gives, filtered to the holders (the dense sort survives
// in the tests as the reference): a rank without a row has no known
// out-edges, so dropping it moves no holder.
//
// The costs for an n-rank job whose ranks have sent to E (rank, peer)
// pairs in total, self-sends excluded:
//
//	control messages          E + 2(n−1)
//	control bytes             8·(Σ over the E edges of the sender's row length + 2(n−1))
//	order, per recomputation  O((h+e) log h) for h rows listing e successors
//	memory per rank           O(in-degree + Σ row lengths received)
//
// Stats.CtlMsgs and Stats.CtlBytes count the rows and the tokens, and
// a test holds them to these figures. Announcing to all pairs would
// send n(n−1) rows; the tree instead adds up to 2⌈log₂ n⌉ hops of
// latency, which costs virtual time at 8 ranks and saves it from 64
// ranks on (the drain experiment).
//
// A rank's rows cost four heap objects whatever n is: the rows, the
// holders and the order's scratch, sized from a hint (the peers the
// rank has received from, plus itself), and the arena, sized at the
// first row for that many rows of its length. There is no copy of the
// receive counters and no per-peer countdown beside it, because a
// peer's messages are pulled only after its row is absorbed: when the
// row arrives, the live receive counter still holds its value from the
// start of the drain, so what the peer still owes is computed there and
// counted down in place. Each row is received into a buffer of exactly
// its length (the probed size), which the rank reuses.
package drain
