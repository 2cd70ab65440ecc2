package drain

import (
	"fmt"

	"manasim/internal/ckpt"
	"manasim/internal/mpi"
)

// reliableRows is the lossy-control-plane version of the counter
// exchange shared by both drain strategies: every rank announces its
// cumulative send-counter row to every peer and collects all n rows,
// surviving injected drops and delays of the first transmission with a
// classic timeout-and-resend protocol.
//
// Wire format: [epoch | row], the row being the sparse announcement of
// the package documentation. The first transmission goes out under
// TagDrainCounters — the one tag the fault injector is allowed to drop
// or delay. Acks (TagDrainAck, payload [epoch]) and retransmissions
// (TagDrainResend, same row payload) are exempt from injected loss,
// which resolves the Two Generals problem: a bounded number of reliable
// resends always converges.
//
// A rank may return only when it (a) holds every peer's row and (b) has
// seen an ack for its own row from every peer. Condition (b) is what
// keeps a peer from deadlocking on a dropped first transmission: as
// long as some peer has not acked, this rank periodically wakes from a
// virtual-time sleep and resends its row to exactly the unacked peers.
// Acks for rows this rank received are deposited before it returns, so
// a slow peer always finds them.
//
// Rows and acks from an earlier drain round carry a smaller epoch and
// are discarded on receipt: the post-checkpoint barrier guarantees an
// epoch mismatch means a strictly older round, never a future one. Such
// leftovers exist precisely when a delayed original and a resend both
// arrived and only one copy was consumed.
//
// The rows land in g, mine (this rank's own announcement) included.
func reliableRows(env ckpt.DrainEnv, g *rows, mine []int64) error {
	n, me := env.Size(), env.Rank()
	epoch := env.CtlEpoch()
	timeout := env.CtlResendTimeout()

	payload := make([]int64, 0, 1+len(mine))
	payload = append(payload, epoch)
	payload = append(payload, mine...)

	env.SetPhase("reliable:announce")
	for p := 0; p < n; p++ {
		if p == me {
			continue
		}
		if err := env.CtlSend(p, ckpt.TagDrainCounters, payload); err != nil {
			return fmt.Errorf("drain: announcing counters to rank %d: %w", p, err)
		}
	}

	if err := g.add(me, mine); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	acked := make([]bool, n)
	acked[me] = true
	nAcked := 1

	// absorb drains every probeable row (first transmission or resend)
	// under tag, acking fresh-epoch rows and discarding stale ones.
	absorb := func(tag int) (bool, error) {
		progressed := false
		for {
			ok, src, err := env.CtlIprobe(mpi.AnySource, tag)
			if err != nil {
				return progressed, err
			}
			if !ok {
				return progressed, nil
			}
			row, err := env.CtlRecv(src, tag, 1+maxRowLen(n))
			if err != nil {
				return progressed, err
			}
			if len(row) == 0 {
				return progressed, fmt.Errorf("drain: %w", &RowError{Sender: src, Reason: "no epoch"})
			}
			if row[0] != epoch {
				// A leftover from an older drain round (its sender has
				// long since passed the barrier): drop it unacked.
				continue
			}
			if !g.known[src] {
				if err := g.add(src, row[1:]); err != nil {
					return progressed, fmt.Errorf("drain: %w", err)
				}
				progressed = true
			}
			// Ack even duplicates: the sender may be resending because
			// our first ack chased a dropped transmission it re-sent.
			if err := env.CtlSend(src, ckpt.TagDrainAck, []int64{epoch}); err != nil {
				return progressed, err
			}
		}
	}

	for g.have < n || nAcked < n {
		env.SetPhase(fmt.Sprintf("reliable:absorb rows=%d/%d acks=%d/%d", g.have, n, nAcked, n))
		progressed := false
		for _, tag := range []int{ckpt.TagDrainCounters, ckpt.TagDrainResend} {
			p, err := absorb(tag)
			if err != nil {
				return err
			}
			progressed = progressed || p
		}
		for {
			ok, src, err := env.CtlIprobe(mpi.AnySource, ckpt.TagDrainAck)
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			vals, err := env.CtlRecv(src, ckpt.TagDrainAck, 1)
			if err != nil {
				return err
			}
			if len(vals) != 1 {
				return fmt.Errorf("drain: ack of %d values from rank %d, want 1", len(vals), src)
			}
			if vals[0] != epoch {
				continue
			}
			if !acked[src] {
				acked[src] = true
				nAcked++
				progressed = true
			}
		}
		if progressed || (g.have >= n && nAcked >= n) {
			continue
		}

		// Nothing probeable and the exchange is incomplete: either a
		// first transmission was dropped (ours or a peer's) or a peer
		// has not reached its cut. Sleep one resend timeout in virtual
		// time, then retransmit our row to every peer that has not
		// acked it. Resends are reliable, so each round strictly grows
		// the set of peers holding our row.
		env.SetPhase("reliable:timeout")
		if err := env.CtlSleep(env.CtlNow() + timeout); err != nil {
			return fmt.Errorf("drain: resend timeout sleep: %w", err)
		}
		for p := 0; p < n; p++ {
			if acked[p] {
				continue
			}
			if err := env.CtlSend(p, ckpt.TagDrainResend, payload); err != nil {
				return fmt.Errorf("drain: resending counters to rank %d: %w", p, err)
			}
		}
	}
	return nil
}
