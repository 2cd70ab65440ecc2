package drain

import (
	"fmt"

	"manasim/internal/ckpt"
	"manasim/internal/mpi"
)

func init() {
	ckpt.RegisterDrain("toposort", func() ckpt.DrainStrategy { return &TopoSort{} })
}

// TopoSort drains without issuing any global collective, following
// arXiv:2408.02218 ("Enabling Practical Transparent Checkpointing for
// MPI: A Topological Sort Approach"). Where the two-phase protocol
// synchronizes all ranks in an MPI_Alltoall before anyone drains, here
// each rank announces its cumulative send counters point-to-point on
// the internal communicator the moment it reaches its cut, assembles
// the send-dependency graph from the announcements it receives, and
// drains announced predecessors in topological order of that graph —
// messages are pulled incrementally as rows arrive instead of after a
// collective barrier. A rank still needs every peer's row before it
// can prove its cut complete (without rank p's counters it cannot know
// whether p sent to it), but that agreement is pairwise and
// non-collective: no rank blocks inside an MPI collective while
// another is late.
type TopoSort struct{}

// Name implements ckpt.DrainStrategy.
func (*TopoSort) Name() string { return "toposort" }

// Drain implements ckpt.DrainStrategy.
func (s *TopoSort) Drain(env ckpt.DrainEnv) (err error) {
	n, me := env.Size(), env.Rank()
	var g *rows
	outstanding := int64(0)
	// The phase survives an error return: the deadlock diagnostic reports
	// where each rank was when the job went down. The drain loop's
	// counters are formatted only then, not on every pass.
	defer func() {
		switch {
		case err == nil:
			env.SetPhase("done")
		case g != nil:
			env.SetPhase(fmt.Sprintf("toposort:drain rows=%d/%d outstanding=%d", g.have, n, outstanding))
		}
	}()
	if n == 1 {
		return nil
	}
	mine := appendRow(nil, env.Counters())

	env.SetPhase("toposort:announce")
	// Announce this rank's counters to every peer. The announcement is
	// deposited after the rank's last pre-cut application send, so a
	// peer holding our row knows our traffic toward it is complete and
	// already probeable (deposit-on-send transport).
	for p := 0; p < n; p++ {
		if p == me {
			continue
		}
		if err := env.CtlSend(p, ckpt.TagDrainCounters, mine); err != nil {
			return fmt.Errorf("drain/toposort: announcing counters to rank %d: %w", p, err)
		}
	}

	comms, err := env.Comms()
	if err != nil {
		return err
	}

	// Self traffic needs no announcement: this rank's own counters are
	// its own row.
	g = newRows(n, me)
	// No copy of the receive counters: a peer's messages are pulled
	// only once its row is absorbed, so when the row arrives, RecvFrom
	// still counts what had arrived from it before the drain began.
	// g.toMe[src] becomes the count still to pull there and counts down
	// as the messages are pulled.
	absorb := func(src int, row []int64) error {
		if err := g.add(src, row); err != nil {
			return fmt.Errorf("drain/toposort: %w", err)
		}
		recv := int64(env.RecvFrom(src))
		if g.toMe[src] < recv {
			return fmt.Errorf("drain/toposort: counter underflow from rank %d: sent %d, received %d", src, g.toMe[src], recv)
		}
		g.toMe[src] -= recv
		outstanding += g.toMe[src]
		return nil
	}
	if err := absorb(me, mine); err != nil {
		return err
	}

	// The dependency order over the rows absorbed so far is recomputed
	// only when a new row has arrived.
	var order []int32
	for g.have < n || outstanding > 0 {
		progressed := false

		// Absorb whatever counter announcements have arrived, each
		// received into exactly the values it holds.
		for {
			ok, src, count, err := env.CtlIprobe(mpi.AnySource, ckpt.TagDrainCounters)
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			row, err := env.CtlRecv(src, ckpt.TagDrainCounters, count)
			if err != nil {
				return err
			}
			if err := absorb(src, row); err != nil {
				return err
			}
			progressed = true
			order = nil
		}
		if order == nil {
			order = g.order()
		}

		// Drain announced predecessors in dependency order. Their
		// pre-cut messages were deposited before the announcement, so
		// every expected message is already probeable.
		for _, w := range order {
			for ; g.toMe[w] > 0; g.toMe[w]-- {
				if err := s.pullFrom(env, comms, int(w)); err != nil {
					return err
				}
				outstanding--
				progressed = true
			}
		}

		if !progressed {
			if g.have >= n {
				// Every row is in and the expected messages are
				// deposit-on-send, so an empty pass is a protocol bug,
				// not a wait.
				return fmt.Errorf("drain/toposort: stalled with all counters present and %d messages outstanding", outstanding)
			}
			// Waiting on peers that have not reached their cut yet:
			// block until the next counter announcement instead of
			// spin-polling. Every missing peer still owes us its row
			// (announcements precede this loop on every rank), so the
			// wait always terminates — and under the rank-serial
			// kernel a spinning rank would never yield at all.
			if err := env.CtlWait(mpi.AnySource, ckpt.TagDrainCounters); err != nil {
				return err
			}
		}
	}
	return nil
}

// pullFrom locates and pulls one in-flight message from world rank w on
// any live communicator.
func (s *TopoSort) pullFrom(env ckpt.DrainEnv, comms []ckpt.DrainComm, w int) error {
	for _, c := range comms {
		src := -1
		for cr, wr := range c.World {
			if wr == w {
				src = cr
				break
			}
		}
		if src < 0 {
			continue
		}
		ok, st, err := env.Probe(c, src, mpi.AnyTag)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		got, err := env.Pull(c, st)
		if err != nil {
			return err
		}
		if got != w {
			return fmt.Errorf("drain/toposort: pulled message from rank %d while draining rank %d", got, w)
		}
		return nil
	}
	return fmt.Errorf("drain/toposort: rank %d announced more messages than are probeable", w)
}
