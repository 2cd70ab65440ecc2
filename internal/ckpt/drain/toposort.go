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
	// The phase survives an error return: the deadlock diagnostic reports
	// where each rank was when the job went down.
	defer func() {
		if err == nil {
			env.SetPhase("done")
		}
	}()
	n, me := env.Size(), env.Rank()
	if n == 1 {
		return nil
	}
	mine := appendRow(nil, env.SentTo())

	// Snapshot receive counters before any Pull mutates them.
	recvBase := append([]uint64(nil), env.RecvFrom()...)

	g := newRows(n, me)
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

	// left[p] counts the messages still to pull from p; it is known
	// once p's row is in. Self traffic needs no announcement: this
	// rank's own counters are its own row.
	left := make([]int64, n)
	outstanding := int64(0)
	absorb := func(src int, row []int64) error {
		if err := g.add(src, row); err != nil {
			return fmt.Errorf("drain/toposort: %w", err)
		}
		n, err := owed(g, src, recvBase)
		left[src] = n
		outstanding += n
		return err
	}
	if err := absorb(me, mine); err != nil {
		return err
	}

	// The dependency order over the rows absorbed so far is recomputed
	// only when a new row has arrived.
	var order []int32
	for g.have < n || outstanding > 0 {
		env.SetPhase(fmt.Sprintf("toposort:drain rows=%d/%d outstanding=%d", g.have, n, outstanding))
		progressed := false

		// Absorb whatever counter announcements have arrived.
		for {
			ok, src, err := env.CtlIprobe(mpi.AnySource, ckpt.TagDrainCounters)
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			row, err := env.CtlRecv(src, ckpt.TagDrainCounters, maxRowLen(n))
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
			for ; left[w] > 0; left[w]-- {
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

// owed is the number of p's messages still in flight toward this rank:
// what p announced minus what had arrived when the drain began.
func owed(g *rows, p int, recvBase []uint64) (int64, error) {
	left := g.toMe[p] - int64(recvBase[p])
	if left < 0 {
		return 0, fmt.Errorf("drain/toposort: counter underflow from rank %d: sent %d, received %d", p, g.toMe[p], recvBase[p])
	}
	return left, nil
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
