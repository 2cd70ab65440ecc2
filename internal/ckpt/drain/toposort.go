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
// each rank announces its cumulative send counters point-to-point, the
// moment it reaches its cut, to the peers it sent to, and drains its
// senders in topological order of their rows as the rows arrive. A
// binomial tree of point-to-point tokens closes the announcement (see
// the package documentation): E + 2(n−1) control messages for a send
// graph of E edges, and no rank blocks inside an MPI collective.
type TopoSort struct{}

// The close tokens, one value with a negative header no row has. They
// are never written, so a token allocates nothing per send.
var (
	tokenAnnounced = []int64{-1} // child to parent: subtree announced
	tokenRelease   = []int64{-2} // parent to child: all announced
)

// Name implements ckpt.DrainStrategy.
func (*TopoSort) Name() string { return "toposort" }

// Drain implements ckpt.DrainStrategy.
func (s *TopoSort) Drain(env ckpt.DrainEnv) (err error) {
	n, me := env.Size(), env.Rank()
	// The close tree: the parent is me with its lowest set bit cleared,
	// the children are me+b for each power of two b below that bit
	// (every b at the root) while me+b < n. kids holds those b, pending
	// the b of each child that has not reported yet.
	parent, low, kids := me&(me-1), me&-me, 0
	if me == 0 {
		low = n
	}
	for b := 1; b < low && me+b < n; b <<= 1 {
		kids |= b
	}
	pending := kids
	closing, reported, released := false, false, false
	outstanding := int64(0)
	// The phase survives an error return: the deadlock diagnostic reports
	// where each rank was when the job went down, naming the rank the
	// close waits on. It is formatted only then, not on every pass.
	defer func() {
		switch {
		case err == nil:
			env.SetPhase("done")
		case !closing:
		case pending != 0:
			env.SetPhase(fmt.Sprintf("toposort:close awaiting rank %d", me+(pending&-pending)))
		case !released:
			env.SetPhase(fmt.Sprintf("toposort:close awaiting rank %d", parent))
		default:
			env.SetPhase(fmt.Sprintf("toposort:drain outstanding=%d", outstanding))
		}
	}()
	// The counter list is read whole before the first Pull, which may
	// insert: for the row, and for the hint of how many rows will
	// arrive — one per peer this rank has received from, and its own.
	counters := env.Counters()
	mine, hint := appendRow(nil, counters), 1
	for _, c := range counters {
		if c.Recv > 0 {
			hint++
		}
	}

	env.SetPhase("toposort:announce")
	// The row is deposited after the rank's last pre-cut application
	// send, so a peer holding it knows our traffic toward it is complete
	// and already probeable (deposit-on-send transport). Self traffic
	// needs no announcement: this rank's own row is at hand.
	for _, c := range counters {
		if c.Sent == 0 || c.Peer == me {
			continue
		}
		if err := env.CtlSend(c.Peer, ckpt.TagDrainCounters, mine); err != nil {
			return fmt.Errorf("drain/toposort: announcing counters to rank %d: %w", c.Peer, err)
		}
	}
	comms, err := env.Comms()
	if err != nil {
		return err
	}

	closing = true
	g := newRows(n, me, hint)
	// No copy of the receive counters: a peer's messages are pulled
	// only once its row is absorbed, so when the row arrives, RecvFrom
	// still counts what had arrived from it before the drain began.
	// The holder's toMe becomes the count still to pull there and
	// counts down as the messages are pulled.
	absorb := func(src int, row []int64) error {
		i, err := g.add(src, row)
		if err != nil {
			return fmt.Errorf("drain/toposort: %w", err)
		}
		h := &g.holders[i]
		recv := int64(env.RecvFrom(src))
		if h.toMe < recv {
			return fmt.Errorf("drain/toposort: counter underflow from rank %d: sent %d, received %d", src, h.toMe, recv)
		}
		h.toMe -= recv
		outstanding += h.toMe
		return nil
	}
	if err := absorb(me, mine); err != nil {
		return err
	}
	release := func() error {
		released = true
		for k := kids; k != 0; k &= k - 1 {
			if err := env.CtlSend(me+(k&-k), ckpt.TagDrainCounters, tokenRelease); err != nil {
				return fmt.Errorf("drain/toposort: releasing rank %d: %w", me+(k&-k), err)
			}
		}
		return nil
	}

	// The dependency order over the rows absorbed so far is recomputed
	// only when a new row has arrived.
	var order []int32
	for !released || outstanding > 0 {
		progressed := false

		// Absorb whatever rows and tokens have arrived, each received
		// into exactly the values it holds. Every row addressed to this
		// rank was deposited before the release was sent, so the pass
		// that receives the release absorbs them all.
		for {
			ok, src, count, err := env.CtlIprobe(mpi.AnySource, ckpt.TagDrainCounters)
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			vals, err := env.CtlRecv(src, ckpt.TagDrainCounters, count)
			if err != nil {
				return err
			}
			progressed = true
			switch b := src - me; {
			case len(vals) == 1 && vals[0] == tokenAnnounced[0]:
				if b <= 0 || b&(b-1) != 0 || pending&b == 0 {
					return fmt.Errorf("drain/toposort: close report from rank %d, which is no pending child of rank %d", src, me)
				}
				pending &^= b
			case len(vals) == 1 && vals[0] == tokenRelease[0]:
				if me == 0 || src != parent || !reported || released {
					return fmt.Errorf("drain/toposort: unexpected release from rank %d at rank %d", src, me)
				}
				if err := release(); err != nil {
					return err
				}
			default:
				if err := absorb(src, vals); err != nil {
					return err
				}
				order = nil
			}
		}
		// Own rows sent and every child reported: the subtree has
		// announced, at the root the whole job.
		if pending == 0 && !reported {
			reported, progressed = true, true
			if me == 0 {
				err = release()
			} else {
				err = env.CtlSend(parent, ckpt.TagDrainCounters, tokenAnnounced)
			}
			if err != nil {
				return fmt.Errorf("drain/toposort: closing at rank %d: %w", me, err)
			}
		}
		if order == nil {
			order = g.order()
		}

		// Drain announced predecessors in dependency order. Their
		// pre-cut messages were deposited before the announcement, so
		// every expected message is already probeable.
		for _, i := range order {
			h := &g.holders[i]
			for ; h.toMe > 0; h.toMe-- {
				if err := s.pullFrom(env, comms, int(h.id)); err != nil {
					return err
				}
				outstanding--
				progressed = true
			}
		}

		if !progressed {
			if released {
				// Every row is in and the expected messages are
				// deposit-on-send, so an empty pass is a protocol bug,
				// not a wait.
				return fmt.Errorf("drain/toposort: stalled after the close with %d messages outstanding", outstanding)
			}
			// Block until the next row or token instead of spin-polling
			// (under the rank-serial kernel a spinning rank would never
			// yield). Both travel on one tag, so one wait wakes on
			// either, and the close always comes.
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
