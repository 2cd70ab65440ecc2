package drain

import (
	"fmt"

	"manasim/internal/ckpt"
	"manasim/internal/mpi"
)

func init() {
	ckpt.RegisterDrain("twophase", func() ckpt.DrainStrategy { return &TwoPhase{} })
}

// TwoPhase is the source paper's drain protocol (SC'23, Section 5):
// phase one exchanges cumulative per-peer send counters over the lower
// half with MPI_Alltoall — completing the collective proves every rank
// has stopped application sending — and phase two pulls every expected
// in-flight message off the network with MPI_Iprobe + MPI_Recv.
type TwoPhase struct{}

// Name implements ckpt.DrainStrategy.
func (*TwoPhase) Name() string { return "twophase" }

// Drain implements ckpt.DrainStrategy.
func (*TwoPhase) Drain(env ckpt.DrainEnv) (err error) {
	// The phase survives an error return: the deadlock diagnostic reports
	// where each rank was when the job went down.
	defer func() {
		if err == nil {
			env.SetPhase("done")
		}
	}()
	env.SetPhase("twophase:exchange")
	theirSent, err := env.ExchangeAll(env.SentTo())
	if err != nil {
		return fmt.Errorf("drain/twophase: counter exchange: %w", err)
	}

	recvFrom := env.RecvFrom()
	expect := make([]int64, env.Size())
	var total int64
	for p := range expect {
		expect[p] = int64(theirSent[p]) - int64(recvFrom[p])
		if expect[p] < 0 {
			return fmt.Errorf("drain/twophase: counter underflow from rank %d: sent %d, received %d", p, theirSent[p], recvFrom[p])
		}
		total += expect[p]
	}
	if total == 0 {
		return nil
	}

	env.SetPhase("twophase:pull")
	comms, err := env.Comms()
	if err != nil {
		return err
	}
	for total > 0 {
		progressed := false
		for _, c := range comms {
			for {
				ok, st, err := env.Probe(c, mpi.AnySource, mpi.AnyTag)
				if err != nil {
					return err
				}
				if !ok {
					break
				}
				w, err := env.Pull(c, st)
				if err != nil {
					return err
				}
				expect[w]--
				total--
				progressed = true
				if expect[w] < 0 {
					return fmt.Errorf("drain/twophase: drained more messages from rank %d than its counter claims", w)
				}
			}
		}
		if !progressed && total > 0 {
			// The counter exchange is a barrier and the transport is
			// deposit-on-send, so everything expected must already be
			// probeable. Anything else is a protocol bug.
			return fmt.Errorf("drain/twophase: drain stalled with %d messages outstanding", total)
		}
	}
	return nil
}
