package cluster

import (
	"errors"
	"strings"
	"testing"
	"time"

	"manasim/internal/mpi"
	"manasim/internal/simtime"
	"manasim/internal/transport"
)

// fakeProc is a minimal mpi.Proc for launcher tests.
type fakeProc struct {
	mpi.Proc // nil embedding: only the methods used below are called
	rank     int
	abort    func(int)
}

func (f *fakeProc) Rank() int             { return f.rank }
func (f *fakeProc) SetAbort(fn func(int)) { f.abort = fn }

func fakeFactory(fab *transport.Fabric, rank int, clock *simtime.Clock, net simtime.NetModel) mpi.Proc {
	return &fakeProc{rank: rank}
}

func TestRunCollectsResults(t *testing.T) {
	res, err := Run(4, fakeFactory, simtime.NetModel{}, func(rank int, p mpi.Proc, clock *simtime.Clock) error {
		clock.Advance(time.Duration(rank+1) * time.Second)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.VT != 4*time.Second {
		t.Fatalf("VT %v", res.VT)
	}
	for r, vt := range res.PerRankVT {
		if vt != time.Duration(r+1)*time.Second {
			t.Fatalf("rank %d vt %v", r, vt)
		}
	}
}

// TestFirstFailureWins: the job reports the rank that failed first, not
// the lowest rank that failed. A failure closes the fabric, so peers
// blocked in a receive fail after it with the teardown's error; naming
// one of them would hide the cause.
func TestFirstFailureWins(t *testing.T) {
	sentinel := errors.New("boom")
	for _, c := range []struct {
		name string
		fail func(rank int) bool
		want int
	}{
		{"ranks 1 and 3 fail in turn", func(r int) bool { return r == 1 || r == 3 }, 1},
		{"rank 2 fails while 0 and 1 wait", func(r int) bool { return r == 2 }, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			j := New(4, 0, fakeFactory, simtime.NetModel{})
			j.Start(func(rank int, p mpi.Proc, clock *simtime.Clock) error {
				if c.fail(rank) {
					return sentinel
				}
				if rank < c.want {
					// Blocks until the failure tears the fabric down.
					_, err := j.Fabric.Endpoint(rank).Recv(transport.Match{Context: 1, Src: 3, Tag: 0})
					return err
				}
				return nil
			})
			_, err := j.WaitResult()
			var re *RankError
			if !errors.As(err, &re) || re.Rank != c.want || !errors.Is(err, sentinel) {
				t.Fatalf("job error %v, want rank %d's %v", err, c.want, sentinel)
			}
		})
	}
}

func TestPanicBecomesError(t *testing.T) {
	_, err := Run(2, fakeFactory, simtime.NetModel{}, func(rank int, p mpi.Proc, clock *simtime.Clock) error {
		if rank == 0 {
			panic("kaboom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("panic swallowed")
	}
}

func TestFailureClosesFabric(t *testing.T) {
	j := New(2, 0, fakeFactory, simtime.NetModel{})
	j.Start(func(rank int, p mpi.Proc, clock *simtime.Clock) error {
		if rank == 0 {
			return errors.New("dead rank")
		}
		// Rank 1 blocks on a message that will never come; the fabric
		// close must wake it instead of hanging the job.
		_, err := j.Fabric.Endpoint(1).Recv(transport.Match{Context: 1, Src: 0, Tag: 0})
		if err == nil {
			return errors.New("blocked recv returned a message")
		}
		return nil
	})
	done := make(chan struct{})
	go func() {
		_, _ = j.WaitResult()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("job hung after rank failure")
	}
}

// ringBody returns a RankFn passing one message around the ring through
// the job's fabric, advancing each rank's clock per hop.
func ringBody(j *Job, n, rounds int) RankFn {
	return func(rank int, p mpi.Proc, clock *simtime.Clock) error {
		ep := j.Fabric.Endpoint(rank)
		next, prev := (rank+1)%n, (rank+n-1)%n
		for i := 0; i < rounds; i++ {
			if err := ep.Send(next, 1, i, []byte{byte(rank)}, clock.Now()); err != nil {
				return err
			}
			msg, err := ep.Recv(transport.Match{Context: 1, Src: prev, Tag: i})
			if err != nil {
				return err
			}
			if msg.Src != prev {
				return errors.New("ring message from wrong rank")
			}
			clock.Advance(time.Millisecond)
		}
		return nil
	}
}

// TestEventKernelRunsRing runs a multi-round ring twice: every rank
// ends at exactly rounds hops of virtual time, and the second run
// reproduces the first.
func TestEventKernelRunsRing(t *testing.T) {
	const n, rounds = 8, 20
	net := simtime.NetModel{Latency: 10 * time.Microsecond, PerKB: time.Microsecond}
	run := func() Result {
		j := New(n, 0, fakeFactory, net)
		j.Start(ringBody(j, n, rounds))
		res, err := j.WaitResult()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first, second := run(), run()
	for r := range first.PerRankVT {
		if first.PerRankVT[r] != rounds*time.Millisecond {
			t.Fatalf("rank %d VT %v, want %v", r, first.PerRankVT[r], rounds*time.Millisecond)
		}
		if second.PerRankVT[r] != first.PerRankVT[r] {
			t.Fatalf("rank %d VT: first run %v, second %v", r, first.PerRankVT[r], second.PerRankVT[r])
		}
	}
}

// TestEventKernelDetectsDeadlock: every rank blocks on a message nobody
// sends. The kernel must detect the stall, tear the fabric down, and
// report a wrapped ErrClosed instead of hanging.
func TestEventKernelDetectsDeadlock(t *testing.T) {
	j := New(2, 0, fakeFactory, simtime.NetModel{})
	j.Start(func(rank int, p mpi.Proc, clock *simtime.Clock) error {
		_, err := j.Fabric.Endpoint(rank).Recv(transport.Match{Context: 1, Src: transport.AnySource, Tag: 0})
		return err
	})
	done := make(chan error, 1)
	go func() {
		_, err := j.WaitResult()
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, transport.ErrClosed) {
			t.Fatalf("deadlock error %v, want ErrClosed", err)
		}
		if !strings.Contains(err.Error(), "deadlock") {
			t.Fatalf("error does not name the deadlock: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("event kernel did not detect the deadlock")
	}
}

// TestEventKernelScales1024 is the scale smoke: a 1024-rank ring round
// completes quickly because idle ranks cost no scheduler time.
func TestEventKernelScales1024(t *testing.T) {
	if testing.Short() {
		t.Skip("scale smoke")
	}
	const n = 1024
	j := New(n, 0, fakeFactory, simtime.NetModel{Latency: time.Microsecond})
	j.Start(ringBody(j, n, 2))
	res, err := j.WaitResult()
	if err != nil {
		t.Fatal(err)
	}
	if res.VT == 0 {
		t.Fatal("ring advanced no virtual time")
	}
}

func TestAbortInstalled(t *testing.T) {
	j := New(1, 0, fakeFactory, simtime.NetModel{})
	fp := j.Procs[0].(*fakeProc)
	if fp.abort == nil {
		t.Fatal("abort hook not installed")
	}
	fp.abort(1) // must close the fabric
	if err := j.Fabric.Endpoint(0).Send(0, 1, 0, nil, 0); err == nil {
		t.Fatal("fabric alive after abort")
	}
	j.Start(func(rank int, p mpi.Proc, clock *simtime.Clock) error { return nil })
	if _, err := j.WaitResult(); err != nil {
		t.Fatal(err)
	}
}

// TestStallDiagnosticReportsPhases: when the event kernel detects a
// deadlock, the error names each parked rank's last reported
// drain-protocol phase; ranks whose phase is cleared or "done" are
// omitted.
func TestStallDiagnosticReportsPhases(t *testing.T) {
	j := New(3, 0, fakeFactory, simtime.NetModel{})
	j.Start(func(rank int, p mpi.Proc, clock *simtime.Clock) error {
		switch rank {
		case 0:
			j.SetRankPhase(0, "twophase:exchange")
		case 1:
			j.SetRankPhase(1, "toposort:drain rows=2/3 outstanding=1")
		case 2:
			j.SetRankPhase(2, "done")
		}
		_, err := j.Fabric.Endpoint(rank).Recv(transport.Match{Context: 1, Src: transport.AnySource, Tag: 0})
		return err
	})
	_, err := j.WaitResult()
	if err == nil {
		t.Fatal("deadlocked job reported success")
	}
	msg := err.Error()
	for _, want := range []string{"rank 0: twophase:exchange", "rank 1: toposort:drain rows=2/3 outstanding=1"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("diagnostic %q missing %q", msg, want)
		}
	}
	if strings.Contains(msg, "rank 2") {
		t.Fatalf("diagnostic %q includes the finished rank", msg)
	}
}

// TestStallDiagnosticWithoutPhases: a deadlock outside any drain keeps
// the fallback wording instead of an empty phase list.
func TestStallDiagnosticWithoutPhases(t *testing.T) {
	j := New(2, 0, fakeFactory, simtime.NetModel{})
	j.Start(func(rank int, p mpi.Proc, clock *simtime.Clock) error {
		_, err := j.Fabric.Endpoint(rank).Recv(transport.Match{Context: 1, Src: transport.AnySource, Tag: 0})
		return err
	})
	_, err := j.WaitResult()
	if err == nil || !strings.Contains(err.Error(), "no rank reported a drain phase") {
		t.Fatalf("fallback wording missing: %v", err)
	}
}
