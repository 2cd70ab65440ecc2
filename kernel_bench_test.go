package manasim

import (
	"fmt"
	"testing"
	"time"

	"manasim/internal/cluster"
	"manasim/internal/mpi"
	"manasim/internal/simtime"
	"manasim/internal/transport"
)

// benchProc is a no-op lower half: the kernel scale benchmark measures
// scheduler cost, not MPI semantics, so ranks talk to the fabric
// directly and the proc is never called.
type benchProc struct{ mpi.Proc }

func benchFactory(fab *transport.Fabric, rank int, clock *simtime.Clock, net simtime.NetModel) mpi.Proc {
	return benchProc{}
}

// tokenRing returns a RankFn circulating one token around the ring for
// a fixed total hop budget, independent of the rank count. The token
// value counts down from hops+n-1: values >= n are work hops (1 ms of
// virtual compute each), and the final n values are the shutdown lap
// that retires every rank exactly once. Because total work is constant,
// wall time across rank counts isolates the kernel's scheduling cost:
// a kernel whose idle ranks are free stays flat as ranks grow.
func tokenRing(j *cluster.Job, n, hops int) cluster.RankFn {
	return func(rank int, _ mpi.Proc, clock *simtime.Clock) error {
		ep := j.Fabric.Endpoint(rank)
		next, prev := (rank+1)%n, (rank+n-1)%n
		send := func(v int64) error {
			return ep.Send(next, 1, 0, mpi.Int64Bytes([]int64{v}), clock.Now())
		}
		if rank == 0 {
			if err := send(int64(hops + n - 1)); err != nil {
				return err
			}
		}
		for {
			msg, err := ep.Recv(transport.Match{Context: 1, Src: prev, Tag: 0})
			if err != nil {
				return err
			}
			v := mpi.Int64s(msg.Payload)[0]
			if v >= int64(n) {
				clock.Advance(time.Millisecond)
				if err := send(v - 1); err != nil {
					return err
				}
				continue
			}
			if v > 0 {
				return send(v - 1)
			}
			return nil
		}
	}
}

// BenchmarkKernelScale passes a token through rings of 16 to 1024
// ranks with a fixed total hop budget. Per-iteration wall should grow
// far slower than the rank count, because parked ranks consume no
// scheduler time.
func BenchmarkKernelScale(b *testing.B) {
	const hops = 4096
	net := simtime.NetModel{Latency: time.Microsecond}
	for _, n := range []int{16, 64, 256, 1024} {
		b.Run(fmt.Sprintf("ranks=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				j := cluster.New(n, benchFactory, net)
				j.Start(tokenRing(j, n, hops))
				res, err := j.WaitResult()
				if err != nil {
					b.Fatal(err)
				}
				// Work hops are spread evenly, so each rank's clock
				// advances hops/n milliseconds.
				if want := time.Duration(hops/n) * time.Millisecond; res.VT < want {
					b.Fatalf("ring VT %v, want >= %v", res.VT, want)
				}
			}
			b.ReportMetric(float64(n), "ranks")
		})
	}
}
