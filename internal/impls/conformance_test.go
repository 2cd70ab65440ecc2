package impls

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"manasim/internal/cluster"
	"manasim/internal/mpi"
	"manasim/internal/simtime"
)

// testNet is a fast deterministic network model for conformance tests.
var testNet = simtime.NetModel{
	Latency:  time.Microsecond,
	Overhead: 100 * time.Nanosecond,
	PerKB:    100 * time.Nanosecond,
}

// forEachImpl runs a subtest against every registered implementation.
// classOf extracts the MPI error class err carries, or ErrOther.
func classOf(err error) mpi.ErrClass {
	var me *mpi.Error
	if errors.As(err, &me) {
		return me.Class
	}
	return mpi.ErrOther
}

func forEachImpl(t *testing.T, fn func(t *testing.T, name string, factory Factory)) {
	t.Helper()
	for _, name := range Names() {
		factory, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			fn(t, name, factory)
		})
	}
}

// run launches a job and fails the test on error.
func run(t *testing.T, factory Factory, n int, fn cluster.RankFn) cluster.Result {
	t.Helper()
	res, err := cluster.Run(n, factory, testNet, fn)
	if err != nil {
		t.Fatalf("job failed: %v", err)
	}
	return res
}

// consts resolves the constants a test needs, failing loudly.
func consts(t *testing.T, p mpi.Proc, names ...mpi.ConstName) map[mpi.ConstName]mpi.Handle {
	t.Helper()
	out := make(map[mpi.ConstName]mpi.Handle, len(names))
	for _, n := range names {
		h, err := p.LookupConst(n)
		if err != nil {
			t.Fatalf("LookupConst(%v): %v", n, err)
		}
		out[n] = h
	}
	return out
}

func TestRingSendRecv(t *testing.T) {
	forEachImpl(t, func(t *testing.T, name string, factory Factory) {
		const n = 8
		run(t, factory, n, func(rank int, p mpi.Proc, clock *simtime.Clock) error {
			c := consts(t, p, mpi.ConstCommWorld, mpi.ConstInt64)
			world, i64 := c[mpi.ConstCommWorld], c[mpi.ConstInt64]
			next, prev := (rank+1)%n, (rank-1+n)%n

			out := mpi.Int64Bytes([]int64{int64(rank * 100)})
			if err := p.Send(out, 1, i64, next, 7, world); err != nil {
				return err
			}
			in := make([]byte, 8)
			st, err := p.Recv(in, 1, i64, prev, 7, world)
			if err != nil {
				return err
			}
			if got := mpi.Int64s(in)[0]; got != int64(prev*100) {
				return fmt.Errorf("got %d from %d, want %d", got, st.Source, prev*100)
			}
			if st.Source != prev || st.Tag != 7 || st.Bytes != 8 {
				return fmt.Errorf("bad status %+v", st)
			}
			return nil
		})
	})
}

func TestAnySourceAnyTag(t *testing.T) {
	forEachImpl(t, func(t *testing.T, name string, factory Factory) {
		const n = 4
		run(t, factory, n, func(rank int, p mpi.Proc, clock *simtime.Clock) error {
			c := consts(t, p, mpi.ConstCommWorld, mpi.ConstByte)
			world, byt := c[mpi.ConstCommWorld], c[mpi.ConstByte]
			if rank != 0 {
				return p.Send([]byte{byte(rank)}, 1, byt, 0, rank*10, world)
			}
			seen := map[byte]bool{}
			for i := 0; i < n-1; i++ {
				in := make([]byte, 1)
				st, err := p.Recv(in, 1, byt, mpi.AnySource, mpi.AnyTag, world)
				if err != nil {
					return err
				}
				if st.Tag != st.Source*10 {
					return fmt.Errorf("status mismatch: %+v", st)
				}
				if in[0] != byte(st.Source) {
					return fmt.Errorf("payload %d from %d", in[0], st.Source)
				}
				seen[in[0]] = true
			}
			if len(seen) != n-1 {
				return fmt.Errorf("saw %d distinct senders, want %d", len(seen), n-1)
			}
			return nil
		})
	})
}

func TestIsendIrecvWaitTest(t *testing.T) {
	forEachImpl(t, func(t *testing.T, name string, factory Factory) {
		run(t, factory, 2, func(rank int, p mpi.Proc, clock *simtime.Clock) error {
			c := consts(t, p, mpi.ConstCommWorld, mpi.ConstFloat64)
			world, f64 := c[mpi.ConstCommWorld], c[mpi.ConstFloat64]
			if rank == 0 {
				req, err := p.Isend(mpi.Float64Bytes([]float64{3.5, -1.25}), 2, f64, 1, 3, world)
				if err != nil {
					return err
				}
				if _, err := p.Wait(req); err != nil {
					return err
				}
				// The request handle must be freed by Wait.
				if _, err := p.Wait(req); err == nil {
					return errors.New("wait on completed+freed request should fail")
				}
				return nil
			}
			in := make([]byte, 16)
			req, err := p.Irecv(in, 2, f64, 0, 3, world)
			if err != nil {
				return err
			}
			// Poll with Test until completion (MANA's own pattern).
			for {
				done, st, err := p.Test(req)
				if err != nil {
					return err
				}
				if done {
					if st.Bytes != 16 {
						return fmt.Errorf("bytes=%d", st.Bytes)
					}
					break
				}
			}
			v := mpi.Float64s(in)
			if v[0] != 3.5 || v[1] != -1.25 {
				return fmt.Errorf("payload %v", v)
			}
			return nil
		})
	})
}

func TestProbeAndIprobe(t *testing.T) {
	forEachImpl(t, func(t *testing.T, name string, factory Factory) {
		run(t, factory, 2, func(rank int, p mpi.Proc, clock *simtime.Clock) error {
			c := consts(t, p, mpi.ConstCommWorld, mpi.ConstByte)
			world, byt := c[mpi.ConstCommWorld], c[mpi.ConstByte]
			if rank == 0 {
				return p.Send([]byte{1, 2, 3}, 3, byt, 1, 9, world)
			}
			// Blocking probe sees the message without consuming it.
			st, err := p.Probe(0, 9, world)
			if err != nil {
				return err
			}
			if st.Bytes != 3 || st.Source != 0 || st.Tag != 9 {
				return fmt.Errorf("probe status %+v", st)
			}
			ok, st2, err := p.Iprobe(mpi.AnySource, mpi.AnyTag, world)
			if err != nil {
				return err
			}
			if !ok || st2.Bytes != 3 {
				return fmt.Errorf("iprobe ok=%v st=%+v", ok, st2)
			}
			in := make([]byte, 3)
			if _, err := p.Recv(in, 3, byt, 0, 9, world); err != nil {
				return err
			}
			// Now the mailbox is empty.
			ok, _, err = p.Iprobe(mpi.AnySource, mpi.AnyTag, world)
			if err != nil {
				return err
			}
			if ok {
				return errors.New("iprobe found message after receive")
			}
			return nil
		})
	})
}

// TestIprobeCausality pins the virtual-time visibility contract for
// probes: a message sent by a rank whose clock has run far ahead must not
// be observable by a nonblocking Iprobe until the receiver's own clock
// reaches the send timestamp, while a blocking Probe waits in virtual
// time — it advances the receiver's clock to the earliest matching
// arrival and reports it. Without the gate, an Iprobe on a lagging rank
// could observe its virtual future and a subsequent Recv would drag the
// rank's clock forward, inflating every downstream timestamp (observed
// as preemption checkpoint cuts landing at request+target virtual times
// under the event kernel).
func TestIprobeCausality(t *testing.T) {
	forEachImpl(t, func(t *testing.T, name string, factory Factory) {
		const ahead = time.Second
		sent := make(chan struct{})
		run(t, factory, 2, func(rank int, p mpi.Proc, clock *simtime.Clock) error {
			c := consts(t, p, mpi.ConstCommWorld, mpi.ConstByte)
			world, byt := c[mpi.ConstCommWorld], c[mpi.ConstByte]
			if rank == 0 {
				// Simulate a decoupled rank that ran far ahead before sending.
				clock.MergeAtLeast(ahead)
				if err := p.Send([]byte{7}, 1, byt, 1, 3, world); err != nil {
					return err
				}
				close(sent)
				return nil
			}
			// Host-side ordering only: guarantees the message is queued
			// before rank 1 probes, without touching its virtual clock.
			<-sent
			if now := clock.Now(); now >= ahead {
				return fmt.Errorf("receiver clock already at %v before probing", now)
			}
			ok, _, err := p.Iprobe(0, 3, world)
			if err != nil {
				return err
			}
			if ok {
				return errors.New("Iprobe saw a message from the receiver's virtual future")
			}
			st, err := p.Probe(0, 3, world)
			if err != nil {
				return err
			}
			if st.Source != 0 || st.Tag != 3 || st.Bytes != 1 {
				return fmt.Errorf("probe status %+v", st)
			}
			if now := clock.Now(); now < ahead {
				return fmt.Errorf("blocking Probe returned at %v without advancing to the arrival", now)
			}
			// The arrival is in the receiver's present now, so Iprobe sees it.
			ok, _, err = p.Iprobe(0, 3, world)
			if err != nil {
				return err
			}
			if !ok {
				return errors.New("Iprobe missed a message in the receiver's virtual present")
			}
			in := make([]byte, 1)
			_, err = p.Recv(in, 1, byt, 0, 3, world)
			return err
		})
	})
}

func TestCollectivesNumeric(t *testing.T) {
	forEachImpl(t, func(t *testing.T, name string, factory Factory) {
		const n = 7 // deliberately not a power of two
		run(t, factory, n, func(rank int, p mpi.Proc, clock *simtime.Clock) error {
			c := consts(t, p, mpi.ConstCommWorld, mpi.ConstFloat64, mpi.ConstInt64,
				mpi.ConstOpSum, mpi.ConstOpMax, mpi.ConstOpMin)
			world := c[mpi.ConstCommWorld]
			f64, i64 := c[mpi.ConstFloat64], c[mpi.ConstInt64]

			// Barrier completes.
			if err := p.Barrier(world); err != nil {
				return err
			}

			// Bcast from a non-zero root.
			buf := make([]byte, 24)
			if rank == 2 {
				mpi.PutFloat64s(buf, []float64{1, 2, 3})
			}
			if err := p.Bcast(buf, 3, f64, 2, world); err != nil {
				return err
			}
			if got := mpi.Float64s(buf); got[0] != 1 || got[1] != 2 || got[2] != 3 {
				return fmt.Errorf("bcast got %v", got)
			}

			// Allreduce SUM of rank ids: n*(n-1)/2.
			send := mpi.Int64Bytes([]int64{int64(rank), int64(rank * rank)})
			recv := make([]byte, 16)
			if err := p.Allreduce(send, recv, 2, i64, c[mpi.ConstOpSum], world); err != nil {
				return err
			}
			got := mpi.Int64s(recv)
			wantSum, wantSq := int64(0), int64(0)
			for r := 0; r < n; r++ {
				wantSum += int64(r)
				wantSq += int64(r * r)
			}
			if got[0] != wantSum || got[1] != wantSq {
				return fmt.Errorf("allreduce got %v want [%d %d]", got, wantSum, wantSq)
			}

			// Reduce MAX at root 3.
			send = mpi.Int64Bytes([]int64{int64(rank * 7 % 5)})
			recv = make([]byte, 8)
			if err := p.Reduce(send, recv, 1, i64, c[mpi.ConstOpMax], 3, world); err != nil {
				return err
			}
			if rank == 3 {
				want := int64(0)
				for r := 0; r < n; r++ {
					if v := int64(r * 7 % 5); v > want {
						want = v
					}
				}
				if mpi.Int64s(recv)[0] != want {
					return fmt.Errorf("reduce max got %d want %d", mpi.Int64s(recv)[0], want)
				}
			}

			// Allreduce MIN on float64.
			fsend := mpi.Float64Bytes([]float64{float64(rank) - 2.5})
			frecv := make([]byte, 8)
			if err := p.Allreduce(fsend, frecv, 1, f64, c[mpi.ConstOpMin], world); err != nil {
				return err
			}
			if got := mpi.Float64s(frecv)[0]; got != -2.5 {
				return fmt.Errorf("allreduce min got %v", got)
			}
			return nil
		})
	})
}

func TestAlltoall(t *testing.T) {
	forEachImpl(t, func(t *testing.T, name string, factory Factory) {
		const n = 5
		run(t, factory, n, func(rank int, p mpi.Proc, clock *simtime.Clock) error {
			c := consts(t, p, mpi.ConstCommWorld, mpi.ConstInt64)
			world, i64 := c[mpi.ConstCommWorld], c[mpi.ConstInt64]
			// Block for destination d holds rank*1000 + d.
			send := make([]int64, n)
			for d := range send {
				send[d] = int64(rank*1000 + d)
			}
			recv := make([]byte, 8*n)
			if err := p.Alltoall(mpi.Int64Bytes(send), 1, i64, recv, 1, i64, world); err != nil {
				return err
			}
			got := mpi.Int64s(recv)
			for s := 0; s < n; s++ {
				if got[s] != int64(s*1000+rank) {
					return fmt.Errorf("block from %d: got %d want %d", s, got[s], s*1000+rank)
				}
			}
			return nil
		})
	})
}

func TestGatherScatterAllgather(t *testing.T) {
	forEachImpl(t, func(t *testing.T, name string, factory Factory) {
		const n = 6
		p0, _ := Get(name)
		_ = p0
		supports := name != "exampi"
		res, err := cluster.Run(n, factory, testNet, func(rank int, p mpi.Proc, clock *simtime.Clock) error {
			c := consts(t, p, mpi.ConstCommWorld, mpi.ConstInt32)
			world, i32 := c[mpi.ConstCommWorld], c[mpi.ConstInt32]

			send := mpi.Int32Bytes([]int32{int32(rank + 1)})
			recv := make([]byte, 4*n)
			err := p.Gather(send, 1, i32, recv, 1, i32, 0, world)
			if !supports {
				if err == nil {
					return errors.New("exampi Gather should be unsupported")
				}
				if cls := classOf(err); cls != mpi.ErrUnsupported {
					return fmt.Errorf("wrong error class %v", cls)
				}
				return nil
			}
			if err != nil {
				return err
			}
			if rank == 0 {
				got := mpi.Int32s(recv)
				for r := 0; r < n; r++ {
					if got[r] != int32(r+1) {
						return fmt.Errorf("gather slot %d = %d", r, got[r])
					}
				}
			}

			// Scatter back doubled values.
			var src []byte
			if rank == 0 {
				v := make([]int32, n)
				for r := range v {
					v[r] = int32(2 * (r + 1))
				}
				src = mpi.Int32Bytes(v)
			} else {
				src = make([]byte, 4*n)
			}
			dst := make([]byte, 4)
			if err := p.Scatter(src, 1, i32, dst, 1, i32, 0, world); err != nil {
				return err
			}
			if got := mpi.Int32s(dst)[0]; got != int32(2*(rank+1)) {
				return fmt.Errorf("scatter got %d", got)
			}

			// Allgather.
			all := make([]byte, 4*n)
			if err := p.Allgather(send, 1, i32, all, 1, i32, world); err != nil {
				return err
			}
			got := mpi.Int32s(all)
			for r := 0; r < n; r++ {
				if got[r] != int32(r+1) {
					return fmt.Errorf("allgather slot %d = %d", r, got[r])
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("job failed: %v", err)
		}
		_ = res
	})
}

func TestCommSplitAndIsolation(t *testing.T) {
	forEachImpl(t, func(t *testing.T, name string, factory Factory) {
		const n = 8
		run(t, factory, n, func(rank int, p mpi.Proc, clock *simtime.Clock) error {
			c := consts(t, p, mpi.ConstCommWorld, mpi.ConstInt64, mpi.ConstOpSum)
			world, i64 := c[mpi.ConstCommWorld], c[mpi.ConstInt64]

			// Split into even/odd; key reverses order within each half.
			sub, err := p.CommSplit(world, rank%2, -rank)
			if err != nil {
				return err
			}
			size, err := p.CommSize(sub)
			if err != nil {
				return err
			}
			if size != n/2 {
				return fmt.Errorf("sub size %d", size)
			}
			myRank, err := p.CommRank(sub)
			if err != nil {
				return err
			}
			// Keys are -rank: highest world rank gets sub-rank 0.
			wantRank := (n - 2 - rank + rank%2) / 2
			if myRank != wantRank {
				return fmt.Errorf("sub rank %d, want %d", myRank, wantRank)
			}

			// Allreduce within the sub-communicator only.
			send := mpi.Int64Bytes([]int64{int64(rank)})
			recv := make([]byte, 8)
			if err := p.Allreduce(send, recv, 1, i64, c[mpi.ConstOpSum], sub); err != nil {
				return err
			}
			want := int64(0)
			for r := rank % 2; r < n; r += 2 {
				want += int64(r)
			}
			if got := mpi.Int64s(recv)[0]; got != want {
				return fmt.Errorf("sub allreduce got %d want %d", got, want)
			}

			// Point-to-point on world must not interfere with sub.
			if err := p.CommFree(sub); err != nil {
				return err
			}
			// Double free must fail.
			if err := p.CommFree(sub); err == nil {
				return errors.New("double CommFree succeeded")
			}
			return nil
		})
	})
}

func TestCommDupIsolation(t *testing.T) {
	forEachImpl(t, func(t *testing.T, name string, factory Factory) {
		run(t, factory, 2, func(rank int, p mpi.Proc, clock *simtime.Clock) error {
			c := consts(t, p, mpi.ConstCommWorld, mpi.ConstByte)
			world, byt := c[mpi.ConstCommWorld], c[mpi.ConstByte]
			dup, err := p.CommDup(world)
			if err != nil {
				return err
			}
			if rank == 0 {
				// Same tag, different communicators: matching must be
				// scoped by communicator context.
				if err := p.Send([]byte{11}, 1, byt, 1, 5, world); err != nil {
					return err
				}
				if err := p.Send([]byte{22}, 1, byt, 1, 5, dup); err != nil {
					return err
				}
				return nil
			}
			in := make([]byte, 1)
			// Receive on dup first: must get the dup message, not the
			// earlier world message.
			if _, err := p.Recv(in, 1, byt, 0, 5, dup); err != nil {
				return err
			}
			if in[0] != 22 {
				return fmt.Errorf("dup recv got %d", in[0])
			}
			if _, err := p.Recv(in, 1, byt, 0, 5, world); err != nil {
				return err
			}
			if in[0] != 11 {
				return fmt.Errorf("world recv got %d", in[0])
			}
			return nil
		})
	})
}

func TestGroupsAndCommCreate(t *testing.T) {
	forEachImpl(t, func(t *testing.T, name string, factory Factory) {
		const n = 6
		run(t, factory, n, func(rank int, p mpi.Proc, clock *simtime.Clock) error {
			c := consts(t, p, mpi.ConstCommWorld, mpi.ConstInt64, mpi.ConstOpSum)
			world := c[mpi.ConstCommWorld]
			wg, err := p.CommGroup(world)
			if err != nil {
				return err
			}
			gsize, err := p.GroupSize(wg)
			if err != nil {
				return err
			}
			if gsize != n {
				return fmt.Errorf("world group size %d", gsize)
			}

			// Subgroup of the first half, reversed.
			ranks := []int{2, 1, 0}
			sub, err := p.GroupIncl(wg, ranks)
			if err != nil {
				return err
			}
			tr := make([]int, 3)
			if err := p.GroupTranslateRanks(sub, []int{0, 1, 2}, wg, tr); err != nil {
				return err
			}
			if tr[0] != 2 || tr[1] != 1 || tr[2] != 0 {
				return fmt.Errorf("translate got %v", tr)
			}

			// CommCreate: all world ranks call; only members get a comm.
			sc, err := p.CommCreate(world, sub)
			if err != nil {
				return err
			}
			if rank <= 2 {
				if sc == mpi.HandleNull {
					return errors.New("member got null comm")
				}
				r, err := p.CommRank(sc)
				if err != nil {
					return err
				}
				if r != 2-rank {
					return fmt.Errorf("comm-create rank %d want %d", r, 2-rank)
				}
				// Sum of world ranks 0..2 over the new comm.
				recv := make([]byte, 8)
				if err := p.Allreduce(mpi.Int64Bytes([]int64{int64(rank)}), recv, 1,
					c[mpi.ConstInt64], c[mpi.ConstOpSum], sc); err != nil {
					return err
				}
				if got := mpi.Int64s(recv)[0]; got != 3 {
					return fmt.Errorf("subcomm allreduce got %d", got)
				}
			} else if sc != mpi.HandleNull {
				return errors.New("non-member got a comm")
			}

			if err := p.GroupFree(sub); err != nil {
				return err
			}
			if err := p.GroupFree(wg); err != nil {
				return err
			}
			return nil
		})
	})
}

func TestDerivedDatatypes(t *testing.T) {
	forEachImpl(t, func(t *testing.T, name string, factory Factory) {
		hasVector := name != "exampi"
		run(t, factory, 2, func(rank int, p mpi.Proc, clock *simtime.Clock) error {
			c := consts(t, p, mpi.ConstCommWorld, mpi.ConstFloat64)
			world, f64 := c[mpi.ConstCommWorld], c[mpi.ConstFloat64]

			// Contiguous works everywhere.
			cont, err := p.TypeContiguous(3, f64)
			if err != nil {
				return err
			}
			if err := p.TypeCommit(cont); err != nil {
				return err
			}
			sz, err := p.TypeSize(cont)
			if err != nil {
				return err
			}
			if sz != 24 {
				return fmt.Errorf("contiguous size %d", sz)
			}

			if rank == 0 {
				if err := p.Send(mpi.Float64Bytes([]float64{1, 2, 3}), 1, cont, 1, 0, world); err != nil {
					return err
				}
			} else {
				in := make([]byte, 24)
				if _, err := p.Recv(in, 1, cont, 0, 0, world); err != nil {
					return err
				}
				if got := mpi.Float64s(in); got[2] != 3 {
					return fmt.Errorf("contiguous payload %v", got)
				}
			}

			// Vector: every other element from a 6-element buffer.
			vec, err := p.TypeVector(3, 1, 2, f64)
			if !hasVector {
				if err == nil {
					return errors.New("exampi TypeVector should fail")
				}
				return p.TypeFree(cont)
			}
			if err != nil {
				return err
			}
			if err := p.TypeCommit(vec); err != nil {
				return err
			}
			if rank == 0 {
				src := mpi.Float64Bytes([]float64{10, -1, 20, -1, 30, -1})
				if err := p.Send(src, 1, vec, 1, 1, world); err != nil {
					return err
				}
			} else {
				// Receive into a strided buffer through the same type.
				dst := mpi.Float64Bytes([]float64{0, 99, 0, 99, 0, 99})
				if _, err := p.Recv(dst, 1, vec, 0, 1, world); err != nil {
					return err
				}
				got := mpi.Float64s(dst)
				want := []float64{10, 99, 20, 99, 30, 99}
				for i := range want {
					if got[i] != want[i] {
						return fmt.Errorf("vector recv %v want %v", got, want)
					}
				}
			}

			// Envelope/contents describe the constructor (MANA's restart
			// decode path, paper Section 5 category 2).
			env, err := p.TypeGetEnvelope(vec)
			if err != nil {
				return err
			}
			if env.Combiner != mpi.CombinerVector || env.NumInts != 3 || env.NumDatatypes != 1 {
				return fmt.Errorf("envelope %+v", env)
			}
			cts, err := p.TypeGetContents(vec)
			if err != nil {
				return err
			}
			if cts.Ints[0] != 3 || cts.Ints[1] != 1 || cts.Ints[2] != 2 {
				return fmt.Errorf("contents ints %v", cts.Ints)
			}
			// The base datatype handle must resolve to MPI_DOUBLE.
			bsz, err := p.TypeSize(cts.Datatypes[0])
			if err != nil {
				return err
			}
			if bsz != 8 {
				return fmt.Errorf("base size %d", bsz)
			}

			if err := p.TypeFree(vec); err != nil {
				return err
			}
			return p.TypeFree(cont)
		})
	})
}

func TestUserOps(t *testing.T) {
	forEachImpl(t, func(t *testing.T, name string, factory Factory) {
		const n = 4
		run(t, factory, n, func(rank int, p mpi.Proc, clock *simtime.Clock) error {
			c := consts(t, p, mpi.ConstCommWorld, mpi.ConstInt64)
			world, i64 := c[mpi.ConstCommWorld], c[mpi.ConstInt64]
			// "Rightmost operand wins": associative but not commutative,
			// so the result exposes whether the tree keeps ascending rank
			// order in every combine (inout = lower ranks, in = higher).
			rightmost := func(in, inout []byte, count, elemSize int) {
				copy(inout, in[:count*elemSize])
			}
			op, err := p.OpCreate(rightmost, false)
			if err != nil {
				return err
			}
			recv := make([]byte, 8)
			if err := p.Reduce(mpi.Int64Bytes([]int64{int64(rank + 5)}), recv, 1, i64, op, 0, world); err != nil {
				return err
			}
			if rank == 0 {
				if got := mpi.Int64s(recv)[0]; got != int64(n-1+5) {
					return fmt.Errorf("user op got %d want %d (operand order violated)", got, n-1+5)
				}
			}
			return p.OpFree(op)
		})
	})
}

func TestSelfSendAndCommSelf(t *testing.T) {
	forEachImpl(t, func(t *testing.T, name string, factory Factory) {
		run(t, factory, 2, func(rank int, p mpi.Proc, clock *simtime.Clock) error {
			c := consts(t, p, mpi.ConstCommSelf, mpi.ConstByte)
			self, byt := c[mpi.ConstCommSelf], c[mpi.ConstByte]
			sz, err := p.CommSize(self)
			if err != nil {
				return err
			}
			if sz != 1 {
				return fmt.Errorf("self size %d", sz)
			}
			if err := p.Send([]byte{42}, 1, byt, 0, 0, self); err != nil {
				return err
			}
			in := make([]byte, 1)
			if _, err := p.Recv(in, 1, byt, 0, 0, self); err != nil {
				return err
			}
			if in[0] != 42 {
				return fmt.Errorf("self recv %d", in[0])
			}
			return nil
		})
	})
}

func TestTruncationError(t *testing.T) {
	forEachImpl(t, func(t *testing.T, name string, factory Factory) {
		run(t, factory, 2, func(rank int, p mpi.Proc, clock *simtime.Clock) error {
			c := consts(t, p, mpi.ConstCommWorld, mpi.ConstByte)
			world, byt := c[mpi.ConstCommWorld], c[mpi.ConstByte]
			if rank == 0 {
				return p.Send(make([]byte, 100), 100, byt, 1, 0, world)
			}
			in := make([]byte, 10)
			_, err := p.Recv(in, 10, byt, 0, 0, world)
			if err == nil {
				return errors.New("truncated receive succeeded")
			}
			if cls := classOf(err); cls != mpi.ErrTruncate {
				return fmt.Errorf("error class %v", cls)
			}
			return nil
		})
	})
}

func TestBadRankErrors(t *testing.T) {
	forEachImpl(t, func(t *testing.T, name string, factory Factory) {
		run(t, factory, 2, func(rank int, p mpi.Proc, clock *simtime.Clock) error {
			c := consts(t, p, mpi.ConstCommWorld, mpi.ConstByte)
			world, byt := c[mpi.ConstCommWorld], c[mpi.ConstByte]
			err := p.Send([]byte{1}, 1, byt, 5, 0, world)
			if cls := classOf(err); cls != mpi.ErrRank {
				return fmt.Errorf("send to rank 5: class %v err %v", cls, err)
			}
			err = p.Send([]byte{1}, 1, byt, 0, -3, world)
			if cls := classOf(err); cls != mpi.ErrTag {
				return fmt.Errorf("negative tag: class %v err %v", cls, err)
			}
			// ProcNull send/recv are no-ops.
			if err := p.Send([]byte{1}, 1, byt, mpi.ProcNull, 0, world); err != nil {
				return err
			}
			st, err := p.Recv(nil, 0, byt, mpi.ProcNull, 0, world)
			if err != nil {
				return err
			}
			if st.Source != mpi.ProcNull {
				return fmt.Errorf("procnull recv status %+v", st)
			}
			return nil
		})
	})
}

func TestVirtualTimeAdvances(t *testing.T) {
	forEachImpl(t, func(t *testing.T, name string, factory Factory) {
		res := run(t, factory, 2, func(rank int, p mpi.Proc, clock *simtime.Clock) error {
			c := consts(t, p, mpi.ConstCommWorld, mpi.ConstByte)
			world, byt := c[mpi.ConstCommWorld], c[mpi.ConstByte]
			if rank == 0 {
				return p.Send(make([]byte, 4096), 4096, byt, 1, 0, world)
			}
			_, err := p.Recv(make([]byte, 4096), 4096, byt, 0, 0, world)
			return err
		})
		// The receiver must be charged at least the wire latency plus
		// four KB of serialization.
		min := testNet.Latency + 4*testNet.PerKB
		if res.VT < min {
			t.Fatalf("job VT %v < minimum %v", res.VT, min)
		}
	})
}

func TestHandleRepresentationsDiffer(t *testing.T) {
	// The same logical object (MPI_COMM_WORLD) must have the
	// implementation-specific representations the paper describes.
	grab := func(name string) mpi.Handle {
		factory, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		var h mpi.Handle
		_, err = cluster.Run(1, factory, testNet, func(rank int, p mpi.Proc, clock *simtime.Clock) error {
			var e error
			h, e = p.LookupConst(mpi.ConstCommWorld)
			return e
		})
		if err != nil {
			t.Fatal(err)
		}
		return h
	}

	mpichH := grab("mpich")
	crayH := grab("craympi")
	ompiH := grab("openmpi")
	exaH := grab("exampi")

	// MPICH-family handles fit in 32 bits; Open MPI and ExaMPI comm
	// handles are pointer-sized.
	if mpichH>>32 != 0 {
		t.Errorf("mpich handle %#x is not 32-bit", uint64(mpichH))
	}
	if crayH>>32 != 0 {
		t.Errorf("craympi handle %#x is not 32-bit", uint64(crayH))
	}
	if ompiH>>32 == 0 {
		t.Errorf("openmpi handle %#x is not pointer-like", uint64(ompiH))
	}
	if exaH>>32 == 0 {
		t.Errorf("exampi comm handle %#x is not pointer-like", uint64(exaH))
	}
	// MPICH and Cray MPI are different derivatives: same family, but a
	// hardwired MPICH constant must not equal the Cray constant.
	if mpichH == crayH {
		t.Errorf("mpich and craympi share handle %#x; vendor divergence lost", uint64(mpichH))
	}
}

// sessionConst resolves one predefined constant on a one-rank job whose
// lower half runs as the given session: 0 is a fresh launch, and a
// restart runs as a later one.
func sessionConst(t *testing.T, factory Factory, session uint64, name mpi.ConstName) mpi.Handle {
	t.Helper()
	var h mpi.Handle
	j := cluster.New(1, session, factory, testNet)
	j.Start(func(rank int, p mpi.Proc, clock *simtime.Clock) error {
		var e error
		h, e = p.LookupConst(name)
		return e
	})
	if _, err := j.WaitResult(); err != nil {
		t.Fatal(err)
	}
	return h
}

func TestOpenMPIConstantsVaryAcrossSessions(t *testing.T) {
	factory, err := Get("openmpi")
	if err != nil {
		t.Fatal(err)
	}
	a, b := sessionConst(t, factory, 0, mpi.ConstCommWorld), sessionConst(t, factory, 1, mpi.ConstCommWorld)
	if a == b {
		t.Fatalf("MPI_COMM_WORLD identical across Open MPI sessions (%#x); the restart hazard of Section 4.3 is not modeled", uint64(a))
	}
}

func TestMPICHConstantsStableAcrossSessions(t *testing.T) {
	for _, name := range []string{"mpich", "craympi"} {
		factory, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if a, b := sessionConst(t, factory, 0, mpi.ConstFloat64), sessionConst(t, factory, 1, mpi.ConstFloat64); a != b {
			t.Fatalf("%s: MPI_DOUBLE differs across sessions: %#x vs %#x", name, uint64(a), uint64(b))
		}
	}
}

func TestExaMPIEnumAliasing(t *testing.T) {
	factory, err := Get("exampi")
	if err != nil {
		t.Fatal(err)
	}
	_, err = cluster.Run(1, factory, testNet, func(rank int, p mpi.Proc, clock *simtime.Clock) error {
		byt, err := p.LookupConst(mpi.ConstByte)
		if err != nil {
			return err
		}
		ch, err := p.LookupConst(mpi.ConstChar)
		if err != nil {
			return err
		}
		if byt != ch {
			return fmt.Errorf("MPI_BYTE (%#x) and MPI_CHAR (%#x) should share an enum value", uint64(byt), uint64(ch))
		}
		// Both must be small enum values, not pointers.
		if uint64(byt)>>16 != 0 {
			return fmt.Errorf("enum datatype %#x is not a small value", uint64(byt))
		}
		// But a communicator constant is a lazy shared pointer.
		w, err := p.LookupConst(mpi.ConstCommWorld)
		if err != nil {
			return err
		}
		if uint64(w)>>32 == 0 {
			return fmt.Errorf("comm world %#x is not pointer-like", uint64(w))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStaleHandleDetectionCray(t *testing.T) {
	factory, err := Get("craympi")
	if err != nil {
		t.Fatal(err)
	}
	_, err = cluster.Run(1, factory, testNet, func(rank int, p mpi.Proc, clock *simtime.Clock) error {
		f64, err := p.LookupConst(mpi.ConstFloat64)
		if err != nil {
			return err
		}
		dt, err := p.TypeContiguous(2, f64)
		if err != nil {
			return err
		}
		if err := p.TypeFree(dt); err != nil {
			return err
		}
		// Create another type, reusing the slot; the stale handle must
		// not resolve to it.
		dt2, err := p.TypeContiguous(4, f64)
		if err != nil {
			return err
		}
		if _, err := p.TypeSize(dt); err == nil {
			return errors.New("stale handle resolved after slot reuse")
		}
		if sz, err := p.TypeSize(dt2); err != nil || sz != 32 {
			return fmt.Errorf("fresh handle sz=%d err=%v", sz, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMessageOrderingFIFO(t *testing.T) {
	forEachImpl(t, func(t *testing.T, name string, factory Factory) {
		run(t, factory, 2, func(rank int, p mpi.Proc, clock *simtime.Clock) error {
			c := consts(t, p, mpi.ConstCommWorld, mpi.ConstByte)
			world, byt := c[mpi.ConstCommWorld], c[mpi.ConstByte]
			const k = 32
			if rank == 0 {
				for i := 0; i < k; i++ {
					if err := p.Send([]byte{byte(i)}, 1, byt, 1, 4, world); err != nil {
						return err
					}
				}
				return nil
			}
			var got bytes.Buffer
			for i := 0; i < k; i++ {
				in := make([]byte, 1)
				if _, err := p.Recv(in, 1, byt, 0, 4, world); err != nil {
					return err
				}
				got.WriteByte(in[0])
			}
			for i := 0; i < k; i++ {
				if got.Bytes()[i] != byte(i) {
					return fmt.Errorf("message %d arrived at position %d", got.Bytes()[i], i)
				}
			}
			return nil
		})
	})
}

// TestLookupConstDoesNotAllocate: resolving a predefined constant is on
// the path of every control message MANA sends or receives (the control
// link resolves MPI_INT64_T per call, because a restart's new lower half
// would invalidate any handle cached above it), so once a constant is
// bound a lookup must cost no heap object on any implementation.
func TestLookupConstDoesNotAllocate(t *testing.T) {
	forEachImpl(t, func(t *testing.T, name string, factory Factory) {
		run(t, factory, 1, func(rank int, p mpi.Proc, clock *simtime.Clock) error {
			for _, c := range []mpi.ConstName{mpi.ConstInt64, mpi.ConstCommWorld, mpi.ConstOpSum} {
				want, err := p.LookupConst(c)
				if err != nil {
					return err
				}
				allocs := testing.AllocsPerRun(100, func() {
					if h, err := p.LookupConst(c); err != nil || h != want {
						t.Errorf("%s: LookupConst(%v) = %v, %v; want %v", name, c, h, err, want)
					}
				})
				if allocs != 0 {
					return fmt.Errorf("%s: LookupConst(%v) allocates %v objects per call", name, c, allocs)
				}
			}
			return nil
		})
	})
}

// TestCommitPredefinedInParallelJobs: every rank of every job shares
// the predefined datatypes, so committing MPI_DOUBLE must write
// nothing. Two jobs commit it at once; under -race a write to the
// shared object is reported.
func TestCommitPredefinedInParallelJobs(t *testing.T) {
	forEachImpl(t, func(t *testing.T, name string, factory Factory) {
		for job := range 2 {
			t.Run(fmt.Sprint("job", job), func(t *testing.T) {
				t.Parallel()
				run(t, factory, 2, func(rank int, p mpi.Proc, _ *simtime.Clock) error {
					f64 := consts(t, p, mpi.ConstFloat64)[mpi.ConstFloat64]
					if err := p.TypeCommit(f64); err != nil {
						return err
					}
					if size, err := p.TypeSize(f64); err != nil || size != 8 {
						return fmt.Errorf("MPI_DOUBLE size %d, %v after commit; want 8", size, err)
					}
					return nil
				})
			})
		}
	})
}
