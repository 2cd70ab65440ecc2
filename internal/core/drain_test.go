package mana

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"manasim/internal/app"
	"manasim/internal/apps"
	"manasim/internal/ckpt"
	"manasim/internal/ckptimg"
	"manasim/internal/cluster"
	"manasim/internal/impls"
	"manasim/internal/mpi"
	"manasim/internal/simtime"
)

// TestDrainStrategyParity checks the satellite guarantee of the
// checkpoint subsystem: every registered drain strategy produces
// restartable images for the same workload, on every simulated MPI
// implementation, with bitwise-identical results.
func TestDrainStrategyParity(t *testing.T) {
	for _, impl := range impls.Names() {
		plain, _, err := Run(implFactory(t, impl), testRanks, newRingApp(testSteps), -1)
		if err != nil {
			t.Fatal(err)
		}
		for _, strat := range ckpt.DrainNames() {
			t.Run(impl+"/"+strat, func(t *testing.T) {
				cfg := implFactory(t, impl)
				cfg.DrainStrategy = strat
				cfg.ExitAtCheckpoint = true
				// Boundary 5: each rank's step-4 ring message is in
				// flight and must be drained.
				_, images, err := Run(cfg, testRanks, newRingApp(testSteps), 5)
				if err != nil {
					t.Fatalf("checkpoint under %s: %v", strat, err)
				}
				drained := 0
				for _, data := range images {
					img, err := ckptimg.Decode(data)
					if err != nil {
						t.Fatal(err)
					}
					drained += len(img.Drained)
				}
				if drained != testRanks {
					t.Fatalf("%s drained %d messages, want %d", strat, drained, testRanks)
				}
				rst, err := Restart(implFactory(t, impl), images, newRingApp(testSteps))
				if err != nil {
					t.Fatalf("restart from %s images: %v", strat, err)
				}
				sameChecksums(t, plain.Checksums, rst.Checksums, impl+"/"+strat)
			})
		}
	}
}

// TestDrainStrategiesAgreeOnImages verifies the cut itself is
// strategy-independent: the same workload checkpointed at the same
// boundary yields the same drained message multiset and counters under
// either strategy.
func TestDrainStrategiesAgreeOnImages(t *testing.T) {
	type cut struct {
		drained  int
		sentTo   uint64
		recvFrom uint64
	}
	var ref []cut
	var refStrat string
	for _, strat := range ckpt.DrainNames() {
		cfg := implFactory(t, "mpich")
		cfg.DrainStrategy = strat
		cfg.ExitAtCheckpoint = true
		_, images, err := Run(cfg, 4, newRingApp(8), 4)
		if err != nil {
			t.Fatal(err)
		}
		cuts := make([]cut, len(images))
		for i, data := range images {
			img, err := ckptimg.Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			var c cut
			c.drained = len(img.Drained)
			for _, v := range img.SentTo {
				c.sentTo += v
			}
			for _, v := range img.RecvFrom {
				c.recvFrom += v
			}
			cuts[i] = c
		}
		if ref == nil {
			ref, refStrat = cuts, strat
			continue
		}
		for r := range cuts {
			if cuts[r] != ref[r] {
				t.Fatalf("rank %d cut differs: %s %+v vs %s %+v", r, strat, cuts[r], refStrat, ref[r])
			}
		}
	}
}

// TestCrossImplRestartUnderEachDrainStrategy runs the Section 9
// capability — checkpoint under one implementation, restart under
// another with uniform handles — for every drain strategy.
func TestCrossImplRestartUnderEachDrainStrategy(t *testing.T) {
	cases := []struct{ from, to string }{
		{"mpich", "openmpi"},
		{"openmpi", "mpich"},
		{"craympi", "openmpi"},
		{"mpich", "craympi"},
	}
	for _, strat := range ckpt.DrainNames() {
		for _, tc := range cases {
			t.Run(strat+"/"+tc.from+"_to_"+tc.to, func(t *testing.T) {
				ref := implFactory(t, tc.from)
				ref.UniformHandles = true
				plain, _, err := Run(ref, 4, newRingApp(8), -1)
				if err != nil {
					t.Fatal(err)
				}
				src := implFactory(t, tc.from)
				src.UniformHandles = true
				src.ExitAtCheckpoint = true
				src.DrainStrategy = strat
				_, images, err := Run(src, 4, newRingApp(8), 4)
				if err != nil {
					t.Fatal(err)
				}
				dst := implFactory(t, tc.to)
				rst, err := Restart(dst, images, newRingApp(8))
				if err != nil {
					t.Fatalf("cross restart %s->%s under %s: %v", tc.from, tc.to, strat, err)
				}
				sameChecksums(t, plain.Checksums, rst.Checksums, "cross-impl/"+strat)
			})
		}
	}
}

// TestRestartFromLegacyV2Image proves format compatibility end to end:
// a checkpoint re-encoded in the v2 monolithic format restores under
// the v3 codec and finishes with identical results.
func TestRestartFromLegacyV2Image(t *testing.T) {
	cfg := implFactory(t, "mpich")
	plain, _, err := Run(cfg, 4, newRingApp(8), -1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ExitAtCheckpoint = true
	_, images, err := Run(cfg, 4, newRingApp(8), 4)
	if err != nil {
		t.Fatal(err)
	}
	v2 := make([][]byte, len(images))
	for i, data := range images {
		img, err := ckptimg.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		if v2[i], err = ckptimg.EncodeLegacy(img); err != nil {
			t.Fatal(err)
		}
	}
	rst, err := Restart(implFactory(t, "mpich"), v2, newRingApp(8))
	if err != nil {
		t.Fatalf("restart from v2 images: %v", err)
	}
	sameChecksums(t, plain.Checksums, rst.Checksums, "v2 restart")
}

// TestCompressedImagesRestore exercises the gzip tier of the v3 codec
// through a full checkpoint/restart cycle.
func TestCompressedImagesRestore(t *testing.T) {
	plain, _, err := Run(implFactory(t, "mpich"), 4, newRingApp(8), -1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := implFactory(t, "mpich")
	cfg.CompressImages = true
	cfg.ExitAtCheckpoint = true
	_, images, err := Run(cfg, 4, newRingApp(8), 4)
	if err != nil {
		t.Fatal(err)
	}
	rst, err := Restart(implFactory(t, "mpich"), images, newRingApp(8))
	if err != nil {
		t.Fatalf("restart from compressed images: %v", err)
	}
	sameChecksums(t, plain.Checksums, rst.Checksums, "compressed restart")
}

// TestUnknownDrainStrategyRejected ensures a typo'd Config.DrainStrategy
// fails fast with the registered names in the message.
func TestUnknownDrainStrategyRejected(t *testing.T) {
	cfg := implFactory(t, "mpich")
	cfg.DrainStrategy = "definitely-not-registered"
	_, _, err := Run(cfg, 2, newRingApp(2), -1)
	if err == nil {
		t.Fatal("unknown drain strategy accepted")
	}
	if !strings.Contains(err.Error(), "twophase") {
		t.Fatalf("error does not list registered strategies: %v", err)
	}
}

// TestAsyncCheckpointUnderToposort runs the signal-style request under
// the collective-free strategy: agreement traffic and drain traffic
// share the internal communicator and must not interfere.
func TestAsyncCheckpointUnderToposort(t *testing.T) {
	cfg := implFactory(t, "mpich")
	cfg.DrainStrategy = "toposort"
	s, err := StartJob(cfg, 4, newRingApp(400))
	if err != nil {
		t.Fatal(err)
	}
	s.Co.RequestCheckpoint()
	st, err := s.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if st.CkptTaken != 1 {
		t.Fatalf("async request produced %d checkpoints", st.CkptTaken)
	}
	plain, err := RunNative(cfg, 4, newRingApp(400))
	if err != nil {
		t.Fatal(err)
	}
	sameChecksums(t, plain.Checksums, st.Checksums, "async toposort")
}

// TestCtlRecvReturnsWhatArrived pins the CtlLink receive contract: count
// is a capacity, and the result holds exactly the values of the message
// received — not the tail of an earlier, longer message that the reused
// staging buffer still carries. The sparse counter rows depend on it:
// every row is received into the capacity of the longest possible row.
func TestCtlRecvReturnsWhatArrived(t *testing.T) {
	const tag = 77
	cfg := implFactory(t, "mpich")
	_, err := cluster.Run(2, cfg.Factory, cfg.Host.Net, func(rank int, lower mpi.Proc, clock *simtime.Clock) error {
		rt, err := NewRuntime(cfg, lower, clock, nil)
		if err != nil {
			return err
		}
		link := ctlLink{rt}
		if rank == 0 {
			for _, vals := range [][]int64{{11, 12, 13, 14, 15}, {21}, {}} {
				if err := link.CtlSend(1, tag, vals); err != nil {
					return err
				}
			}
			// Three bytes are not a control message.
			byteDt, err := lower.LookupConst(mpi.ConstByte)
			if err != nil {
				return err
			}
			return lower.Send([]byte{1, 2, 3}, 3, byteDt, 1, tag, rt.manaComm)
		}
		for _, want := range [][]int64{{11, 12, 13, 14, 15}, {21}, {}} {
			got, err := link.CtlRecv(0, tag, 5)
			if err != nil {
				return err
			}
			if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				return fmt.Errorf("CtlRecv returned %v, want %v", got, want)
			}
		}
		if got, err := link.CtlRecv(0, tag, 5); err == nil || !strings.Contains(err.Error(), "3 bytes") {
			return fmt.Errorf("3-byte control message: values %v, error %v", got, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// pipelinedLammps is the drain-scale workload: every rank's halo
// messages of the checkpointed step are in flight at the boundary.
func pipelinedLammps(t *testing.T, ranks int) (app.Factory, apps.Input) {
	t.Helper()
	spec, err := apps.ByName("lammps")
	if err != nil {
		t.Fatal(err)
	}
	in := spec.DefaultInput(apps.SiteDiscovery)
	in.Ranks = ranks
	in.SimSteps = 4
	in.PollsPerStep = 2
	return spec.New(in), in
}

// TestToposortCtlBytesBound guards the control plane's complexity with a
// count instead of a stopwatch: a 64-rank toposort drain still sends
// n(n−1) announcements, and their payload stays within a sparse row's
// size — one length word plus a (peer, count) pair per rank the sender
// actually sent to. A dense n-entry row breaks the bound 5× on any host.
func TestToposortCtlBytesBound(t *testing.T) {
	const n = 64
	appf, in := pipelinedLammps(t, n)
	cfg := faultCfg(t, "mpich", nil)
	cfg.DrainStrategy = "toposort"
	cfg.ExitAtCheckpoint = true
	st, images, err := Run(cfg, n, appf, in.SimSteps/2)
	if err != nil {
		t.Fatal(err)
	}
	if st.CtlMsgs != n*(n-1) {
		t.Fatalf("CtlMsgs %d, want n(n-1) = %d", st.CtlMsgs, n*(n-1))
	}
	// d: the largest number of peers any rank had sent to at the cut.
	d, drained := 0, 0
	for _, data := range images {
		img, err := ckptimg.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		deg := 0
		for _, c := range img.SentTo {
			if c > 0 {
				deg++
			}
		}
		d = max(d, deg)
		drained += len(img.Drained)
	}
	if d == 0 || d > 8 || drained == 0 {
		t.Fatalf("workload lost its shape: out-degree %d, %d messages drained", d, drained)
	}
	if bound := uint64(n * (n - 1) * 8 * (1 + 2*d)); st.CtlBytes == 0 || st.CtlBytes > bound {
		t.Fatalf("CtlBytes %d, want in (0, %d] (out-degree %d)", st.CtlBytes, bound, d)
	}

	// The Alltoall exchange is n(n−1) slots of 8 bytes.
	cfg.DrainStrategy = "twophase"
	st, _, err = Run(cfg, n, appf, in.SimSteps/2)
	if err != nil {
		t.Fatal(err)
	}
	if st.CtlMsgs != n*(n-1) || st.CtlBytes != 8*n*(n-1) {
		t.Fatalf("twophase CtlMsgs %d CtlBytes %d, want %d and %d", st.CtlMsgs, st.CtlBytes, n*(n-1), 8*n*(n-1))
	}
}

// drainedDigest hashes, rank by rank, the Drained section in image
// order: who sent each buffered message, under which tag, and its bytes.
func drainedDigest(t *testing.T, images [][]byte) (digest string, drained int) {
	t.Helper()
	h := sha256.New()
	for r, data := range images {
		img, err := ckptimg.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "rank %d: %d\n", r, len(img.Drained))
		for _, m := range img.Drained {
			fmt.Fprintf(h, "%d %d %d %d %x\n", m.GGID, m.SrcCommRank, m.SrcWorld, m.Tag, m.Payload)
		}
		drained += len(img.Drained)
	}
	return hex.EncodeToString(h.Sum(nil)), drained
}

// fanApp is a workload whose drain order matters: every step each rank
// sends a rank-dependent number of messages to a rank-dependent set of
// peers (itself included, for rank 1) and receives them one step later,
// so at a boundary a rank holds several in-flight messages from several
// senders, and the ranks reach the cut at different virtual times. It
// uses nothing ExaMPI lacks.
type fanApp struct {
	rank, size, steps int
	world, f64        mpi.Handle
	acc               float64
}

type fanEdge struct{ peer, count int }

// fanTargets lists whom rank p sends to each step, and how often.
func fanTargets(p, n int) []fanEdge {
	var raw []fanEdge
	switch p % 3 {
	case 0:
		raw = []fanEdge{{p + 1, 1}, {p + 2, 2}}
	case 1:
		raw = []fanEdge{{p + 4, 3}}
		if p == 1 {
			raw = append(raw, fanEdge{p, 1})
		}
	default:
		raw = []fanEdge{{p + n - 1, 1}, {p + 5, 1}, {p + 7, 2}}
	}
	var out []fanEdge
	for _, e := range raw {
		e.peer %= n
		if !slices.ContainsFunc(out, func(o fanEdge) bool { return o.peer == e.peer }) {
			out = append(out, e)
		}
	}
	return out
}

func newFanApp(steps int) app.Factory {
	return func() app.Instance { return &fanApp{steps: steps} }
}

func (a *fanApp) Setup(env *app.Env) (err error) {
	a.rank, a.size = env.Rank, env.Size
	if a.world, err = env.P.LookupConst(mpi.ConstCommWorld); err != nil {
		return err
	}
	a.f64, err = env.P.LookupConst(mpi.ConstFloat64)
	return err
}

func (a *fanApp) Steps() int { return a.steps }

func (a *fanApp) Step(env *app.Env, step int) error {
	env.Compute(time.Duration(1+(a.rank*7)%5) * time.Microsecond)
	if step > 0 {
		if err := a.recvAll(env); err != nil {
			return err
		}
	}
	for _, e := range fanTargets(a.rank, a.size) {
		for i := 0; i < e.count; i++ {
			v := []float64{float64(a.rank*1000 + step*10 + i)}
			if err := env.P.Send(mpi.Float64Bytes(v), 1, a.f64, e.peer, 3, a.world); err != nil {
				return err
			}
		}
	}
	return nil
}

// recvAll receives what every sender addressed to this rank one step
// ago, sender by sender.
func (a *fanApp) recvAll(env *app.Env) error {
	in := make([]byte, 8)
	for p := 0; p < a.size; p++ {
		for _, e := range fanTargets(p, a.size) {
			for i := 0; e.peer == a.rank && i < e.count; i++ {
				if _, err := env.P.Recv(in, 1, a.f64, p, 3, a.world); err != nil {
					return err
				}
				a.acc = a.acc*0.5 + mpi.Float64s(in)[0]
			}
		}
	}
	return nil
}

func (a *fanApp) Finalize(env *app.Env) error { return a.recvAll(env) }

func (a *fanApp) Checksum() uint64 { return math.Float64bits(a.acc) }

func (a *fanApp) Snapshot() ([]byte, error) { return mpi.Float64Bytes([]float64{a.acc}), nil }

func (a *fanApp) Restore(data []byte) error {
	a.acc = mpi.Float64s(data)[0]
	return nil
}

func (a *fanApp) FootprintBytes() int64 { return 1 << 10 }

// TestToposortDrainedOrderGolden holds the toposort drain to the pull
// order of the dense-matrix implementation it replaced: the Drained
// section is written in pull order, so the digest below — taken from
// that implementation on the same deterministic run — changes if the
// sparse dependency order ever picks a different rank first. The order
// does not depend on the MPI implementation underneath, and the native
// run proves the workload itself sound.
func TestToposortDrainedOrderGolden(t *testing.T) {
	const (
		ranks  = 12
		steps  = 6
		golden = "574774dd60c4d2c21b0beed69d1c90501174bb822fe416fad1707ab7167e3f65"
	)
	for _, impl := range impls.Names() {
		cfg := faultCfg(t, impl, nil)
		plain, err := RunNative(cfg, ranks, newFanApp(steps))
		if err != nil {
			t.Fatal(err)
		}
		cfg.DrainStrategy = "toposort"
		st, images, err := Run(cfg, ranks, newFanApp(steps), 3)
		if err != nil {
			t.Fatal(err)
		}
		sameChecksums(t, plain.Checksums, st.Checksums, impl+": checkpointed fan run")
		got, drained := drainedDigest(t, images)
		if drained < 2*ranks {
			t.Fatalf("%s: only %d messages in flight at the cut", impl, drained)
		}
		if got != golden {
			t.Errorf("%s: drained-order digest %s (%d messages), want %s", impl, got, drained, golden)
		}
	}
}

// TestCheckpointPresetDoesNotRaceTheRanks: a checkpoint preset set on
// the session after StartJob must reach every rank, however long the
// caller is held up in between (GC assist, preemption). With ranks
// started by StartJob, a caller descheduled for a millisecond found some
// ranks already past the boundary: those never checkpointed, and under
// the event kernel the job died as a deadlock, the others waiting in the
// drain for announcements that never came.
func TestCheckpointPresetDoesNotRaceTheRanks(t *testing.T) {
	appf, in := pipelinedLammps(t, 64)
	cfg := faultCfg(t, "mpich", nil)
	cfg.DrainStrategy = "toposort"
	cfg.ExitAtCheckpoint = true
	s, err := StartJob(cfg, in.Ranks, appf)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	s.Co.RequestCheckpointAtStep(in.SimSteps / 2)
	st, err := s.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if st.CkptTaken != 1 || !st.Stopped {
		t.Fatalf("preset set 20 ms after StartJob: %d checkpoints, stopped=%v", st.CkptTaken, st.Stopped)
	}
}
