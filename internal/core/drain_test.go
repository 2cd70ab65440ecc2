package mana

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
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
				// Boundary 5: each rank's step-4 ring message is in
				// flight and must be drained.
				_, st := stopAt(t, cfg, testRanks, newRingApp(testSteps), 5)
				drained := 0
				for _, img := range headImages(t, st) {
					drained += len(img.Drained)
				}
				if drained != testRanks {
					t.Fatalf("%s drained %d messages, want %d", strat, drained, testRanks)
				}
				rst, err := restartWait(implFactory(t, impl), st, newRingApp(testSteps))
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
			for _, e := range img.Counters {
				c.sentTo += e.Sent
				c.recvFrom += e.Recv
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
				src.DrainStrategy = strat
				_, st := stopAt(t, src, 4, newRingApp(8), 4)
				rst, err := restartWait(implFactory(t, tc.to), st, newRingApp(8))
				if err != nil {
					t.Fatalf("cross restart %s->%s under %s: %v", tc.from, tc.to, strat, err)
				}
				sameChecksums(t, plain.Checksums, rst.Checksums, "cross-impl/"+strat)
			})
		}
	}
}

// TestCompressedImagesRestore exercises the gzip tier of the v3 codec
// through a full checkpoint/restart cycle.
func TestCompressedImagesRestore(t *testing.T) {
	plain, _, err := Run(implFactory(t, "mpich"), 4, newRingApp(8), -1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := implFactory(t, "mpich")
	cfg.StoreOptions.Compress = true
	_, st := stopAt(t, cfg, 4, newRingApp(8), 4)
	rst, err := restartWait(implFactory(t, "mpich"), st, newRingApp(8))
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
		rt, err := NewRuntime(cfg, lower, clock, nil, nil)
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
// count instead of a stopwatch: a 64-rank toposort drain sends one row
// along each of the E edges of the send graph and 2(n−1) close tokens,
// exactly, and the rows' payload stays within a sparse row's size — one
// length word plus a (peer, count) pair per rank the sender actually
// sent to. An all-pairs announcement breaks the count 12×, a dense
// n-entry row the byte bound 5×, on any host.
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
	// E: the (rank, peer) pairs with a message sent at the cut, self
	// excluded; d: the largest number of peers any rank had sent to.
	edges, d, drained := 0, 0, 0
	for r, data := range images {
		img, err := ckptimg.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		deg := 0
		for _, c := range img.Counters {
			if c.Sent > 0 {
				deg++
				if c.Peer != r {
					edges++
				}
			}
		}
		d = max(d, deg)
		drained += len(img.Drained)
	}
	if d == 0 || d > 8 || drained == 0 {
		t.Fatalf("workload lost its shape: out-degree %d, %d messages drained", d, drained)
	}
	if want := uint64(edges + 2*(n-1)); st.CtlMsgs != want {
		t.Fatalf("CtlMsgs %d, want E + 2(n-1) = %d + %d", st.CtlMsgs, edges, 2*(n-1))
	}
	if bound := uint64(8 * (edges*(1+2*d) + 2*(n-1))); st.CtlBytes == 0 || st.CtlBytes > bound {
		t.Fatalf("CtlBytes %d, want in (0, %d] (E %d, out-degree %d)", st.CtlBytes, bound, edges, d)
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
	// graph[p] lists whom rank p sends to each step, and how often.
	graph      [][]fanEdge
	world, f64 mpi.Handle
	acc        float64
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

// fanGraph is the send graph of the drained-order golden.
func fanGraph(n int) [][]fanEdge {
	g := make([][]fanEdge, n)
	for p := range g {
		g[p] = fanTargets(p, n)
	}
	return g
}

func newFanApp(steps int, graph [][]fanEdge) app.Factory {
	return func() app.Instance { return &fanApp{steps: steps, graph: graph} }
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
	for _, e := range a.graph[a.rank] {
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
		for _, e := range a.graph[p] {
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

// Snapshot holds everything Setup made, since a restart does not run
// Setup again: the accumulator, the rank's place and the (virtual)
// handles.
func (a *fanApp) Snapshot() ([]byte, error) {
	var b []byte
	for _, v := range []uint64{math.Float64bits(a.acc), uint64(a.rank), uint64(a.size), uint64(a.world), uint64(a.f64)} {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return b, nil
}

func (a *fanApp) Restore(data []byte) error {
	if len(data) != 5*8 {
		return fmt.Errorf("fanApp: %d-byte snapshot", len(data))
	}
	v := func(i int) uint64 { return binary.LittleEndian.Uint64(data[8*i:]) }
	a.acc, a.rank, a.size = math.Float64frombits(v(0)), int(v(1)), int(v(2))
	a.world, a.f64 = mpi.Handle(v(3)), mpi.Handle(v(4))
	return nil
}

func (a *fanApp) FootprintBytes() int64 { return 1 << 10 }

// TestToposortDrainedOrderGolden holds the toposort drain to its pull
// order: the Drained section is written in pull order, so the digest
// below changes if the dependency order of a rank's senders ever picks a
// different rank first. The order does not depend on the MPI
// implementation underneath, and the native run proves the workload
// itself sound.
func TestToposortDrainedOrderGolden(t *testing.T) {
	const (
		ranks  = 12
		steps  = 6
		golden = "a6d7b0afe8bad72fc5d0ecdaabbf46c8642fbaa59f035f384f0d420e3ddb4e99"
	)
	for _, impl := range impls.Names() {
		cfg := faultCfg(t, impl, nil)
		plain, err := RunNative(cfg, ranks, newFanApp(steps, fanGraph(ranks)))
		if err != nil {
			t.Fatal(err)
		}
		cfg.DrainStrategy = "toposort"
		st, images, err := Run(cfg, ranks, newFanApp(steps, fanGraph(ranks)), 3)
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

// stuckApp never communicates, except that the rank named stuck blocks
// in its first step on a receive nothing matches, so it never reaches
// a checkpoint boundary.
type stuckApp struct {
	stuck       int
	world, byte mpi.Handle
}

func (a *stuckApp) Setup(env *app.Env) (err error) {
	if a.world, err = env.P.LookupConst(mpi.ConstCommWorld); err != nil {
		return err
	}
	a.byte, err = env.P.LookupConst(mpi.ConstByte)
	return err
}

func (a *stuckApp) Steps() int { return 2 }

func (a *stuckApp) Step(env *app.Env, step int) error {
	if env.Rank == a.stuck {
		_, err := env.P.Recv(make([]byte, 1), 1, a.byte, mpi.AnySource, 99, a.world)
		return err
	}
	env.Compute(time.Microsecond)
	return nil
}

func (a *stuckApp) Finalize(*app.Env) error   { return nil }
func (a *stuckApp) Checksum() uint64          { return 0 }
func (a *stuckApp) Snapshot() ([]byte, error) { return nil, nil }
func (a *stuckApp) Restore(data []byte) error { return nil }
func (a *stuckApp) FootprintBytes() int64     { return 0 }

// TestToposortStallNamesCounters: a toposort rank parked in the close of
// the announcement is named in the deadlock diagnostic with the rank it
// waits on — formatted when the job goes down, not on every pass of the
// drain. Rank 2 never reaches the cut, so rank 0, the root of the close
// tree, waits for its report and rank 1, reported, for the root's
// release.
func TestToposortStallNamesCounters(t *testing.T) {
	cfg := faultCfg(t, "mpich", nil)
	cfg.DrainStrategy = "toposort"
	_, _, err := Run(cfg, 3, func() app.Instance { return &stuckApp{stuck: 2} }, 1)
	if err == nil {
		t.Fatal("a job with a rank that never reaches the cut checkpointed")
	}
	msg := err.Error()
	for _, want := range []string{"event-kernel deadlock", "rank 0: toposort:close awaiting rank 2", "rank 1: toposort:close awaiting rank 0"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("diagnostic %q missing %q", msg, want)
		}
	}
	if strings.Contains(msg, "rank 2:") {
		t.Fatalf("diagnostic %q names the rank that never drained", msg)
	}
}

// TestToposortMatchesTwophaseOnRandomGraphs runs both strategies over
// seeded random send graphs — 20 seeds at each of 3, 7, 12 and 33
// ranks, none of them a power of two — in which one rank neither sends
// nor receives and some ranks send to themselves, and over a 1-rank
// job whose only traffic is to itself. Each graph is checkpointed with
// messages in flight; toposort must drain as many messages on every
// rank as twophase, finish with the same checksums, and its images must
// restart to them.
func TestToposortMatchesTwophaseOnRandomGraphs(t *testing.T) {
	const steps = 4
	check := func(what string, graph [][]fanEdge) {
		n := len(graph)
		var ref Stats
		var refDrained []int
		for _, strat := range []string{"twophase", "toposort"} {
			cfg := faultCfg(t, "mpich", nil)
			cfg.DrainStrategy = strat
			s, st, err := run(cfg, n, newFanApp(steps, graph), 2)
			if err != nil {
				t.Fatalf("%s %s: %v", what, strat, err)
			}
			drained := make([]int, n)
			for r, img := range headImages(t, s.Store()) {
				drained[r] = len(img.Drained)
			}
			if strat == "twophase" {
				ref, refDrained = st, drained
				if slices.Max(drained) == 0 {
					t.Fatalf("%s: nothing in flight at the cut", what)
				}
				continue
			}
			if !reflect.DeepEqual(drained, refDrained) {
				t.Fatalf("%s: toposort drained %v per rank, twophase %v", what, drained, refDrained)
			}
			sameChecksums(t, ref.Checksums, st.Checksums, what+": toposort run")
			rst, err := restartWait(faultCfg(t, "mpich", nil), s.Store(), newFanApp(steps, graph))
			if err != nil {
				t.Fatalf("%s: restart from toposort images: %v", what, err)
			}
			sameChecksums(t, ref.Checksums, rst.Checksums, what+": toposort restart")
		}
	}
	check("n=1", [][]fanEdge{{{0, 2}}})
	selfSends := 0
	for _, n := range []int{3, 7, 12, 33} {
		for seed := int64(1); seed <= 20; seed++ {
			graph := randomGraph(rand.New(rand.NewSource(seed*100+int64(n))), n)
			for p, out := range graph {
				for _, e := range out {
					if e.peer == p {
						selfSends++
					}
				}
			}
			check(fmt.Sprintf("n=%d seed %d", n, seed), graph)
		}
	}
	if selfSends == 0 {
		t.Fatal("no graph has a self-send")
	}
}

// randomGraph draws an n-rank send graph: each rank sends to a few
// random peers, itself now and then, one to three messages each, except
// one isolated rank that neither sends nor is sent to.
func randomGraph(rng *rand.Rand, n int) [][]fanEdge {
	isolated := rng.Intn(n)
	g := make([][]fanEdge, n)
	for p := range g {
		if p == isolated {
			continue
		}
		for q := 0; q < n; q++ {
			if q == isolated {
				continue
			}
			if (q == p && rng.Intn(4) == 0) || (q != p && rng.Intn(n) < 3) {
				g[p] = append(g[p], fanEdge{q, 1 + rng.Intn(3)})
			}
		}
	}
	return g
}
