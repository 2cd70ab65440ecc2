package mana

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"manasim/internal/app"
	"manasim/internal/ckptimg"
	"manasim/internal/ckptstore"
	"manasim/internal/impls"
	"manasim/internal/mpi"
	"manasim/internal/simtime"
	"manasim/internal/vid"
)

// ---------------------------------------------------------------------
// test application: a ring pipeline with sub-communicator reductions,
// derived datatypes, a user op, and cross-step in-flight messages.

func init() {
	if err := mpi.RegisterOp("test.sumsq", func(in, inout []byte, count, elemSize int) {
		a := mpi.Float64s(inout)
		b := mpi.Float64s(in)
		for i := range a {
			a[i] += b[i] * b[i]
			mpi.PutFloat64s(inout[8*i:8*i+8], a[i:i+1])
		}
	}); err != nil {
		panic(err)
	}
}

type ringState struct {
	Rank, Size int
	Steps      int
	Vec        []float64
	Acc        float64
	// Virtual handles held across steps — and across checkpoint/restart.
	World   mpi.Handle
	F64     mpi.Handle
	Half    mpi.Handle // split communicator
	Quad    mpi.Handle // contiguous derived type (4 x float64)
	SumSq   mpi.Handle // user op
	HaveOut bool       // a message to next rank is in flight
}

type ringApp struct {
	st    ringState
	steps int
}

func newRingApp(steps int) app.Factory {
	return func() app.Instance { return &ringApp{steps: steps} }
}

func (a *ringApp) Setup(env *app.Env) error {
	p := env.P
	world, err := p.LookupConst(mpi.ConstCommWorld)
	if err != nil {
		return err
	}
	f64, err := p.LookupConst(mpi.ConstFloat64)
	if err != nil {
		return err
	}
	half, err := p.CommSplit(world, env.Rank%2, env.Rank)
	if err != nil {
		return err
	}
	quad, err := p.TypeContiguous(4, f64)
	if err != nil {
		return err
	}
	if err := p.TypeCommit(quad); err != nil {
		return err
	}
	sumsqFn, _ := mpi.OpByName("test.sumsq")
	sumsq, err := p.OpCreate(sumsqFn, true)
	if err != nil {
		return err
	}
	// Create and free a scratch communicator: its descriptor must ride
	// along for replay-ancestry without breaking anything.
	scratch, err := p.CommDup(world)
	if err != nil {
		return err
	}
	if err := p.CommFree(scratch); err != nil {
		return err
	}

	a.st = ringState{
		Rank: env.Rank, Size: env.Size, Steps: a.steps,
		Vec:   make([]float64, 4),
		World: world, F64: f64, Half: half, Quad: quad, SumSq: sumsq,
	}
	for i := range a.st.Vec {
		a.st.Vec[i] = float64(env.Rank + i)
	}
	return nil
}

func (a *ringApp) Steps() int { return a.steps }

func (a *ringApp) Step(env *app.Env, step int) error {
	p := env.P
	s := &a.st
	next := (s.Rank + 1) % s.Size
	prev := (s.Rank - 1 + s.Size) % s.Size
	env.Compute(1000) // 1us of "physics"

	// Receive the message the predecessor sent LAST step (cross-step
	// dependency: at a checkpoint boundary this message is in flight
	// and must be drained).
	if step > 0 {
		in := make([]byte, 32)
		st, err := p.Recv(in, 1, s.Quad, prev, 7, s.World)
		if err != nil {
			return fmt.Errorf("ring recv: %w", err)
		}
		if st.Bytes != 32 {
			return fmt.Errorf("ring recv got %d bytes", st.Bytes)
		}
		v := mpi.Float64s(in)
		for i := range s.Vec {
			s.Vec[i] = s.Vec[i]*0.5 + v[i]*0.25
		}
	}

	// Send this step's contribution to the successor (received next
	// step).
	out := make([]float64, 4)
	for i := range out {
		out[i] = s.Vec[i] + float64(step)
	}
	if err := p.Send(mpi.Float64Bytes(out), 1, s.Quad, next, 7, s.World); err != nil {
		return fmt.Errorf("ring send: %w", err)
	}
	s.HaveOut = true

	// Sub-communicator reduction with the user op every third step.
	if step%3 == 0 {
		recv := make([]byte, 8)
		if err := p.Allreduce(mpi.Float64Bytes([]float64{s.Vec[0]}), recv, 1, s.F64, s.SumSq, s.Half); err != nil {
			return fmt.Errorf("half allreduce: %w", err)
		}
		s.Acc += mpi.Float64s(recv)[0] * 1e-3
	}
	return nil
}

func (a *ringApp) Finalize(env *app.Env) error {
	// Drain the final in-flight ring message.
	s := &a.st
	if s.HaveOut {
		prev := (s.Rank - 1 + s.Size) % s.Size
		in := make([]byte, 32)
		if _, err := env.P.Recv(in, 1, s.Quad, prev, 7, s.World); err != nil {
			return err
		}
		v := mpi.Float64s(in)
		s.Acc += v[0] * 1e-6
	}
	return nil
}

func (a *ringApp) Checksum() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%d", a.st.Rank, a.st.Size)
	for _, v := range a.st.Vec {
		fmt.Fprintf(h, "%.12e,", v)
	}
	fmt.Fprintf(h, "acc=%.12e", a.st.Acc)
	return h.Sum64()
}

func (a *ringApp) Snapshot() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&a.st); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func (a *ringApp) Restore(data []byte) error {
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&a.st); err != nil {
		return err
	}
	a.steps = a.st.Steps
	return nil
}

func (a *ringApp) FootprintBytes() int64 { return 1 << 20 }

// ---------------------------------------------------------------------
// helpers

func implFactory(t *testing.T, name string) Config {
	t.Helper()
	f, err := impls.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return Config{ImplName: name, Factory: f, Host: simtime.Discovery()}
}

// stopAt runs an n-rank job that checkpoints at step and stops there,
// as after a preemption, and returns its statistics and the store
// holding the checkpoint.
func stopAt(t *testing.T, cfg Config, n int, factory app.Factory, step int) (Stats, *ckptstore.Store) {
	t.Helper()
	cfg.ExitAtCheckpoint = true
	s, st, err := run(cfg, n, factory, step)
	if err != nil {
		t.Fatalf("checkpoint at step %d: %v", step, err)
	}
	return st, s.Store()
}

// restartWait resumes from the store's head under cfg and waits for
// completion.
func restartWait(cfg Config, st *ckptstore.Store, factory app.Factory) (Stats, error) {
	s, err := RestartJobFromStore(cfg, st, factory)
	if err != nil {
		return Stats{}, err
	}
	return s.Wait()
}

// headImages resolves the images of the store's head generation.
func headImages(t *testing.T, st *ckptstore.Store) []*ckptimg.Image {
	t.Helper()
	imgs, _, err := st.MaterializeStreamHead()
	if err != nil {
		t.Fatal(err)
	}
	return imgs
}

func sameChecksums(t *testing.T, a, b []uint64, what string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: checksum count %d vs %d", what, len(a), len(b))
	}
	for r := range a {
		if a[r] != b[r] {
			t.Fatalf("%s: rank %d checksum %x != %x", what, r, a[r], b[r])
		}
	}
}

const testRanks = 6
const testSteps = 12

// ---------------------------------------------------------------------
// native vs MANA equivalence

func TestNativeVsManaSameResults(t *testing.T) {
	for _, impl := range impls.Names() {
		t.Run(impl, func(t *testing.T) {
			cfg := implFactory(t, impl)
			native, err := RunNative(cfg, testRanks, newRingApp(testSteps))
			if err != nil {
				t.Fatalf("native: %v", err)
			}
			st, _, err := Run(cfg, testRanks, newRingApp(testSteps), -1)
			if err != nil {
				t.Fatalf("mana: %v", err)
			}
			sameChecksums(t, native.Checksums, st.Checksums, "native vs mana")
			if st.Crossings == 0 || st.WrapperCalls == 0 {
				t.Fatal("MANA run recorded no boundary crossings")
			}
			if impl == "exampi" {
				// Figure 3 / Section 6.2: MANA under ExaMPI runs
				// *faster* than native ExaMPI, because the wrappers
				// bypass the lazy handle-resolution path.
				if st.VT >= native.VT {
					t.Fatalf("MANA VT %v not below native ExaMPI VT %v (Fig. 3 effect lost)", st.VT, native.VT)
				}
			} else if st.VT < native.VT {
				// On mature implementations MANA is never faster.
				t.Fatalf("MANA VT %v < native VT %v", st.VT, native.VT)
			}
		})
	}
}

func TestLegacyDesignOnMPICHFamilyOnly(t *testing.T) {
	cfg := implFactory(t, "mpich")
	cfg.Design = DesignLegacy
	st, _, err := Run(cfg, 4, newRingApp(6), -1)
	if err != nil {
		t.Fatalf("legacy on mpich: %v", err)
	}
	native, err := RunNative(cfg, 4, newRingApp(6))
	if err != nil {
		t.Fatal(err)
	}
	sameChecksums(t, native.Checksums, st.Checksums, "legacy")

	// The legacy design must refuse pointer-handle implementations —
	// the original MANA limitation the paper removes (Section 4.1).
	for _, impl := range []string{"openmpi", "exampi"} {
		cfg := implFactory(t, impl)
		cfg.Design = DesignLegacy
		if _, _, err := Run(cfg, 2, newRingApp(2), -1); err == nil {
			t.Fatalf("legacy design ran on %s", impl)
		}
	}
}

// ---------------------------------------------------------------------
// checkpoint and continue

func TestCheckpointContinueSameResults(t *testing.T) {
	for _, impl := range impls.Names() {
		t.Run(impl, func(t *testing.T) {
			cfg := implFactory(t, impl)
			plain, _, err := Run(cfg, testRanks, newRingApp(testSteps), -1)
			if err != nil {
				t.Fatal(err)
			}
			ck, images, err := Run(cfg, testRanks, newRingApp(testSteps), 5)
			if err != nil {
				t.Fatal(err)
			}
			if ck.CkptTaken != 1 || len(images) != testRanks {
				t.Fatalf("taken=%d images=%d", ck.CkptTaken, len(images))
			}
			sameChecksums(t, plain.Checksums, ck.Checksums, "checkpoint-continue")
			// The checkpointed run pays for the image write.
			if ck.VT <= plain.VT {
				t.Fatalf("checkpointed VT %v not above plain VT %v", ck.VT, plain.VT)
			}
		})
	}
}

func TestCheckpointDrainsInFlightMessages(t *testing.T) {
	cfg := implFactory(t, "mpich")
	// Checkpoint at boundary 5: each rank's step-4 ring message to its
	// successor is in flight (received in step 5).
	_, images, err := Run(cfg, testRanks, newRingApp(testSteps), 5)
	if err != nil {
		t.Fatal(err)
	}
	drained := 0
	for _, data := range images {
		img, err := ckptimg.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		drained += len(img.Drained)
		for _, d := range img.Drained {
			if d.Tag != 7 || len(d.Payload) != 32 {
				t.Fatalf("unexpected drained message %+v", d)
			}
		}
	}
	if drained != testRanks {
		t.Fatalf("drained %d messages, want %d (one ring message per rank)", drained, testRanks)
	}
}

// ---------------------------------------------------------------------
// checkpoint, kill, restart

func TestCheckpointRestartSameResults(t *testing.T) {
	for _, impl := range impls.Names() {
		t.Run(impl, func(t *testing.T) {
			cfg := implFactory(t, impl)
			plain, _, err := Run(cfg, testRanks, newRingApp(testSteps), -1)
			if err != nil {
				t.Fatal(err)
			}
			// Checkpoint at step 5 and stop (preemption).
			st, store := stopAt(t, cfg, testRanks, newRingApp(testSteps), 5)
			if !st.Stopped {
				t.Fatal("job did not stop at checkpoint")
			}
			// Restart in a brand-new "process" with a fresh lower half.
			cfg2 := implFactory(t, impl)
			rst, err := restartWait(cfg2, store, newRingApp(testSteps))
			if err != nil {
				t.Fatalf("restart: %v", err)
			}
			sameChecksums(t, plain.Checksums, rst.Checksums, "restart")
		})
	}
}

func TestRestartAtEveryBoundary(t *testing.T) {
	// Checkpoint at each possible boundary, restart, and verify bitwise
	// equality — including boundary 0 (nothing executed) and the final
	// boundary (everything executed).
	cfg := implFactory(t, "mpich")
	plain, _, err := Run(cfg, 4, newRingApp(6), -1)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s <= 6; s++ {
		_, st := stopAt(t, implFactory(t, "mpich"), 4, newRingApp(6), s)
		rst, err := restartWait(implFactory(t, "mpich"), st, newRingApp(6))
		if err != nil {
			t.Fatalf("restart from %d: %v", s, err)
		}
		sameChecksums(t, plain.Checksums, rst.Checksums, fmt.Sprintf("boundary %d", s))
	}
}

func TestDoubleCheckpointAndRestartFromSecond(t *testing.T) {
	cfg := implFactory(t, "openmpi")
	plain, _, err := Run(cfg, 4, newRingApp(10), -1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := StartJob(cfg, 4, newRingApp(10))
	if err != nil {
		t.Fatal(err)
	}
	s.Co.RequestCheckpointAtStep(3)
	st, err := s.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if st.CkptTaken != 1 {
		t.Fatalf("taken %d", st.CkptTaken)
	}
	// Restart from the first checkpoint, take a second, restart again.
	cfg.ExitAtCheckpoint = true
	s2, err := RestartJobFromStore(cfg, s.Store(), newRingApp(10))
	if err != nil {
		t.Fatal(err)
	}
	s2.Co.RequestCheckpointAtStep(7)
	if _, err := s2.Wait(); err != nil {
		t.Fatal(err)
	}
	cfg.ExitAtCheckpoint = false
	rst, err := restartWait(cfg, s.Store(), newRingApp(10))
	if err != nil {
		t.Fatal(err)
	}
	if rst.RestartGen != 1 {
		t.Fatalf("restarted from generation %d, want the second (1)", rst.RestartGen)
	}
	sameChecksums(t, plain.Checksums, rst.Checksums, "second-generation restart")
}

// ---------------------------------------------------------------------
// async (signal-style) checkpoint request

func TestAsyncCheckpointRequest(t *testing.T) {
	cfg := implFactory(t, "mpich")
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
	images, err := s.Co.Images()
	if err != nil {
		t.Fatal(err)
	}
	img, err := ckptimg.Decode(images[0])
	if err != nil {
		t.Fatal(err)
	}
	if img.Step <= 0 || img.Step > 400 {
		t.Fatalf("checkpoint landed at step %d", img.Step)
	}
	// The run completes correctly after the checkpoint.
	plain, err := RunNative(cfg, 4, newRingApp(400))
	if err != nil {
		t.Fatal(err)
	}
	sameChecksums(t, plain.Checksums, st.Checksums, "async-continue")
}

// ---------------------------------------------------------------------
// cross-implementation restart (Section 9)

// TestCrossImplementationRestart restarts a checkpoint from the store
// under another implementation. Images taken with uniform handles
// restart anywhere with the checksums of an uninterrupted run; without
// them — the paper's design or the legacy one — the restart is refused
// with an error that names uniform handles.
func TestCrossImplementationRestart(t *testing.T) {
	cases := []struct {
		name     string
		from, to string
		uniform  bool
		design   Design
	}{
		{"uniform", "mpich", "openmpi", true, DesignVirtID},
		{"uniform", "openmpi", "mpich", true, DesignVirtID},
		{"uniform", "craympi", "openmpi", true, DesignVirtID},
		{"uniform", "mpich", "craympi", true, DesignVirtID},
		{"refused", "mpich", "openmpi", false, DesignVirtID},
		{"refused_legacy", "mpich", "craympi", false, DesignLegacy},
	}
	for _, tc := range cases {
		t.Run(tc.name+"/"+tc.from+"_to_"+tc.to, func(t *testing.T) {
			src := implFactory(t, tc.from)
			src.UniformHandles, src.Design = tc.uniform, tc.design
			_, st := stopAt(t, src, 4, newRingApp(8), 4)
			rst, err := restartWait(implFactory(t, tc.to), st, newRingApp(8))
			if !tc.uniform {
				if err == nil || !strings.Contains(err.Error(), "uniform") {
					t.Fatalf("restart without uniform handles not refused for want of them: %v", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("cross restart %s->%s: %v", tc.from, tc.to, err)
			}
			plain, err := RunStats(src, 4, newRingApp(8), -1)
			if err != nil {
				t.Fatal(err)
			}
			sameChecksums(t, plain.Checksums, rst.Checksums, "cross-impl")
		})
	}
}

// ---------------------------------------------------------------------
// image robustness

// TestRestartRejectsCorruptImages damages one rank's stored image — a
// bit flip, a truncation — and the restart from the store must fail
// instead of resuming from it.
func TestRestartRejectsCorruptImages(t *testing.T) {
	_, st := stopAt(t, implFactory(t, "mpich"), 2, newRingApp(4), 2)
	const key = "gen0000/rank01"
	good, err := st.Backend().Get(key)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x10
	for _, bad := range []struct {
		what string
		data []byte
	}{{"corrupted", flipped}, {"truncated", good[:len(good)/2]}} {
		if err := st.Backend().Put(key, bad.data); err != nil {
			t.Fatal(err)
		}
		if _, err := restartWait(implFactory(t, "mpich"), st, newRingApp(4)); err == nil {
			t.Fatalf("%s image accepted", bad.what)
		}
	}
}

// ---------------------------------------------------------------------
// wrapper-level details

func TestVirtualHandlesAreNotPhysical(t *testing.T) {
	cfg := implFactory(t, "openmpi")
	s, err := StartJob(cfg, 2, newRingApp(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	rt := s.runtimes[0]
	world, err := rt.LookupConst(mpi.ConstCommWorld)
	if err != nil {
		t.Fatal(err)
	}
	// The app-visible handle carries the MANA magic in its upper bits.
	if uint32(uint64(world)>>32) != vid.Magic {
		t.Fatalf("virtual handle %#x lacks MANA magic", uint64(world))
	}
	// A raw physical handle must be rejected by the wrappers.
	phys, _ := rt.lower.LookupConst(mpi.ConstCommWorld)
	if _, err := rt.CommSize(phys); err == nil {
		t.Fatal("wrapper accepted a raw physical handle")
	}
}

func TestDtypeDecodeStrategy(t *testing.T) {
	cfg := implFactory(t, "mpich")
	cfg.DtypeStrategy = vid.StrategyDecode
	plain, _, err := Run(implFactory(t, "mpich"), 4, newRingApp(6), -1)
	if err != nil {
		t.Fatal(err)
	}
	_, st := stopAt(t, cfg, 4, newRingApp(6), 3)
	// The image's datatype descriptors were rewritten by decode.
	img := headImages(t, st)[0]
	foundDecoded := false
	for _, it := range img.Store.Items {
		if it.Kind == mpi.KindDatatype && it.Strategy == vid.StrategyDecode && it.Desc.Op == vid.DescTypeContig {
			foundDecoded = true
		}
	}
	if !foundDecoded {
		t.Fatal("no decode-strategy datatype descriptor in image")
	}
	rst, err := restartWait(implFactory(t, "mpich"), st, newRingApp(6))
	if err != nil {
		t.Fatal(err)
	}
	sameChecksums(t, plain.Checksums, rst.Checksums, "decode strategy")
}

func TestUnregisteredUserOpFailsUnderMana(t *testing.T) {
	bad := func(in, inout []byte, count, elemSize int) {}
	cfg := implFactory(t, "mpich")
	_, _, err := Run(cfg, 2, func() app.Instance { return &opApp{fn: bad} }, -1)
	if err == nil {
		t.Fatal("unregistered user op accepted under MANA")
	}
	// The error should carry an MPI class (MPI_ERR_OP).
	var me *mpi.Error
	if !errors.As(err, &me) {
		t.Fatalf("error lacks MPI class: %v", err)
	}
}

// opApp creates one user op in Setup.
type opApp struct {
	fn mpi.ReduceFunc
}

func (a *opApp) Setup(env *app.Env) error {
	_, err := env.P.OpCreate(a.fn, true)
	return err
}
func (a *opApp) Steps() int                        { return 0 }
func (a *opApp) Step(env *app.Env, step int) error { return nil }
func (a *opApp) Finalize(env *app.Env) error       { return nil }
func (a *opApp) Checksum() uint64                  { return 0 }
func (a *opApp) Snapshot() ([]byte, error)         { return nil, nil }
func (a *opApp) Restore(b []byte) error            { return nil }
func (a *opApp) FootprintBytes() int64             { return 0 }
