package apps

import (
	"fmt"
	"time"

	"manasim/internal/app"
	"manasim/internal/mpi"
)

// CoMD proxy: classical molecular dynamics with Lennard-Jones forces on
// a 3-D domain decomposition (the ExaScale co-design proxy app). Per
// step: velocity-Verlet integration, six face halo exchanges of ghost
// atom positions, and a global potential-energy reduction. Table 1 runs
// it on 27 = 3^3 ranks with -N 10000; Table 2 on 64 = 4^3 ranks with
// -N 30000.
//
// The proxy keeps a miniature atom set per rank but performs the real
// exchange pattern: positions of boundary atoms are packed per face,
// sent to the periodic neighbor, and folded into the local force sum.
// The ring of sends is issued before the matching receives of the same
// step, so a checkpoint can catch CoMD messages in flight.

func init() {
	register(Spec{
		Name:  "comd",
		Paper: "CoMD",
		// Core subset only: contiguous buffers, allreduce — runs on
		// every implementation including ExaMPI (Figure 3).
		Requires: nil,
		DefaultInput: func(site Site) Input {
			if site == SitePerlmutter {
				return Input{
					Ranks: 64, Steps: 100, SimSteps: 4,
					StepCompute:  461 * time.Millisecond, // 46.1s native (Fig. 4)
					PollsPerStep: 9000, Local: 10, FootprintMB: 32,
				}
			}
			return Input{
				Ranks: 27, Steps: 100, SimSteps: 4,
				StepCompute:  328 * time.Millisecond, // 32.8s native (Fig. 2)
				PollsPerStep: 7500, Local: 8, FootprintMB: 32,
			}
		},
		InputLine: func(site Site) string {
			if site == SitePerlmutter {
				return "-N 30000"
			}
			return "-N 10000"
		},
		New: func(in Input) app.Factory {
			return func() app.Instance { return &comd{in: in.normalized()} }
		},
	})
}

// comdState is the serializable rank state ("upper-half memory"), in
// snapshot order: what Setup fixes first, the per-step state after it.
type comdState struct {
	In Input
	D  Decomp3D
	// Virtual handles held across checkpoints.
	World mpi.Handle
	F64   mpi.Handle

	EPot  float64
	Pos   []float64 // 3N positions
	Vel   []float64 // 3N velocities
	Force []float64 // 3N forces
}

// fields is the snapshot layout.
func (s *comdState) fields(c *snapCodec) {
	c.header(tagCoMD)
	c.input(&s.In)
	c.decomp(&s.D)
	c.handle("World", &s.World)
	c.handle("F64", &s.F64)
	c.f64("EPot", &s.EPot)
	n := 3 * s.In.Local * s.In.Local * 4
	c.f64s("Pos", &s.Pos, n)
	c.f64s("Vel", &s.Vel, n)
	c.f64s("Force", &s.Force, n)
}

type comd struct {
	in Input
	st comdState
	// The halo exchange's face and ghost buffers: transient scratch
	// reused every step, not state.
	faceBytes, inBytes []byte
	face, ghosts       []float64
}

// atomsPerRank is the miniature atom count (the real -N is modeled by
// StepCompute and FootprintMB).
func (c *comd) atoms() int { return c.in.Local * c.in.Local * 4 }

// Setup implements app.Instance.
func (c *comd) Setup(env *app.Env) error {
	p := env.P
	world, err := p.LookupConst(mpi.ConstCommWorld)
	if err != nil {
		return err
	}
	f64, err := p.LookupConst(mpi.ConstFloat64)
	if err != nil {
		return err
	}
	n := c.atoms()
	st := comdState{
		In: c.in, D: NewDecomp3D(env.Rank, env.Size),
		Pos: make([]float64, 3*n), Vel: make([]float64, 3*n), Force: make([]float64, 3*n),
		World: world, F64: f64,
	}
	rng := newXorshift(c.in.Seed + uint64(env.Rank)*1000003 + 17)
	for i := range st.Pos {
		st.Pos[i] = rng.float()
		st.Vel[i] = (rng.float() - 0.5) * 1e-2
	}
	c.st = st
	return nil
}

// Steps implements app.Instance.
func (c *comd) Steps() int { return c.in.SimSteps }

// faceTag tags halo messages by face.
const comdHaloTag = 100

// Step implements app.Instance.
func (c *comd) Step(env *app.Env, step int) error {
	p := env.P
	s := &c.st
	n := c.atoms()
	nb := s.D.NeighborsPeriodic()

	// Position half-kick + drift (velocity Verlet part 1).
	const dt = 1e-3
	for i := 0; i < 3*n; i++ {
		s.Vel[i] += 0.5 * dt * s.Force[i]
		s.Pos[i] += dt * s.Vel[i]
	}

	// Pack boundary atoms per face (1/6 of atoms per face in the
	// miniature model) and exchange with all six periodic neighbors.
	// Sends are all issued before any receive: in-flight messages are
	// possible at a checkpoint boundary.
	per := n / 6
	if per == 0 {
		per = 1
	}
	face := scratch(&c.face, 3*per)
	for f := 0; f < 6; f++ {
		clear(face)
		copy(face, s.Pos[3*per*f%len(s.Pos):])
		if err := p.Send(wireBytes(&c.faceBytes, face, 0, 1), 3*per, s.F64, nb[f], comdHaloTag+f, s.World); err != nil {
			return fmt.Errorf("comd halo send face %d: %w", f, err)
		}
	}
	// Progress polling while "waiting" for ghosts (the call traffic of
	// Section 6.3).
	if err := progressPoll(p, s.World, c.in.polls()); err != nil {
		return err
	}
	ghosts := scratch(&c.ghosts, 3*per)
	in := scratch(&c.inBytes, 8*3*per)
	epot := 0.0
	for f := 0; f < 6; f++ {
		// The message from the opposite face of the neighbor.
		opp := f ^ 1
		if _, err := p.Recv(in, 3*per, s.F64, nb[opp], comdHaloTag+f, s.World); err != nil {
			return fmt.Errorf("comd halo recv face %d: %w", f, err)
		}
		mpi.GetFloat64s(in, ghosts)
		// Fold ghost interactions into forces (miniature LJ).
		for i := 0; i < per; i++ {
			dx := s.Pos[3*i] - ghosts[3*i]
			r2 := dx*dx + 1e-3
			inv6 := 1.0 / (r2 * r2 * r2)
			fmag := 24 * inv6 * (2*inv6 - 1) / r2
			s.Force[3*i] = 0.99*s.Force[3*i] + 1e-4*fmag
			epot += 4 * inv6 * (inv6 - 1) * 1e-6
		}
	}

	// Local force work (the real kernel cost is charged to the clock).
	for i := 0; i < 3*n; i++ {
		s.Force[i] = 0.995*s.Force[i] - 1e-5*s.Pos[i]
		s.Vel[i] += 0.5 * dt * s.Force[i]
	}
	env.Compute(c.in.stepCompute())

	// Global potential-energy reduction each step.
	recv := make([]byte, 8)
	if err := p.Allreduce(mpi.Float64Bytes([]float64{epot}), recv, 1, s.F64, mustConst(p, mpi.ConstOpSum), s.World); err != nil {
		return fmt.Errorf("comd energy allreduce: %w", err)
	}
	s.EPot = mpi.Float64s(recv)[0]
	return nil
}

// Finalize implements app.Instance.
func (c *comd) Finalize(env *app.Env) error {
	// Kinetic-energy reduction as a closing verification collective.
	s := &c.st
	ke := 0.0
	for _, v := range s.Vel {
		ke += v * v
	}
	recv := make([]byte, 8)
	if err := env.P.Allreduce(mpi.Float64Bytes([]float64{ke}), recv, 1, s.F64,
		mustConst(env.P, mpi.ConstOpSum), s.World); err != nil {
		return err
	}
	s.EPot += mpi.Float64s(recv)[0] * 1e-9
	return nil
}

// Checksum implements app.Instance.
func (c *comd) Checksum() uint64 {
	d := newDigest()
	s := &c.st
	// The decomposition spelled out as its String method prints it:
	// "comd:%d:%dx%dx%d@(%d,%d,%d):%.12e;".
	g := &s.D
	d.str("comd:").int(int64(g.Rank), ':').int(int64(g.PX), 'x').int(int64(g.PY), 'x').int(int64(g.PZ), '@').
		str("(").int(int64(g.X), ',').int(int64(g.Y), ',').int(int64(g.Z), ')').str(":").exp(s.EPot, 12, ';')
	for i := 0; i < len(s.Pos); i += 7 {
		d.float(s.Pos[i], ',')
	}
	for i := 0; i < len(s.Vel); i += 11 {
		d.float(s.Vel[i], ',')
	}
	return d.sum
}

// Snapshot implements app.Instance.
func (c *comd) Snapshot() ([]byte, error) {
	var sc snapCodec
	c.st.fields(&sc)
	sc.allocate()
	c.st.fields(&sc)
	return sc.buf, nil
}

// Restore implements app.Instance.
func (c *comd) Restore(data []byte) error {
	var st comdState
	if err := decodeSnapshot("comd", data, &st); err != nil {
		return err
	}
	c.st, c.in = st, st.In
	return nil
}

// FootprintBytes implements app.Instance (Table 3: 32 MB/rank).
func (c *comd) FootprintBytes() int64 { return int64(c.in.FootprintMB) << 20 }

// mustConst resolves a constant whose existence is guaranteed.
func mustConst(p mpi.Proc, name mpi.ConstName) mpi.Handle {
	h, err := p.LookupConst(name)
	if err != nil {
		panic(fmt.Sprintf("apps: constant %v: %v", name, err))
	}
	return h
}
