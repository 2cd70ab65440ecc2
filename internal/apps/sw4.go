package apps

import (
	"fmt"
	"time"

	"manasim/internal/app"
	"manasim/internal/mpi"
)

// SW4 proxy: seismic wave propagation by summation-by-parts finite
// differences on a curvilinear mesh (Table 1: 56 ranks,
// tests/curvimr/energy-1.in; Table 2: 64 ranks). Each time step runs
// four Runge-Kutta-like substeps; every substep exchanges boundary
// planes of the displacement field with the four lateral neighbors,
// sending strided y-planes through MPI_Type_vector (not available in
// ExaMPI — SW4 is not in Figure 3). The call rate is second only to
// LAMMPS (12.5 M CS/s, Section 6.3).

func init() {
	register(Spec{
		Name:     "sw4",
		Paper:    "SW4",
		Requires: []mpi.Feature{mpi.FeatTypeVector},
		DefaultInput: func(site Site) Input {
			if site == SitePerlmutter {
				return Input{
					Ranks: 64, Steps: 2000, SimSteps: 5,
					StepCompute:  36550 * time.Microsecond, // 73.1s native (Fig. 4)
					PollsPerStep: 4600, Local: 14, FootprintMB: 49,
				}
			}
			return Input{
				Ranks: 56, Steps: 2000, SimSteps: 5,
				StepCompute:  44600 * time.Microsecond, // 89.2s native (Fig. 2)
				PollsPerStep: 4600, Local: 14, FootprintMB: 49,
			}
		},
		InputLine: func(site Site) string { return "tests/curvimr/energy-1.in" },
		New: func(in Input) app.Factory {
			return func() app.Instance { return &sw4{in: in.normalized()} }
		},
	})
}

const sw4Tag = 500

// sw4State is the rank's upper-half memory, in snapshot order: what
// Setup fixes first, the per-step state after it.
type sw4State struct {
	In     Input
	D      Decomp3D
	World  mpi.Handle
	F64    mpi.Handle
	YPlane mpi.Handle // vector type: one y-plane (strided rows)

	Energy float64
	TStep  int
	// U and Up are the displacement fields on the nx*nx local plane
	// stack (nx columns x nx rows, flattened row-major).
	U, Up []float64
}

// fields is the snapshot layout.
func (s *sw4State) fields(c *snapCodec) {
	c.header(tagSW4)
	c.input(&s.In)
	c.decomp(&s.D)
	c.handle("World", &s.World)
	c.handle("F64", &s.F64)
	c.handle("YPlane", &s.YPlane)
	c.f64("Energy", &s.Energy)
	c.int("TStep", &s.TStep)
	n := s.In.Local * s.In.Local
	c.f64s("U", &s.U, n)
	c.f64s("Up", &s.Up, n)
}

type sw4 struct {
	in Input
	st sw4State
	// uBytes is the wire form of U's y-plane, the elements both
	// YPlane sends read (wireBytes): transient scratch, not state.
	uBytes []byte
}

func (w *sw4) n() int { return w.in.Local * w.in.Local }

// Setup implements app.Instance.
func (w *sw4) Setup(env *app.Env) error {
	p := env.P
	world, err := p.LookupConst(mpi.ConstCommWorld)
	if err != nil {
		return err
	}
	f64, err := p.LookupConst(mpi.ConstFloat64)
	if err != nil {
		return err
	}
	nx := w.in.Local
	// A y-plane is one element from each row: count=nx blocks of 1,
	// stride nx.
	yplane, err := p.TypeVector(nx, 1, nx, f64)
	if err != nil {
		return err
	}
	if err := p.TypeCommit(yplane); err != nil {
		return err
	}
	st := sw4State{
		In: w.in, D: NewDecomp3D(env.Rank, env.Size),
		U: make([]float64, w.n()), Up: make([]float64, w.n()),
		World: world, F64: f64, YPlane: yplane,
	}
	rng := newXorshift(w.in.Seed + uint64(env.Rank)*6151 + 29)
	for i := range st.U {
		st.U[i] = rng.float() * 1e-3
	}
	// Point source at the center rank.
	if env.Rank == env.Size/2 {
		st.U[w.n()/2] = 1
	}
	w.st = st
	return nil
}

// Steps implements app.Instance.
func (w *sw4) Steps() int { return w.in.SimSteps }

// substep exchanges boundary planes laterally and applies the stencil.
func (w *sw4) substep(p mpi.Proc, sub int, polls int) error {
	s := &w.st
	nx := w.in.Local
	nb := s.D.NeighborsPeriodic()
	tag := sw4Tag + sub

	// -x/+x: contiguous rows (first and last row).
	if err := p.Send(mpi.Float64Bytes(s.U[:nx]), nx, s.F64, nb[0], tag, s.World); err != nil {
		return err
	}
	if err := p.Send(mpi.Float64Bytes(s.U[len(s.U)-nx:]), nx, s.F64, nb[1], tag, s.World); err != nil {
		return err
	}
	// -y/+y: strided columns via the vector type.
	u := wireBytes(&w.uBytes, s.U, 0, nx)
	if err := p.Send(u, 1, s.YPlane, nb[2], tag+4, s.World); err != nil {
		return err
	}
	if err := p.Send(u, 1, s.YPlane, nb[3], tag+4, s.World); err != nil {
		return err
	}
	if err := progressPoll(p, s.World, polls); err != nil {
		return err
	}

	rows := make([]byte, 8*nx)
	var top, bottom, left, right []float64
	if _, err := p.Recv(rows, nx, s.F64, nb[1], tag, s.World); err != nil {
		return err
	}
	top = mpi.Float64s(rows)
	if _, err := p.Recv(rows, nx, s.F64, nb[0], tag, s.World); err != nil {
		return err
	}
	bottom = mpi.Float64s(rows)
	if _, err := p.Recv(rows, nx, s.F64, nb[3], tag+4, s.World); err != nil {
		return err
	}
	right = mpi.Float64s(rows)
	if _, err := p.Recv(rows, nx, s.F64, nb[2], tag+4, s.World); err != nil {
		return err
	}
	left = mpi.Float64s(rows)

	// SBP-flavored 5-point update into Up.
	c := 0.05
	for j := 0; j < nx; j++ {
		for i := 0; i < nx; i++ {
			idx := j*nx + i
			um := s.U[idx]
			var uy0, uy1, ux0, ux1 float64
			if j > 0 {
				uy0 = s.U[idx-nx]
			} else {
				uy0 = bottom[i]
			}
			if j < nx-1 {
				uy1 = s.U[idx+nx]
			} else {
				uy1 = top[i]
			}
			if i > 0 {
				ux0 = s.U[idx-1]
			} else {
				ux0 = left[j]
			}
			if i < nx-1 {
				ux1 = s.U[idx+1]
			} else {
				ux1 = right[j]
			}
			s.Up[idx] = um + c*(ux0+ux1+uy0+uy1-4*um)
		}
	}
	s.U, s.Up = s.Up, s.U
	return nil
}

// Step implements app.Instance: four RK substeps plus the per-step
// energy reduction.
func (w *sw4) Step(env *app.Env, step int) error {
	p := env.P
	s := &w.st
	polls := w.in.polls() / 4
	for sub := 0; sub < 4; sub++ {
		if err := w.substep(p, sub, polls); err != nil {
			return fmt.Errorf("sw4 substep %d: %w", sub, err)
		}
	}
	env.Compute(w.in.stepCompute())

	local := 0.0
	for _, v := range s.U {
		local += v * v
	}
	recv := make([]byte, 8)
	if err := p.Allreduce(mpi.Float64Bytes([]float64{local}), recv, 1, s.F64,
		mustConst(p, mpi.ConstOpSum), s.World); err != nil {
		return fmt.Errorf("sw4 energy allreduce: %w", err)
	}
	s.Energy = mpi.Float64s(recv)[0]
	s.TStep++
	return nil
}

// Finalize implements app.Instance.
func (w *sw4) Finalize(env *app.Env) error {
	s := &w.st
	recv := make([]byte, 8)
	if err := env.P.Reduce(mpi.Float64Bytes([]float64{s.Energy}), recv, 1, s.F64,
		mustConst(env.P, mpi.ConstOpMax), 0, s.World); err != nil {
		return err
	}
	if s.D.Rank == 0 {
		s.Energy += mpi.Float64s(recv)[0] * 1e-12
	}
	return nil
}

// Checksum implements app.Instance.
func (w *sw4) Checksum() uint64 {
	d := newDigest()
	s := &w.st
	d.str("sw4:").int(int64(s.D.Rank), ':').int(int64(s.TStep), ':').exp(s.Energy, 14, ';')
	for i := 0; i < len(s.U); i += 3 {
		d.float(s.U[i], ',')
	}
	return d.sum
}

// Snapshot implements app.Instance.
func (w *sw4) Snapshot() ([]byte, error) {
	var c snapCodec
	w.st.fields(&c)
	c.allocate()
	w.st.fields(&c)
	return c.buf, nil
}

// Restore implements app.Instance.
func (w *sw4) Restore(data []byte) error {
	var st sw4State
	if err := decodeSnapshot("sw4", data, &st); err != nil {
		return err
	}
	w.st, w.in = st, st.In
	return nil
}

// FootprintBytes implements app.Instance (Table 3: 49 MB/rank).
func (w *sw4) FootprintBytes() int64 { return int64(w.in.FootprintMB) << 20 }
