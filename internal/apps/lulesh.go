package apps

import (
	"fmt"
	"math"
	"time"

	"manasim/internal/app"
	"manasim/internal/mpi"
)

// LULESH-2.0 proxy: the Livermore unstructured Lagrangian explicit
// shock hydrodynamics mini-app. It runs on cubic rank counts (Table 1:
// 27 = 3^3, -i 100 -s 100) and per step performs three communication
// phases (force, position, and monotonic-q gradients in the real code —
// modeled as three face exchanges with large messages), followed by the
// global MIN reduction that computes the stable time increment.
//
// Per the paper's methodology note, the proxy corresponds to the
// non-OpenMP build (Section 6.1's thrashing workaround), and its
// context-switch rate is the lowest of the five applications (1.3 M
// CS/s, Section 6.3): few, large messages.

func init() {
	register(Spec{
		Name:     "lulesh",
		Paper:    "Lulesh-2",
		Requires: nil, // core subset: runs on ExaMPI (Figure 3)
		DefaultInput: func(site Site) Input {
			return Input{
				Ranks: 27, Steps: 100, SimSteps: 2,
				StepCompute:  1730 * time.Millisecond, // 173s native (Fig. 2)
				PollsPerStep: 27000, Local: 12, FootprintMB: 207,
			}
		},
		InputLine: func(site Site) string { return "-p -i 100 -s 100" },
		New: func(in Input) app.Factory {
			return func() app.Instance { return &lulesh{in: in.normalized()} }
		},
	})
}

// luleshState is the rank's upper-half memory, in snapshot order: what
// Setup fixes first, the per-cycle state after it.
type luleshState struct {
	In    Input
	D     Decomp3D
	World mpi.Handle
	F64   mpi.Handle

	DtCourant float64
	Cycle     int
	// Nodal fields on an s^3 local mesh.
	E, P, Q []float64 // energy, pressure, artificial viscosity
}

// fields is the snapshot layout.
func (s *luleshState) fields(c *snapCodec) {
	c.header(tagLULESH)
	c.input(&s.In)
	c.decomp(&s.D)
	c.handle("World", &s.World)
	c.handle("F64", &s.F64)
	c.f64("DtCourant", &s.DtCourant)
	c.int("Cycle", &s.Cycle)
	n := s.In.Local * s.In.Local * s.In.Local
	c.f64s("E", &s.E, n)
	c.f64s("P", &s.P, n)
	c.f64s("Q", &s.Q, n)
}

type lulesh struct {
	in Input
	st luleshState
}

func (l *lulesh) cells() int { return l.in.Local * l.in.Local * l.in.Local }

// Setup implements app.Instance.
func (l *lulesh) Setup(env *app.Env) error {
	p := env.P
	world, err := p.LookupConst(mpi.ConstCommWorld)
	if err != nil {
		return err
	}
	f64, err := p.LookupConst(mpi.ConstFloat64)
	if err != nil {
		return err
	}
	n := l.cells()
	st := luleshState{
		In: l.in, D: NewDecomp3D(env.Rank, env.Size),
		E: make([]float64, n), P: make([]float64, n), Q: make([]float64, n),
		DtCourant: 1e-7,
		World:     world, F64: f64,
	}
	rng := newXorshift(l.in.Seed + uint64(env.Rank)*7919 + 3)
	for i := range st.E {
		st.E[i] = rng.float() * 1e-2
	}
	// The initial energy deposition at the origin corner (Sedov blast).
	if env.Rank == 0 {
		st.E[0] = 3.948746e+7 * 1e-7
	}
	l.st = st
	return nil
}

// Steps implements app.Instance.
func (l *lulesh) Steps() int { return l.in.SimSteps }

const luleshTag = 200

// exchangePhase performs one face-exchange phase with the given tag
// offset and message length (in float64s).
func (l *lulesh) exchangePhase(p mpi.Proc, phase, msglen int, src []float64) error {
	s := &l.st
	nb := s.D.Neighbors() // non-periodic: boundary faces are ProcNull
	buf := make([]float64, msglen)
	copy(buf, src)
	for f := 0; f < 6; f++ {
		if err := p.Send(mpi.Float64Bytes(buf), msglen, s.F64, nb[f], luleshTag+10*phase+f, s.World); err != nil {
			return fmt.Errorf("lulesh phase %d send: %w", phase, err)
		}
	}
	in := make([]byte, 8*msglen)
	for f := 0; f < 6; f++ {
		opp := f ^ 1
		st, err := p.Recv(in, msglen, s.F64, nb[opp], luleshTag+10*phase+f, s.World)
		if err != nil {
			return fmt.Errorf("lulesh phase %d recv: %w", phase, err)
		}
		if st.Source == mpi.ProcNull {
			continue
		}
		v := mpi.Float64s(in)
		for i := 0; i < msglen && i < len(s.Q); i++ {
			s.Q[i] = 0.75*s.Q[i] + 0.25*v[i%msglen]*1e-3
		}
	}
	return nil
}

// Step implements app.Instance.
func (l *lulesh) Step(env *app.Env, step int) error {
	p := env.P
	s := &l.st
	n := l.cells()
	msg := 3 * l.in.Local * l.in.Local // one face plane of 3 fields

	// Three communication phases per cycle (force, position, gradient).
	for phase := 0; phase < 3; phase++ {
		if err := l.exchangePhase(p, phase, msg, s.E); err != nil {
			return err
		}
		// Library progress polling spread across the phases.
		if err := progressPoll(p, s.World, l.in.polls()/3); err != nil {
			return err
		}
	}

	// Lagrange leapfrog: update element energy/pressure locally.
	for i := 0; i < n; i++ {
		vdov := s.E[i]*1e-4 - s.Q[i]*1e-5
		s.E[i] += vdov - 0.5*s.P[i]*1e-6
		if s.E[i] < 0 {
			s.E[i] = 0
		}
		s.P[i] = 0.3 * s.E[i]
	}
	env.Compute(l.in.stepCompute())

	// Courant time-step constraint: global MIN reduction.
	local := 1e-2 / (1 + math.Sqrt(s.E[0]+s.P[n/2]+1e-9))
	recv := make([]byte, 8)
	if err := p.Allreduce(mpi.Float64Bytes([]float64{local}), recv, 1, s.F64,
		mustConst(p, mpi.ConstOpMin), s.World); err != nil {
		return fmt.Errorf("lulesh dt allreduce: %w", err)
	}
	s.DtCourant = mpi.Float64s(recv)[0]
	s.Cycle++
	return nil
}

// Finalize implements app.Instance: the run reports the origin energy,
// reduced to rank 0 as the real code prints it.
func (l *lulesh) Finalize(env *app.Env) error {
	s := &l.st
	recv := make([]byte, 8)
	if err := env.P.Reduce(mpi.Float64Bytes([]float64{s.E[0]}), recv, 1, s.F64,
		mustConst(env.P, mpi.ConstOpMax), 0, s.World); err != nil {
		return err
	}
	if s.D.Rank == 0 {
		s.E[0] += mpi.Float64s(recv)[0] * 1e-12
	}
	return nil
}

// Checksum implements app.Instance.
func (l *lulesh) Checksum() uint64 {
	d := newDigest()
	s := &l.st
	d.str("lulesh:").int(int64(s.D.Rank), ':').int(int64(s.Cycle), ':').exp(s.DtCourant, 14, ';')
	for i := 0; i < len(s.E); i += 5 {
		d.float(s.E[i], ',')
		d.float(s.P[i], ';')
	}
	return d.sum
}

// Snapshot implements app.Instance.
func (l *lulesh) Snapshot() ([]byte, error) {
	var c snapCodec
	l.st.fields(&c)
	c.allocate()
	l.st.fields(&c)
	return c.buf, nil
}

// Restore implements app.Instance.
func (l *lulesh) Restore(data []byte) error {
	var st luleshState
	if err := decodeSnapshot("lulesh", data, &st); err != nil {
		return err
	}
	l.st, l.in = st, st.In
	return nil
}

// FootprintBytes implements app.Instance (Table 3: 207 MB/rank).
func (l *lulesh) FootprintBytes() int64 { return int64(l.in.FootprintMB) << 20 }
