package apps

import (
	"fmt"
	"time"

	"manasim/internal/app"
	"manasim/internal/mpi"
)

// LAMMPS proxy: the classic bench/in.lj Lennard-Jones benchmark
// (Table 1: 56 ranks, run=50000; Table 2: 64 ranks). LAMMPS makes by
// far the most MPI calls per second of the five applications (22.9 M
// CS/s, Section 6.3): tens of thousands of steps with small messages,
// nonblocking ghost-atom exchanges, and frequent progress polling —
// which is why its MANA overhead without FSGSBASE is the largest in
// Figure 2 (~32% on MPICH, ~37% on Open MPI).
//
// The proxy reproduces that structure: per step a *pipelined*
// nonblocking ghost exchange (the Isend of step k is received in step
// k+1, so checkpoints catch LAMMPS messages in flight), strided
// ghost-position sends via MPI_Type_vector (unsupported by ExaMPI —
// LAMMPS is not in Figure 3), and an atom-migration Alltoall every 20
// steps when the neighbor lists are rebuilt.

func init() {
	register(Spec{
		Name:     "lammps",
		Paper:    "LAMMPS",
		Requires: []mpi.Feature{mpi.FeatTypeVector, mpi.FeatGatherScatter},
		DefaultInput: func(site Site) Input {
			if site == SitePerlmutter {
				return Input{
					Ranks: 64, Steps: 50000, SimSteps: 400,
					// 28.0s native total (Fig. 4); the per-step ghost
					// exchange and migration Alltoall add ~14us/step of
					// network time on the Slingshot model.
					StepCompute:  546 * time.Microsecond,
					PollsPerStep: 125, Local: 6, FootprintMB: 42,
				}
			}
			return Input{
				Ranks: 56, Steps: 50000, SimSteps: 400,
				// 28.9s native total (Fig. 2); ~92us/step of the budget
				// is the TCP-model network time of the ghost exchange.
				StepCompute:  486 * time.Microsecond,
				PollsPerStep: 125, Local: 6, FootprintMB: 42,
			}
		},
		InputLine: func(site Site) string { return "-in bench/in.lj (run=50000)" },
		New: func(in Input) app.Factory {
			return func() app.Instance { return &lammps{in: in.normalized()} }
		},
	})
}

const (
	lammpsGhostTag   = 400
	lammpsMigrateTag = 410
	lammpsRebuild    = 20 // neighbor-list rebuild period
)

// lammpsState is the rank's upper-half memory, in snapshot order:
// what Setup fixes first, the per-step state after it.
type lammpsState struct {
	In        Input
	D         Decomp3D
	World     mpi.Handle
	F64       mpi.Handle
	GhostType mpi.Handle // vector type: x coordinates of ghost atoms

	PE         float64
	Migrations int64
	// Pipeline flag: a ghost exchange from the previous step is in
	// flight and must be received at the start of this step.
	Pipelined bool
	// Per-atom arrays (3N packed xyz).
	Pos, Vel, Frc []float64
}

// fields is the snapshot layout.
func (s *lammpsState) fields(c *snapCodec) {
	c.header(tagLAMMPS)
	c.input(&s.In)
	c.decomp(&s.D)
	c.handle("World", &s.World)
	c.handle("F64", &s.F64)
	c.handle("GhostType", &s.GhostType)
	c.f64("PE", &s.PE)
	c.i64("Migrations", &s.Migrations)
	c.bool("Pipelined", &s.Pipelined)
	n := 3 * s.In.Local * s.In.Local * s.In.Local
	c.f64s("Pos", &s.Pos, n)
	c.f64s("Vel", &s.Vel, n)
	c.f64s("Frc", &s.Frc, n)
}

type lammps struct {
	in Input
	st lammpsState
	// posBytes is the wire form of the Pos elements GhostType reads
	// (wireBytes): transient scratch, not state, and not rewritten
	// before the request's Wait. The receive side's ghost bytes and
	// values, and a rebuild's migration counts, are scratch likewise.
	posBytes            []byte
	inBytes, countBytes []byte
	ghosts              []float64
	counts              []int64
}

func (l *lammps) atoms() int { return l.in.Local * l.in.Local * l.in.Local }

// Setup implements app.Instance.
func (l *lammps) Setup(env *app.Env) error {
	p := env.P
	world, err := p.LookupConst(mpi.ConstCommWorld)
	if err != nil {
		return err
	}
	f64, err := p.LookupConst(mpi.ConstFloat64)
	if err != nil {
		return err
	}
	n := l.atoms()
	// Ghost positions are the x coordinates of every 4th atom: a
	// strided vector type over the packed xyz array.
	ghost, err := p.TypeVector(n/4, 1, 12, f64)
	if err != nil {
		return err
	}
	if err := p.TypeCommit(ghost); err != nil {
		return err
	}
	st := lammpsState{
		In: l.in, D: NewDecomp3D(env.Rank, env.Size),
		Pos: make([]float64, 3*n), Vel: make([]float64, 3*n), Frc: make([]float64, 3*n),
		World: world, F64: f64, GhostType: ghost,
	}
	rng := newXorshift(l.in.Seed + uint64(env.Rank)*104729 + 7)
	for i := range st.Pos {
		st.Pos[i] = rng.float() * float64(l.in.Local)
		st.Vel[i] = (rng.float() - 0.5) * 1e-3
	}
	l.st = st
	return nil
}

// Steps implements app.Instance.
func (l *lammps) Steps() int { return l.in.SimSteps }

// Step implements app.Instance.
func (l *lammps) Step(env *app.Env, step int) error {
	p := env.P
	s := &l.st
	n := l.atoms()
	nb := s.D.NeighborsPeriodic()
	nGhost := n / 4

	// Receive the pipelined ghost exchange issued LAST step — under a
	// checkpoint at this boundary, that message was drained and is
	// served from MANA's buffer.
	if s.Pipelined {
		in := scratch(&l.inBytes, 8*nGhost)
		if _, err := p.Recv(in, nGhost, s.F64, nb[0], lammpsGhostTag, s.World); err != nil {
			return fmt.Errorf("lammps pipelined recv: %w", err)
		}
		g := scratch(&l.ghosts, nGhost)
		mpi.GetFloat64s(in, g)
		for i := 0; i < nGhost; i++ {
			dx := s.Pos[12*i] - g[i]
			r2 := dx*dx + 0.25
			inv6 := 1.0 / (r2 * r2 * r2)
			s.Frc[12*i] = 0.98*s.Frc[12*i] + 1e-3*24*inv6*(2*inv6-1)/r2
			s.PE += 4 * inv6 * (inv6 - 1) * 1e-9
		}
		s.Pipelined = false
	}

	// Velocity-Verlet kick/drift with the current forces.
	const dt = 5e-3
	for i := 0; i < 3*n; i++ {
		s.Vel[i] += 0.5 * dt * s.Frc[i]
		s.Pos[i] += dt * s.Vel[i]
	}
	env.Compute(l.in.stepCompute())

	// The library's progress polling: LAMMPS's dominant call traffic.
	if err := progressPoll(p, s.World, l.in.polls()); err != nil {
		return err
	}

	// Neighbor-list rebuild every lammpsRebuild steps: atoms migrate
	// between ranks (Alltoall of per-destination counts).
	if step%lammpsRebuild == lammpsRebuild-1 {
		counts := scratch(&l.counts, s.D.Size)
		for d := range counts {
			counts[d] = int64((s.D.Rank*31 + d*17 + step) % 5)
		}
		buf := scratch(&l.countBytes, 16*s.D.Size)
		send, recv := buf[:8*s.D.Size], buf[8*s.D.Size:]
		mpi.PutInt64s(send, counts)
		i64 := mustConst(p, mpi.ConstInt64)
		if err := p.Alltoall(send, 1, i64, recv, 1, i64, s.World); err != nil {
			return fmt.Errorf("lammps migration alltoall: %w", err)
		}
		mpi.GetInt64s(recv, counts)
		for _, c := range counts {
			s.Migrations += c
		}
	}

	// Issue the next pipelined ghost exchange: strided positions to the
	// +x neighbor, consumed at the start of step+1 (or drained by a
	// checkpoint, or received in Finalize after the last step).
	req, err := p.Isend(wireBytes(&l.posBytes, s.Pos, 0, 12), 1, s.GhostType, nb[1], lammpsGhostTag, s.World)
	if err != nil {
		return fmt.Errorf("lammps ghost isend: %w", err)
	}
	if _, err := p.Wait(req); err != nil {
		return err
	}
	s.Pipelined = true
	return nil
}

// Finalize implements app.Instance: drain the last pipelined message
// and reduce the potential energy.
func (l *lammps) Finalize(env *app.Env) error {
	p := env.P
	s := &l.st
	if s.Pipelined {
		nGhost := l.atoms() / 4
		nb := s.D.NeighborsPeriodic()
		in := make([]byte, 8*nGhost)
		if _, err := p.Recv(in, nGhost, s.F64, nb[0], lammpsGhostTag, s.World); err != nil {
			return err
		}
		s.Pipelined = false
	}
	recv := make([]byte, 8)
	if err := p.Allreduce(mpi.Float64Bytes([]float64{s.PE}), recv, 1, s.F64,
		mustConst(p, mpi.ConstOpSum), s.World); err != nil {
		return err
	}
	s.PE = mpi.Float64s(recv)[0]
	return nil
}

// Checksum implements app.Instance.
func (l *lammps) Checksum() uint64 {
	d := newDigest()
	s := &l.st
	d.str("lammps:").int(int64(s.D.Rank), ':').exp(s.PE, 12, ':').int(s.Migrations, ';')
	for i := 0; i < len(s.Pos); i += 17 {
		d.float(s.Pos[i], ',')
	}
	return d.sum
}

// Snapshot implements app.Instance.
func (l *lammps) Snapshot() ([]byte, error) {
	var c snapCodec
	l.st.fields(&c)
	c.allocate()
	l.st.fields(&c)
	return c.buf, nil
}

// Restore implements app.Instance.
func (l *lammps) Restore(data []byte) error {
	var st lammpsState
	if err := decodeSnapshot("lammps", data, &st); err != nil {
		return err
	}
	l.st, l.in = st, st.In
	return nil
}

// FootprintBytes implements app.Instance (Table 3: 42 MB/rank).
func (l *lammps) FootprintBytes() int64 { return int64(l.in.FootprintMB) << 20 }
