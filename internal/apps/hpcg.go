package apps

import (
	"fmt"
	"math"
	"time"

	"manasim/internal/app"
	"manasim/internal/mpi"
)

// HPCG proxy: the High Performance Conjugate Gradient benchmark
// (Table 1: 56 ranks, --nx=104 --ny=104 --nz=104 --it=50). The proxy
// runs a real conjugate-gradient iteration on a 7-point Poisson stencil
// over the local subgrid: per iteration one SpMV with face halo
// exchanges, two global dot products (MPI_Allreduce), and the vector
// updates. Setup builds the halo gather pattern with MPI_Type_indexed
// and exchanges partition metadata with MPI_Allgather — features ExaMPI
// does not provide, which is why the paper does not run HPCG on ExaMPI.
//
// The Steps count is total CG iterations (50 outer runs of a 50-step
// solve for the paper's --it=50 input).

func init() {
	register(Spec{
		Name:  "hpcg",
		Paper: "HPCG",
		Requires: []mpi.Feature{
			mpi.FeatTypeIndexed, mpi.FeatAllgather, mpi.FeatGatherScatter,
		},
		DefaultInput: func(site Site) Input {
			return Input{
				Ranks: 56, Steps: 2500, SimSteps: 10,
				StepCompute:  69600 * time.Microsecond, // 174s/2500 native (Fig. 2)
				PollsPerStep: 3000, Local: 10, FootprintMB: 934,
			}
		},
		InputLine: func(site Site) string { return "--nx=104 --ny=104 --nz=104 --it=50" },
		New: func(in Input) app.Factory {
			return func() app.Instance { return &hpcg{in: in.normalized()} }
		},
	})
}

// hpcgState is the rank's upper-half memory. The fields stand in
// snapshot order (fields below): everything Setup fixes for the life of
// the job first, the per-iteration state after it.
type hpcgState struct {
	In Input
	D  Decomp3D
	// Virtual handles held across checkpoints.
	World    mpi.Handle
	F64      mpi.Handle
	I64      mpi.Handle
	HaloType mpi.Handle // indexed datatype selecting the x-face
	// Partition metadata gathered at setup (one entry per rank).
	Partition []int64
	// A is the stored stencil matrix in fixed 7-slot rows (HPCG-style
	// row storage), built once at setup and never written again — like
	// the real HPCG, whose sparse matrix dominates the checkpoint
	// footprint and is bit-identical across generations, it is the
	// static bulk an incremental image skips. The proxy stencil applies
	// slots 0-4 (diagonal, ±x, ±y); slots 5-6 are allocated row padding
	// the kernel never reads.
	A []float64

	// Per-iteration state: everything from here on changes every step.
	Iter int
	RtR  float64
	// CG vectors on the local nx^3 grid.
	X, R, Pv, Ap []float64
}

// fields is the snapshot layout. A ends the static prefix — 64 % of the
// snapshot's bytes — so every delta chunk that lies wholly before Iter
// is unchanged from one generation to the next.
func (s *hpcgState) fields(c *snapCodec) {
	c.header(tagHPCG)
	c.input(&s.In)
	c.decomp(&s.D)
	c.handle("World", &s.World)
	c.handle("F64", &s.F64)
	c.handle("I64", &s.I64)
	c.handle("HaloType", &s.HaloType)
	n := s.In.Local * s.In.Local * s.In.Local
	c.i64s("Partition", &s.Partition, s.D.Size)
	c.f64s("A", &s.A, 7*n)
	c.int("Iter", &s.Iter)
	c.f64("RtR", &s.RtR)
	c.f64s("X", &s.X, n)
	c.f64s("R", &s.R, n)
	c.f64s("Pv", &s.Pv, n)
	c.f64s("Ap", &s.Ap, n)
}

type hpcg struct {
	in Input
	st hpcgState
	// pvBytes is the wire form of Pv's +x face, the elements HaloType
	// reads (wireBytes): transient scratch, not state, as are the ghost
	// plane's bytes and values the halo receive fills.
	pvBytes, ghostBytes []byte
	ghosts              []float64
}

func (h *hpcg) n() int { return h.in.Local * h.in.Local * h.in.Local }

// Setup implements app.Instance.
func (h *hpcg) Setup(env *app.Env) error {
	p := env.P
	world, err := p.LookupConst(mpi.ConstCommWorld)
	if err != nil {
		return err
	}
	f64, err := p.LookupConst(mpi.ConstFloat64)
	if err != nil {
		return err
	}
	i64, err := p.LookupConst(mpi.ConstInt64)
	if err != nil {
		return err
	}
	nx := h.in.Local
	n := h.n()

	// Indexed datatype selecting the +x face (stride nx in the flat
	// array): the real HPCG gathers scattered boundary entries.
	blocklens := make([]int, nx*nx)
	displs := make([]int, nx*nx)
	for i := range blocklens {
		blocklens[i] = 1
		displs[i] = i*nx + nx - 1
	}
	halo, err := p.TypeIndexed(blocklens, displs, f64)
	if err != nil {
		return err
	}
	if err := p.TypeCommit(halo); err != nil {
		return err
	}

	st := hpcgState{
		In: h.in, D: NewDecomp3D(env.Rank, env.Size),
		A: make([]float64, 7*n),
		X: make([]float64, n), R: make([]float64, n),
		Pv: make([]float64, n), Ap: make([]float64, n),
		World: world, F64: f64, I64: i64, HaloType: halo,
	}
	// 7-point Poisson rows: +6 on the diagonal, -1 toward each
	// neighbor. Stored explicitly so SpMV reads the matrix the way the
	// real benchmark does instead of baking the stencil into code.
	for i := 0; i < n; i++ {
		st.A[7*i] = 6
		for k := 1; k < 7; k++ {
			st.A[7*i+k] = -1
		}
	}

	// Exchange partition metadata: every rank publishes its local size.
	send := mpi.Int64Bytes([]int64{int64(n)})
	recv := make([]byte, 8*env.Size)
	if err := p.Allgather(send, 1, i64, recv, 1, i64, world); err != nil {
		return fmt.Errorf("hpcg setup allgather: %w", err)
	}
	st.Partition = mpi.Int64s(recv)

	// b = 1 => r0 = b, p0 = r0 (x0 = 0), the standard HPCG start.
	for i := range st.R {
		st.R[i] = 1
		st.Pv[i] = 1
	}
	st.RtR = float64(n)
	h.st = st
	return nil
}

// Steps implements app.Instance.
func (h *hpcg) Steps() int { return h.in.SimSteps }

const hpcgTag = 300

// Step implements app.Instance: one CG iteration.
func (h *hpcg) Step(env *app.Env, step int) error {
	p := env.P
	s := &h.st
	nx := h.in.Local
	n := h.n()
	nb := s.D.NeighborsPeriodic()

	// Halo exchange of p's +x face, strided via the indexed type, into
	// a contiguous ghost plane from the -x neighbor.
	if err := p.Send(wireBytes(&h.pvBytes, s.Pv, nx-1, nx), 1, s.HaloType, nb[1], hpcgTag, s.World); err != nil {
		return fmt.Errorf("hpcg halo send: %w", err)
	}
	if err := progressPoll(p, s.World, h.in.polls()); err != nil {
		return err
	}
	ghost := scratch(&h.ghostBytes, 8*nx*nx)
	if _, err := p.Recv(ghost, nx*nx, s.F64, nb[0], hpcgTag, s.World); err != nil {
		return fmt.Errorf("hpcg halo recv: %w", err)
	}
	gx := scratch(&h.ghosts, nx*nx)
	mpi.GetFloat64s(ghost, gx)

	// SpMV: Ap = A*p from the stored rows (ghost face on -x). The -1
	// off-diagonals make v += A[k]*x exactly the v -= x of the
	// hardcoded stencil, so results are bit-identical.
	for i := 0; i < n; i++ {
		row := s.A[7*i : 7*i+7]
		v := row[0] * s.Pv[i]
		if i%nx > 0 {
			v += row[1] * s.Pv[i-1]
		} else {
			v += row[1] * gx[(i/nx)%(nx*nx)]
		}
		if i%nx < nx-1 {
			v += row[2] * s.Pv[i+1]
		}
		if i >= nx {
			v += row[3] * s.Pv[i-nx]
		}
		if i < n-nx {
			v += row[4] * s.Pv[i+nx]
		}
		s.Ap[i] = v
	}
	env.Compute(h.in.stepCompute())

	// alpha = rtr / <p, Ap>  (global dot product #1)
	local := 0.0
	for i := 0; i < n; i++ {
		local += s.Pv[i] * s.Ap[i]
	}
	sum := mustConst(p, mpi.ConstOpSum)
	recv := make([]byte, 8)
	if err := p.Allreduce(mpi.Float64Bytes([]float64{local}), recv, 1, s.F64, sum, s.World); err != nil {
		return fmt.Errorf("hpcg dot1: %w", err)
	}
	pAp := mpi.Float64s(recv)[0]
	if math.Abs(pAp) < 1e-300 {
		pAp = 1e-300
	}
	alpha := s.RtR / pAp

	// x += alpha p ; r -= alpha Ap ; new rtr (global dot product #2).
	local = 0
	for i := 0; i < n; i++ {
		s.X[i] += alpha * s.Pv[i]
		s.R[i] -= alpha * s.Ap[i]
		local += s.R[i] * s.R[i]
	}
	if err := p.Allreduce(mpi.Float64Bytes([]float64{local}), recv, 1, s.F64, sum, s.World); err != nil {
		return fmt.Errorf("hpcg dot2: %w", err)
	}
	newRtR := mpi.Float64s(recv)[0]
	beta := newRtR / math.Max(s.RtR, 1e-300)
	for i := 0; i < n; i++ {
		s.Pv[i] = s.R[i] + beta*s.Pv[i]
	}
	s.RtR = newRtR
	s.Iter++
	return nil
}

// Finalize implements app.Instance: gather the residual norms at rank 0
// (the benchmark's report phase).
func (h *hpcg) Finalize(env *app.Env) error {
	s := &h.st
	send := mpi.Float64Bytes([]float64{math.Sqrt(s.RtR)})
	var recv []byte
	if s.D.Rank == 0 {
		recv = make([]byte, 8*env.Size)
	} else {
		recv = make([]byte, 8)
	}
	if err := env.P.Gather(send, 1, s.F64, recv, 1, s.F64, 0, s.World); err != nil {
		return err
	}
	if s.D.Rank == 0 {
		norms := mpi.Float64s(recv)
		total := 0.0
		for _, v := range norms {
			total += v
		}
		s.X[0] += total * 1e-15
	}
	return nil
}

// Checksum implements app.Instance.
func (h *hpcg) Checksum() uint64 {
	d := newDigest()
	s := &h.st
	d.str("hpcg:").int(int64(s.D.Rank), ':').int(int64(s.Iter), ':').exp(s.RtR, 14, ';')
	for i := 0; i < len(s.X); i += 13 {
		d.float(s.X[i], ',')
	}
	for _, v := range s.Partition {
		d.int(v, ',')
	}
	return d.sum
}

// Snapshot implements app.Instance.
func (h *hpcg) Snapshot() ([]byte, error) {
	var c snapCodec
	h.st.fields(&c)
	c.allocate()
	h.st.fields(&c)
	return c.buf, nil
}

// Restore implements app.Instance.
func (h *hpcg) Restore(data []byte) error {
	var st hpcgState
	if err := decodeSnapshot("hpcg", data, &st); err != nil {
		return err
	}
	h.st, h.in = st, st.In
	return nil
}

// FootprintBytes implements app.Instance (Table 3: 934 MB/rank).
func (h *hpcg) FootprintBytes() int64 { return int64(h.in.FootprintMB) << 20 }
