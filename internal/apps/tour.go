package apps

import (
	"fmt"
	"math"

	"manasim/internal/app"
	"manasim/internal/mpi"
)

// The tour is the VASP-style workload of the paper's introduction, an
// electronic minimization (collectives on k-point communicators)
// alternating step by step with an ionic relaxation (neighbour
// exchanges through derived datatypes), written to call every mpi.Proc
// method but Abort, so that each one runs under MANA and across a
// checkpoint. Setup builds the k-point communicator through CommGroup,
// GroupIncl and CommCreate (rank 0 is left outside and holds
// HandleNull), then frees the groups and the base of a derived type
// while the communicator and the type stay live, so a restart must
// replay objects the application already freed. What the tour learns
// by asking (ranks, sizes, group translations, type sizes, extents,
// envelopes, contents, receive counts) goes into its checksum.
//
// Setup picks the program from Caps() and the snapshot keeps it: where
// tourFull is false (ExaMPI) the tour skips Scatter, Gather, Allgather,
// TypeVector and TypeIndexed, and a restart continues the source's
// program, so it may move only to an implementation that supports it.
// The tour is not registered, so no experiment runs it.

// tourFull reports whether caps covers the full program.
func tourFull(caps mpi.CapSet) bool {
	return caps.Has(mpi.FeatGatherScatter) && caps.Has(mpi.FeatAllgather) &&
		caps.Has(mpi.FeatTypeVector) && caps.Has(mpi.FeatTypeIndexed)
}

const (
	tagTour    uint32 = 'T' | 'O'<<8 | 'U'<<16 | 'R'<<24
	tourVec           = 16 // length of the state vector
	tourRing          = 700
	tourStride        = 701
	tourGappy         = 702
)

// tourMaxAbs is the tour's user reduction: the element-wise maximum
// magnitude of float64s. MANA re-creates a user op at restart by the
// name it is registered under, so init registers it.
func tourMaxAbs(in, inout []byte, count, _ int) {
	a, b := mpi.Float64s(in[:8*count]), mpi.Float64s(inout[:8*count])
	for i := range b {
		b[i] = max(math.Abs(a[i]), math.Abs(b[i]))
	}
	mpi.PutFloat64s(inout, b)
}

func init() {
	if err := mpi.RegisterOp("apps.tour.maxabs", tourMaxAbs); err != nil {
		panic(err)
	}
}

// tourState is the snapshot, in layout order.
type tourState struct {
	Steps int
	Caps  uint64 // the program: the mpi.CapSet Setup saw
	// Virtual handles held across checkpoints: KPoint (HandleNull on
	// rank 0), the parity halves and a duplicate of the world.
	World, F64, Sum, MaxAbs mpi.Handle
	KPoint, Half, Ring      mpi.Handle
	Quad, Strided, Gappy    mpi.Handle // derived types
	Mix                     uint64     // introspection results, FNV-folded
	Vec                     []float64  // tourVec values
	Trace                   []int64    // Mix after each step
}

func (s *tourState) fields(c *snapCodec) {
	c.header(tagTour)
	c.int("Steps", &s.Steps)
	c.u64("Caps", &s.Caps)
	c.handle("World", &s.World)
	c.handle("F64", &s.F64)
	c.handle("Sum", &s.Sum)
	c.handle("MaxAbs", &s.MaxAbs)
	c.handle("KPoint", &s.KPoint)
	c.handle("Half", &s.Half)
	c.handle("Ring", &s.Ring)
	c.handle("Quad", &s.Quad)
	c.handle("Strided", &s.Strided)
	c.handle("Gappy", &s.Gappy)
	c.u64("Mix", &s.Mix)
	c.f64s("Vec", &s.Vec, tourVec)
	c.i64s("Trace", &s.Trace, s.Steps)
}

func (s *tourState) mix(vs ...int) {
	for _, v := range vs {
		s.Mix = (s.Mix ^ uint64(v)) * fnvPrime64
	}
}

// calls keeps the first error of a run of MPI calls. A call after a
// failure still runs, so a run checks err before a call that blocks.
type calls struct{ err error }

func (q *calls) ok(err error) bool {
	if q.err == nil {
		q.err = err
	}
	return q.err == nil
}

func (q *calls) h(h mpi.Handle, err error) mpi.Handle { q.ok(err); return h }
func (q *calls) n(n int, err error) int               { q.ok(err); return n }

type tour struct {
	steps int
	st    tourState
}

// NewTour returns the factory of a tour of the given number of steps.
func NewTour(steps int) app.Factory {
	return func() app.Instance { return &tour{steps: steps} }
}

// Setup implements app.Instance.
func (t *tour) Setup(env *app.Env) error {
	p, q := env.P, &calls{}
	s := tourState{Steps: t.steps, Caps: uint64(p.Caps()), Mix: fnvOffset64,
		Vec: make([]float64, tourVec), Trace: make([]int64, t.steps)}
	s.World = q.h(p.LookupConst(mpi.ConstCommWorld))
	s.F64 = q.h(p.LookupConst(mpi.ConstFloat64))
	s.Sum = q.h(p.LookupConst(mpi.ConstOpSum))
	s.mix(p.Rank(), p.Size())
	// Every rank but 0, in reverse order, so that k-point ranks and
	// world ranks differ.
	var members []int
	for r := env.Size - 1; r > 0; r-- {
		members = append(members, r)
	}
	wg := q.h(p.CommGroup(s.World))
	kg := q.h(p.GroupIncl(wg, members))
	s.mix(q.n(p.GroupSize(kg)), q.n(p.GroupRank(kg)))
	if q.err == nil {
		s.KPoint = q.h(p.CommCreate(s.World, kg))
		s.Half = q.h(p.CommSplit(s.World, env.Rank%2, env.Rank))
		s.Ring = q.h(p.CommDup(s.World))
	}
	q.ok(p.GroupFree(kg))
	q.ok(p.GroupFree(wg))
	pair := q.h(p.TypeContiguous(2, s.F64))
	s.Quad = q.h(p.TypeContiguous(2, pair))
	q.ok(p.TypeFree(pair))
	if tourFull(p.Caps()) {
		s.Strided = q.h(p.TypeVector(2, 1, 2, s.F64))
		s.Gappy = q.h(p.TypeIndexed([]int{1, 2}, []int{0, 3}, s.F64))
	} else {
		s.Strided = q.h(p.TypeContiguous(2, s.F64))
		s.Gappy = q.h(p.TypeContiguous(3, s.F64))
	}
	handles := []mpi.Handle{s.Quad, s.Strided, s.Gappy}
	for _, dt := range handles {
		q.ok(p.TypeCommit(dt))
	}
	s.MaxAbs = q.h(p.OpCreate(tourMaxAbs, true))
	// Every handle fits the width the implementation's mpi.h declares.
	bits := p.HandleBits()
	for _, h := range append(handles, s.World, s.F64, s.Sum, s.MaxAbs, s.KPoint, s.Half, s.Ring) {
		if bits < 64 && uint64(h)>>bits != 0 {
			q.ok(fmt.Errorf("handle %#x is wider than %d bits", uint64(h), bits))
		}
	}
	for i := range s.Vec {
		s.Vec[i] = float64(env.Rank*tourVec+i) * 1e-3
	}
	t.st = s
	if q.err != nil {
		return fmt.Errorf("tour on %s: %w", p.ImplName(), q.err)
	}
	return nil
}

// Steps implements app.Instance.
func (t *tour) Steps() int { return t.steps }

// Step implements app.Instance: even steps minimize, odd steps relax.
func (t *tour) Step(env *app.Env, step int) error {
	q := &calls{}
	if step%2 == 0 {
		t.minimize(env, q, step/2%env.Size)
	} else {
		t.relax(env, q)
	}
	if q.err == nil && q.ok(env.P.Barrier(t.st.World)) {
		t.st.Trace[step] = int64(t.st.Mix)
	}
	return q.err
}

// minimize runs the collectives: on the world, on the parity halves
// and, with group introspection, on the k-point communicator.
func (t *tour) minimize(env *app.Env, q *calls, root int) {
	p, s, n := env.P, &t.st, env.Size
	deal := make([]float64, n)
	for i := range deal {
		deal[i] = s.Vec[i%tourVec] + float64(i)
	}
	lead, half, kp := mpi.Float64Bytes(s.Vec[:2]), make([]byte, 16), make([]byte, 8*tourVec)
	mine, all, gathered, dealt := make([]byte, 8), make([]byte, 8*n), make([]byte, 8*n), make([]byte, 8*n)
	q.ok(p.Bcast(lead, 2, s.F64, root, s.World))
	if q.err == nil && tourFull(mpi.CapSet(s.Caps)) {
		q.ok(p.Scatter(mpi.Float64Bytes(deal), 1, s.F64, mine, 1, s.F64, root, s.World))
		q.ok(p.Allgather(mpi.Float64Bytes(s.Vec[2:3]), 1, s.F64, all, 1, s.F64, s.World))
		q.ok(p.Gather(mpi.Float64Bytes(s.Vec[3:4]), 1, s.F64, gathered, 1, s.F64, root, s.World))
	}
	if q.err == nil {
		q.ok(p.Alltoall(mpi.Float64Bytes(deal), 1, s.F64, dealt, 1, s.F64, s.World))
		q.ok(p.Reduce(mpi.Float64Bytes(s.Vec[4:6]), half, 2, s.F64, s.Sum, 0, s.Half))
	}
	if s.KPoint != mpi.HandleNull && q.err == nil {
		s.mix(q.n(p.CommRank(s.KPoint)), q.n(p.CommSize(s.KPoint)))
		q.ok(p.Allreduce(mpi.Float64Bytes(s.Vec), kp, tourVec, s.F64, s.MaxAbs, s.KPoint))
		// The k-point group against the world's, asked afresh each time.
		kg, wg := q.h(p.CommGroup(s.KPoint)), q.h(p.CommGroup(s.World))
		ranks := make([]int, q.n(p.GroupSize(kg)))
		for i := range ranks {
			ranks[i] = i
		}
		world := make([]int, len(ranks), len(ranks)+1)
		q.ok(p.GroupTranslateRanks(kg, ranks, wg, world))
		s.mix(append(world, q.n(p.GroupRank(kg)))...)
		q.ok(p.GroupFree(kg))
		q.ok(p.GroupFree(wg))
	}
	in := [][]byte{lead, mine, all, gathered, dealt, half, kp}
	for i := range s.Vec {
		b := in[i%len(in)]
		s.Vec[i] = 0.9*s.Vec[i] + 1e-2*mpi.Float64s(b)[i%(len(b)/8)]
	}
}

// relax exchanges around a ring through Irecv polled with Test, sends
// the two gapped types to be sized with Probe on arrival, and then
// introspects every derived type.
func (t *tour) relax(env *app.Env, q *calls) {
	p, s := env.P, &t.st
	right, left := (env.Rank+1)%env.Size, (env.Rank+env.Size-1)%env.Size
	ring := make([]byte, 32)
	req := q.h(p.Irecv(ring, 1, s.Quad, left, tourRing, s.Ring))
	sreq := q.h(p.Isend(mpi.Float64Bytes(s.Vec[:4]), 1, s.Quad, right, tourRing, s.Ring))
	// The first poll may come before the neighbour sends; after the
	// barrier it has sent.
	done, st, err := p.Test(req)
	q.ok(err)
	_, err = p.Wait(sreq)
	if q.ok(err) && q.ok(p.Barrier(s.Ring)) {
		for !done && q.err == nil {
			done, st, err = p.Test(req)
			q.ok(err)
		}
	}
	s.mix(st.Source, st.Count(q.n(p.TypeSize(s.Quad))))
	for i, v := range mpi.Float64s(ring) {
		s.Vec[i] = 0.5*s.Vec[i] + 0.5*v
	}
	_, _, err = p.Iprobe(mpi.AnySource, mpi.AnyTag, s.World) // a discarded progress poll
	q.ok(err)
	src := mpi.Float64Bytes(s.Vec[4:12])
	q.ok(p.Send(src, 1, s.Strided, right, tourStride, s.World))
	q.ok(p.Send(src, 1, s.Gappy, right, tourGappy, s.World))
	at := 4
	for _, tag := range []int{tourStride, tourGappy} {
		st, err := p.Probe(mpi.AnySource, tag, s.World)
		if !q.ok(err) {
			return
		}
		n := st.Count(8)
		buf := make([]byte, 8*n)
		_, err = p.Recv(buf, n, s.F64, st.Source, tag, s.World)
		q.ok(err)
		s.mix(st.Source, n)
		for _, v := range mpi.Float64s(buf) {
			s.Vec[at] = 0.75*s.Vec[at] + 0.25*v
			at++
		}
	}
	for _, dt := range []mpi.Handle{s.Quad, s.Strided, s.Gappy} {
		t.introspect(p, q, dt)
	}
}

// introspect folds a derived type's size, extent, envelope and
// contents, checks the envelope against the contents, and sizes each
// base type the contents name, freeing the derived ones, which
// MPI_Type_get_contents hands to its caller.
func (t *tour) introspect(p mpi.Proc, q *calls, dt mpi.Handle) {
	s := &t.st
	s.mix(q.n(p.TypeSize(dt)), q.n(p.TypeExtent(dt)))
	env, err := p.TypeGetEnvelope(dt)
	if !q.ok(err) {
		return
	}
	c, err := p.TypeGetContents(dt)
	if !q.ok(err) {
		return
	}
	if env.NumInts != len(c.Ints) || env.NumDatatypes != len(c.Datatypes) || env.Combiner != c.Combiner {
		q.ok(fmt.Errorf("tour: envelope %+v disagrees with contents %+v", env, c))
		return
	}
	s.mix(append(c.Ints, int(c.Combiner))...)
	for _, base := range c.Datatypes {
		s.mix(q.n(p.TypeSize(base)))
		if be, err := p.TypeGetEnvelope(base); q.ok(err) && be.Combiner != mpi.CombinerNamed {
			q.ok(p.TypeFree(base))
		}
	}
}

// Finalize implements app.Instance: it frees what Setup built.
func (t *tour) Finalize(env *app.Env) error {
	p, s, q := env.P, &t.st, &calls{}
	q.ok(p.OpFree(s.MaxAbs))
	for _, dt := range []mpi.Handle{s.Quad, s.Strided, s.Gappy} {
		q.ok(p.TypeFree(dt))
	}
	for _, c := range []mpi.Handle{s.Ring, s.Half, s.KPoint} {
		if c != mpi.HandleNull {
			q.ok(p.CommFree(c))
		}
	}
	return q.err
}

// Checksum implements app.Instance.
func (t *tour) Checksum() uint64 {
	d := newDigest()
	d.str("tour:").int(int64(t.st.Mix), ';')
	for _, x := range t.st.Vec {
		d.float(x, ',')
	}
	for _, x := range t.st.Trace {
		d.int(x, ',')
	}
	return d.sum
}

// Snapshot implements app.Instance.
func (t *tour) Snapshot() ([]byte, error) {
	var sc snapCodec
	t.st.fields(&sc)
	sc.allocate()
	t.st.fields(&sc)
	return sc.buf, nil
}

// Restore implements app.Instance.
func (t *tour) Restore(data []byte) error {
	var st tourState
	if err := decodeSnapshot("tour", data, &st); err != nil {
		return err
	}
	t.st, t.steps = st, st.Steps
	return nil
}

// FootprintBytes implements app.Instance: a modeled 1 MB per rank.
func (t *tour) FootprintBytes() int64 { return 1 << 20 }
