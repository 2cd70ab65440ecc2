package mpibase

import (
	"time"

	"manasim/internal/mpi"
)

// HandleTable is the one piece each MPI implementation supplies itself:
// the mapping between its public mpi.Handle bit patterns and the engine's
// internal objects. This is precisely the axis along which real
// implementations differ (paper Section 3):
//
//   - the MPICH family packs kind + two table indices into a 32-bit id;
//   - Open MPI hands out 64-bit pointers to internal structs, different
//     in every library instance;
//   - ExaMPI uses enum values for primitive datatypes and lazily
//     materialized shared pointers for other objects.
type HandleTable interface {
	// Insert registers a fresh object and returns its physical handle.
	Insert(kind mpi.Kind, obj any) mpi.Handle
	// Lookup resolves h to the object registered under it. It fails with
	// an appropriate mpi error class if h is unknown, freed, or of the
	// wrong kind.
	Lookup(kind mpi.Kind, h mpi.Handle) (any, error)
	// Remove forgets a handle (object free). Removing an unknown handle
	// is an error; removing a predefined handle is an error.
	Remove(h mpi.Handle) error
	// ConstHandle returns the handle of a predefined constant, creating
	// the binding on first use if the implementation resolves constants
	// lazily. obj is the engine's predefined object to bind; it is
	// passed on every call (the objects are singletons, so there is
	// nothing to defer) and ignored once the constant is bound.
	ConstHandle(name mpi.ConstName, obj any) (mpi.Handle, error)
}

// Proc glues an Engine and a HandleTable into a complete mpi.Proc. The
// four implementation packages build their flavor by supplying their
// table, capability set, and identification strings.
type Proc struct {
	Eng *Engine
	Tab HandleTable

	name       string
	caps       mpi.CapSet
	handleBits int

	// resolveCost is the per-handle-resolution library cost charged to
	// virtual time. Zero for mature implementations; ExaMPI sets it to
	// model its experimental smart-pointer/lazy-constant resolution
	// path (paper Sections 3 and 6.2). resolveCostFast applies when the
	// caller guarantees pre-resolved handles (MANA's wrappers pass
	// physical handles they already translated, skipping the lazy
	// guard — the mechanism behind Figure 3's "MANA faster than native
	// ExaMPI" observation, which the paper attributes to caching
	// information ExaMPI otherwise re-computes).
	resolveCost     time.Duration
	resolveCostFast time.Duration
	resolvedCaller  bool

	// abortFn is invoked on Abort; the cluster installs a job-wide
	// cancellation here.
	abortFn func(code int)
}

// SetResolveCost configures the per-resolution library cost (native and
// pre-resolved-caller variants).
func (p *Proc) SetResolveCost(native, fast time.Duration) {
	p.resolveCost = native
	p.resolveCostFast = fast
}

// SetResolvedCaller declares that the caller passes pre-resolved
// physical handles (MANA's wrapper layer does). Implementations with a
// lazy resolution path charge their reduced cost.
func (p *Proc) SetResolvedCaller(v bool) { p.resolvedCaller = v }

// ResolveCost is what one handle resolution charges before any
// straggler window: the pre-resolved caller's cost or the native one.
// A wrapper layer that repeats a call asks it to charge the repeats
// (mana.Runtime.Iprobes).
func (p *Proc) ResolveCost() time.Duration {
	if p.resolvedCaller && p.resolveCost != 0 {
		return p.resolveCostFast
	}
	return p.resolveCost
}

// chargeResolve accounts one handle resolution.
func (p *Proc) chargeResolve() { p.Eng.Clock.Advance(p.ResolveCost()) }

// NewProc assembles an mpi.Proc from an engine and a handle table.
// handleBits is the declared width of the implementation's MPI object
// types (32 for the MPICH family, 64 for pointer-handle designs).
func NewProc(eng *Engine, tab HandleTable, name string, handleBits int, caps mpi.CapSet) *Proc {
	return &Proc{Eng: eng, Tab: tab, name: name, handleBits: handleBits, caps: caps}
}

// HandleBits implements mpi.Proc.
func (p *Proc) HandleBits() int { return p.handleBits }

// SetAbort installs the job-abort callback.
func (p *Proc) SetAbort(fn func(code int)) { p.abortFn = fn }

// Rank implements mpi.Proc.
func (p *Proc) Rank() int { return p.Eng.Rank() }

// Size implements mpi.Proc.
func (p *Proc) Size() int { return p.Eng.Size() }

// ImplName implements mpi.Proc.
func (p *Proc) ImplName() string { return p.name }

// Caps implements mpi.Proc.
func (p *Proc) Caps() mpi.CapSet { return p.caps }

// LookupConst implements mpi.Proc: it resolves a predefined constant to
// this library instance's physical handle (paper Section 4.3).
func (p *Proc) LookupConst(name mpi.ConstName) (mpi.Handle, error) {
	switch name.Kind() {
	case mpi.KindComm:
		if name == mpi.ConstCommWorld {
			return p.Tab.ConstHandle(name, &p.Eng.worldComm)
		}
		return p.Tab.ConstHandle(name, &p.Eng.selfComm)
	case mpi.KindGroup:
		return p.Tab.ConstHandle(name, &p.Eng.emptyGroup)
	case mpi.KindDatatype:
		return p.Tab.ConstHandle(name, predefDtypes[name])
	case mpi.KindOp:
		return p.Tab.ConstHandle(name, predefOps[name])
	default:
		return mpi.HandleNull, mpi.Errorf(mpi.ErrArg, "unknown constant %v", name)
	}
}

// ---------------------------------------------------------------------
// handle resolution helpers

func (p *Proc) comm(h mpi.Handle) (*Comm, error) {
	p.chargeResolve()
	o, err := p.Tab.Lookup(mpi.KindComm, h)
	if err != nil {
		return nil, err
	}
	c := o.(*Comm)
	if c.Freed() {
		return nil, mpi.Errorf(mpi.ErrComm, "use of freed communicator")
	}
	return c, nil
}

func (p *Proc) group(h mpi.Handle) (*Group, error) {
	o, err := p.Tab.Lookup(mpi.KindGroup, h)
	if err != nil {
		return nil, err
	}
	return o.(*Group), nil
}

func (p *Proc) dtype(h mpi.Handle) (*Dtype, error) {
	p.chargeResolve()
	o, err := p.Tab.Lookup(mpi.KindDatatype, h)
	if err != nil {
		return nil, err
	}
	return o.(*Dtype), nil
}

func (p *Proc) op(h mpi.Handle) (*Op, error) {
	o, err := p.Tab.Lookup(mpi.KindOp, h)
	if err != nil {
		return nil, err
	}
	return o.(*Op), nil
}

func (p *Proc) request(h mpi.Handle) (*Req, error) {
	o, err := p.Tab.Lookup(mpi.KindRequest, h)
	if err != nil {
		return nil, err
	}
	return o.(*Req), nil
}

// SleepUntil parks the rank until virtual time at. It is not part of
// mpi.Proc, and nothing in the model calls it: it stays only because
// bench/trace.go's lowerExtras asserts it (ROADMAP item 10).
func (p *Proc) SleepUntil(at time.Duration) error {
	return p.Eng.SleepUntil(at)
}

// CommContext reports the transport context id of a communicator. Like
// SleepUntil it has no caller in the model and stays only for
// bench/trace.go's lowerExtras (ROADMAP item 10).
func (p *Proc) CommContext(comm mpi.Handle) (uint32, error) {
	c, err := p.comm(comm)
	if err != nil {
		return 0, err
	}
	return c.Ctx, nil
}

// ---------------------------------------------------------------------
// point-to-point

// Send implements mpi.Proc.
func (p *Proc) Send(buf []byte, count int, dt mpi.Handle, dest, tag int, comm mpi.Handle) error {
	c, err := p.comm(comm)
	if err != nil {
		return err
	}
	d, err := p.dtype(dt)
	if err != nil {
		return err
	}
	return p.Eng.Send(c, buf, count, d, dest, tag)
}

// Recv implements mpi.Proc.
func (p *Proc) Recv(buf []byte, count int, dt mpi.Handle, src, tag int, comm mpi.Handle) (mpi.Status, error) {
	c, err := p.comm(comm)
	if err != nil {
		return mpi.Status{}, err
	}
	d, err := p.dtype(dt)
	if err != nil {
		return mpi.Status{}, err
	}
	return p.Eng.Recv(c, buf, count, d, src, tag)
}

// Isend implements mpi.Proc: an eager Send, whose request is the
// already complete sentReq.
func (p *Proc) Isend(buf []byte, count int, dt mpi.Handle, dest, tag int, comm mpi.Handle) (mpi.Handle, error) {
	c, err := p.comm(comm)
	if err != nil {
		return mpi.HandleNull, err
	}
	d, err := p.dtype(dt)
	if err != nil {
		return mpi.HandleNull, err
	}
	if err := p.Eng.Send(c, buf, count, d, dest, tag); err != nil {
		return mpi.HandleNull, err
	}
	return p.Tab.Insert(mpi.KindRequest, sentReq), nil
}

// Irecv implements mpi.Proc.
func (p *Proc) Irecv(buf []byte, count int, dt mpi.Handle, src, tag int, comm mpi.Handle) (mpi.Handle, error) {
	c, err := p.comm(comm)
	if err != nil {
		return mpi.HandleNull, err
	}
	d, err := p.dtype(dt)
	if err != nil {
		return mpi.HandleNull, err
	}
	r, err := p.Eng.Irecv(c, buf, count, d, src, tag)
	if err != nil {
		return mpi.HandleNull, err
	}
	return p.Tab.Insert(mpi.KindRequest, r), nil
}

// Wait implements mpi.Proc; completion frees the request handle.
func (p *Proc) Wait(req mpi.Handle) (mpi.Status, error) {
	r, err := p.request(req)
	if err != nil {
		return mpi.Status{}, err
	}
	st, err := p.Eng.Wait(r)
	if rerr := p.Tab.Remove(req); rerr != nil && err == nil {
		err = rerr
	}
	return st, err
}

// Test implements mpi.Proc; a successful test frees the request handle.
func (p *Proc) Test(req mpi.Handle) (bool, mpi.Status, error) {
	r, err := p.request(req)
	if err != nil {
		return false, mpi.Status{}, err
	}
	done, st, err := p.Eng.Test(r)
	if done {
		if rerr := p.Tab.Remove(req); rerr != nil && err == nil {
			err = rerr
		}
	}
	return done, st, err
}

// Iprobe implements mpi.Proc.
func (p *Proc) Iprobe(src, tag int, comm mpi.Handle) (bool, mpi.Status, error) {
	c, err := p.comm(comm)
	if err != nil {
		return false, mpi.Status{}, err
	}
	return p.Eng.Iprobe(c, src, tag)
}

// Iprobes makes n discarded MPI_Iprobes: one real call, then n-1
// repeats of its resolve charge. A repeat costs a constant between
// straggler-window edges, a native poll's only horizon, so the repeats
// that end by the clock's next edge are one advance and the one that
// meets it is charged as a call would be.
func (p *Proc) Iprobes(n, src, tag int, comm mpi.Handle) (err error) {
	if n > 0 {
		_, _, err = p.Iprobe(src, tag, comm)
	}
	if err == nil {
		p.chargeResolves(n - 1)
	}
	return err
}

// chargeResolves charges n resolve charges as n chargeResolves would
// and returns how many it charged one by one: one per straggler-window
// edge met, none without one.
func (p *Proc) chargeResolves(n int) (slow int) {
	clock, r := p.Eng.Clock, p.ResolveCost()
	for n > 0 && r > 0 {
		now, d := clock.Now(), clock.Cost(r)
		if k := min(n, int((clock.Horizon()-now)/d)); k > 0 {
			clock.MergeAtLeast(now + time.Duration(k)*d) // the k repeats end there
			n -= k
			continue
		}
		clock.Advance(r)
		slow++
		n--
	}
	return slow
}

// Probe implements mpi.Proc.
func (p *Proc) Probe(src, tag int, comm mpi.Handle) (mpi.Status, error) {
	c, err := p.comm(comm)
	if err != nil {
		return mpi.Status{}, err
	}
	return p.Eng.Probe(c, src, tag)
}

// ---------------------------------------------------------------------
// collectives

// Barrier implements mpi.Proc.
func (p *Proc) Barrier(comm mpi.Handle) error {
	c, err := p.comm(comm)
	if err != nil {
		return err
	}
	return p.Eng.Barrier(c)
}

// Bcast implements mpi.Proc.
func (p *Proc) Bcast(buf []byte, count int, dt mpi.Handle, root int, comm mpi.Handle) error {
	c, err := p.comm(comm)
	if err != nil {
		return err
	}
	d, err := p.dtype(dt)
	if err != nil {
		return err
	}
	return p.Eng.Bcast(c, buf, count, d, root)
}

// Reduce implements mpi.Proc.
func (p *Proc) Reduce(send, recv []byte, count int, dt, op mpi.Handle, root int, comm mpi.Handle) error {
	c, err := p.comm(comm)
	if err != nil {
		return err
	}
	d, err := p.dtype(dt)
	if err != nil {
		return err
	}
	o, err := p.op(op)
	if err != nil {
		return err
	}
	return p.Eng.Reduce(c, send, recv, count, d, o, root)
}

// Allreduce implements mpi.Proc.
func (p *Proc) Allreduce(send, recv []byte, count int, dt, op mpi.Handle, comm mpi.Handle) error {
	c, err := p.comm(comm)
	if err != nil {
		return err
	}
	d, err := p.dtype(dt)
	if err != nil {
		return err
	}
	o, err := p.op(op)
	if err != nil {
		return err
	}
	return p.Eng.Allreduce(c, send, recv, count, d, o)
}

// Alltoall implements mpi.Proc.
func (p *Proc) Alltoall(send []byte, scount int, sdt mpi.Handle, recv []byte, rcount int, rdt mpi.Handle, comm mpi.Handle) error {
	c, err := p.comm(comm)
	if err != nil {
		return err
	}
	sd, err := p.dtype(sdt)
	if err != nil {
		return err
	}
	rd, err := p.dtype(rdt)
	if err != nil {
		return err
	}
	return p.Eng.Alltoall(c, send, scount, sd, recv, rcount, rd)
}

// Allgather implements mpi.Proc.
func (p *Proc) Allgather(send []byte, scount int, sdt mpi.Handle, recv []byte, rcount int, rdt mpi.Handle, comm mpi.Handle) error {
	if !p.caps.Has(mpi.FeatAllgather) {
		return mpi.Errorf(mpi.ErrUnsupported, "%s does not implement MPI_Allgather", p.name)
	}
	c, err := p.comm(comm)
	if err != nil {
		return err
	}
	sd, err := p.dtype(sdt)
	if err != nil {
		return err
	}
	rd, err := p.dtype(rdt)
	if err != nil {
		return err
	}
	return p.Eng.Allgather(c, send, scount, sd, recv, rcount, rd)
}

// Gather implements mpi.Proc.
func (p *Proc) Gather(send []byte, scount int, sdt mpi.Handle, recv []byte, rcount int, rdt mpi.Handle, root int, comm mpi.Handle) error {
	if !p.caps.Has(mpi.FeatGatherScatter) {
		return mpi.Errorf(mpi.ErrUnsupported, "%s does not implement MPI_Gather", p.name)
	}
	c, err := p.comm(comm)
	if err != nil {
		return err
	}
	sd, err := p.dtype(sdt)
	if err != nil {
		return err
	}
	rd, err := p.dtype(rdt)
	if err != nil {
		return err
	}
	return p.Eng.Gather(c, send, scount, sd, recv, rcount, rd, root)
}

// Scatter implements mpi.Proc.
func (p *Proc) Scatter(send []byte, scount int, sdt mpi.Handle, recv []byte, rcount int, rdt mpi.Handle, root int, comm mpi.Handle) error {
	if !p.caps.Has(mpi.FeatGatherScatter) {
		return mpi.Errorf(mpi.ErrUnsupported, "%s does not implement MPI_Scatter", p.name)
	}
	c, err := p.comm(comm)
	if err != nil {
		return err
	}
	sd, err := p.dtype(sdt)
	if err != nil {
		return err
	}
	rd, err := p.dtype(rdt)
	if err != nil {
		return err
	}
	return p.Eng.Scatter(c, send, scount, sd, recv, rcount, rd, root)
}

// ---------------------------------------------------------------------
// communicator and group management

// CommRank implements mpi.Proc.
func (p *Proc) CommRank(comm mpi.Handle) (int, error) {
	c, err := p.comm(comm)
	if err != nil {
		return 0, err
	}
	return c.MyRank, nil
}

// CommSize implements mpi.Proc.
func (p *Proc) CommSize(comm mpi.Handle) (int, error) {
	c, err := p.comm(comm)
	if err != nil {
		return 0, err
	}
	return c.Size(), nil
}

// CommDup implements mpi.Proc.
func (p *Proc) CommDup(comm mpi.Handle) (mpi.Handle, error) {
	c, err := p.comm(comm)
	if err != nil {
		return mpi.HandleNull, err
	}
	nc, err := p.Eng.CommDup(c)
	if err != nil {
		return mpi.HandleNull, err
	}
	return p.Tab.Insert(mpi.KindComm, nc), nil
}

// CommSplit implements mpi.Proc.
func (p *Proc) CommSplit(comm mpi.Handle, color, key int) (mpi.Handle, error) {
	c, err := p.comm(comm)
	if err != nil {
		return mpi.HandleNull, err
	}
	nc, err := p.Eng.CommSplit(c, color, key)
	if err != nil {
		return mpi.HandleNull, err
	}
	if nc == nil {
		return mpi.HandleNull, nil
	}
	return p.Tab.Insert(mpi.KindComm, nc), nil
}

// CommCreate implements mpi.Proc.
func (p *Proc) CommCreate(comm mpi.Handle, group mpi.Handle) (mpi.Handle, error) {
	if !p.caps.Has(mpi.FeatCommCreate) {
		return mpi.HandleNull, mpi.Errorf(mpi.ErrUnsupported, "%s does not implement MPI_Comm_create", p.name)
	}
	c, err := p.comm(comm)
	if err != nil {
		return mpi.HandleNull, err
	}
	g, err := p.group(group)
	if err != nil {
		return mpi.HandleNull, err
	}
	nc, err := p.Eng.CommCreate(c, g)
	if err != nil {
		return mpi.HandleNull, err
	}
	if nc == nil {
		return mpi.HandleNull, nil
	}
	return p.Tab.Insert(mpi.KindComm, nc), nil
}

// CommFree implements mpi.Proc.
func (p *Proc) CommFree(comm mpi.Handle) error {
	c, err := p.comm(comm)
	if err != nil {
		return err
	}
	if err := p.Eng.CommFree(c); err != nil {
		return err
	}
	return p.Tab.Remove(comm)
}

// CommGroup implements mpi.Proc.
func (p *Proc) CommGroup(comm mpi.Handle) (mpi.Handle, error) {
	c, err := p.comm(comm)
	if err != nil {
		return mpi.HandleNull, err
	}
	return p.Tab.Insert(mpi.KindGroup, c.Group.Clone()), nil
}

// GroupSize implements mpi.Proc.
func (p *Proc) GroupSize(g mpi.Handle) (int, error) {
	gr, err := p.group(g)
	if err != nil {
		return 0, err
	}
	return gr.Size(), nil
}

// GroupRank implements mpi.Proc.
func (p *Proc) GroupRank(g mpi.Handle) (int, error) {
	gr, err := p.group(g)
	if err != nil {
		return 0, err
	}
	return gr.RankOf(p.Eng.Rank()), nil
}

// GroupIncl implements mpi.Proc.
func (p *Proc) GroupIncl(g mpi.Handle, ranks []int) (mpi.Handle, error) {
	gr, err := p.group(g)
	if err != nil {
		return mpi.HandleNull, err
	}
	ng, err := p.Eng.GroupIncl(gr, ranks)
	if err != nil {
		return mpi.HandleNull, err
	}
	return p.Tab.Insert(mpi.KindGroup, ng), nil
}

// GroupTranslateRanks implements mpi.Proc.
func (p *Proc) GroupTranslateRanks(g1 mpi.Handle, ranks []int, g2 mpi.Handle, out []int) error {
	a, err := p.group(g1)
	if err != nil {
		return err
	}
	b, err := p.group(g2)
	if err != nil {
		return err
	}
	return p.Eng.GroupTranslateRanks(a, ranks, b, out)
}

// GroupFree implements mpi.Proc.
func (p *Proc) GroupFree(g mpi.Handle) error {
	gr, err := p.group(g)
	if err != nil {
		return err
	}
	if gr.Predefined {
		return mpi.Errorf(mpi.ErrGroup, "cannot free predefined group")
	}
	return p.Tab.Remove(g)
}

// ---------------------------------------------------------------------
// datatypes

// TypeContiguous implements mpi.Proc.
func (p *Proc) TypeContiguous(count int, base mpi.Handle) (mpi.Handle, error) {
	b, err := p.dtype(base)
	if err != nil {
		return mpi.HandleNull, err
	}
	d, err := p.Eng.TypeContiguous(count, b)
	if err != nil {
		return mpi.HandleNull, err
	}
	return p.Tab.Insert(mpi.KindDatatype, d), nil
}

// TypeVector implements mpi.Proc.
func (p *Proc) TypeVector(count, blocklen, stride int, base mpi.Handle) (mpi.Handle, error) {
	if !p.caps.Has(mpi.FeatTypeVector) {
		return mpi.HandleNull, mpi.Errorf(mpi.ErrUnsupported, "%s does not implement MPI_Type_vector", p.name)
	}
	b, err := p.dtype(base)
	if err != nil {
		return mpi.HandleNull, err
	}
	d, err := p.Eng.TypeVector(count, blocklen, stride, b)
	if err != nil {
		return mpi.HandleNull, err
	}
	return p.Tab.Insert(mpi.KindDatatype, d), nil
}

// TypeIndexed implements mpi.Proc.
func (p *Proc) TypeIndexed(blocklens, displs []int, base mpi.Handle) (mpi.Handle, error) {
	if !p.caps.Has(mpi.FeatTypeIndexed) {
		return mpi.HandleNull, mpi.Errorf(mpi.ErrUnsupported, "%s does not implement MPI_Type_indexed", p.name)
	}
	b, err := p.dtype(base)
	if err != nil {
		return mpi.HandleNull, err
	}
	d, err := p.Eng.TypeIndexed(blocklens, displs, b)
	if err != nil {
		return mpi.HandleNull, err
	}
	return p.Tab.Insert(mpi.KindDatatype, d), nil
}

// TypeCommit implements mpi.Proc.
func (p *Proc) TypeCommit(dt mpi.Handle) error {
	d, err := p.dtype(dt)
	if err != nil {
		return err
	}
	if !d.Committed {
		// A committed type may be a shared predefined one: leave it
		// unwritten.
		d.Committed = true
	}
	return nil
}

// TypeFree implements mpi.Proc.
func (p *Proc) TypeFree(dt mpi.Handle) error {
	d, err := p.dtype(dt)
	if err != nil {
		return err
	}
	if d.Predefined {
		return mpi.Errorf(mpi.ErrType, "cannot free predefined datatype")
	}
	return p.Tab.Remove(dt)
}

// TypeSize implements mpi.Proc.
func (p *Proc) TypeSize(dt mpi.Handle) (int, error) {
	d, err := p.dtype(dt)
	if err != nil {
		return 0, err
	}
	return d.SizeB, nil
}

// TypeExtent implements mpi.Proc.
func (p *Proc) TypeExtent(dt mpi.Handle) (int, error) {
	d, err := p.dtype(dt)
	if err != nil {
		return 0, err
	}
	return d.ExtentB, nil
}

// TypeGetEnvelope implements mpi.Proc.
func (p *Proc) TypeGetEnvelope(dt mpi.Handle) (mpi.Envelope, error) {
	d, err := p.dtype(dt)
	if err != nil {
		return mpi.Envelope{}, err
	}
	return mpi.Envelope{
		Combiner:     d.Combiner,
		NumInts:      len(d.Ints),
		NumDatatypes: len(d.Bases),
	}, nil
}

// TypeGetContents implements mpi.Proc. For named types it fails as the
// standard requires; callers must check the envelope first.
func (p *Proc) TypeGetContents(dt mpi.Handle) (mpi.Contents, error) {
	d, err := p.dtype(dt)
	if err != nil {
		return mpi.Contents{}, err
	}
	if d.Combiner == mpi.CombinerNamed {
		return mpi.Contents{}, mpi.Errorf(mpi.ErrType, "MPI_Type_get_contents on named datatype")
	}
	bases := make([]mpi.Handle, len(d.Bases))
	for i, b := range d.Bases {
		if b.Predefined {
			h, err := p.LookupConst(b.Name)
			if err != nil {
				return mpi.Contents{}, err
			}
			bases[i] = h
		} else {
			bases[i] = p.Tab.Insert(mpi.KindDatatype, b)
		}
	}
	return mpi.Contents{
		Combiner:  d.Combiner,
		Ints:      append([]int(nil), d.Ints...),
		Datatypes: bases,
	}, nil
}

// ---------------------------------------------------------------------
// operations and control

// OpCreate implements mpi.Proc.
func (p *Proc) OpCreate(fn mpi.ReduceFunc, commute bool) (mpi.Handle, error) {
	if !p.caps.Has(mpi.FeatUserOps) {
		return mpi.HandleNull, mpi.Errorf(mpi.ErrUnsupported, "%s does not implement MPI_Op_create", p.name)
	}
	o, err := p.Eng.OpCreate(fn)
	if err != nil {
		return mpi.HandleNull, err
	}
	return p.Tab.Insert(mpi.KindOp, o), nil
}

// OpFree implements mpi.Proc.
func (p *Proc) OpFree(op mpi.Handle) error {
	o, err := p.op(op)
	if err != nil {
		return err
	}
	if o.Predefined {
		return mpi.Errorf(mpi.ErrOp, "cannot free predefined operation")
	}
	return p.Tab.Remove(op)
}

// Abort implements mpi.Proc.
func (p *Proc) Abort(code int) {
	if p.abortFn != nil {
		p.abortFn(code)
	}
}

// Compile-time interface check.
var _ mpi.Proc = (*Proc)(nil)
