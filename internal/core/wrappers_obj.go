package mana

import (
	"manasim/internal/mpi"
	"manasim/internal/vid"
)

// Object-management wrappers: every creation call records a descriptor
// in the virtual-id store so that restart can re-create a semantically
// equivalent object (Section 4.2).

// lowerQuery is lowerCall for a lower-half call that returns a value.
func lowerQuery[T any](r *Runtime, fn func() (T, error)) (T, error) {
	var out T
	err := r.lowerCall(func() error {
		var e error
		out, e = fn()
		return e
	})
	return out, err
}

// registerComm virtualizes a freshly created communicator: caches its
// membership, computes its ggid, and records the recipe.
func (r *Runtime) registerComm(phys mpi.Handle, desc vid.Descriptor) (mpi.Handle, error) {
	virt, err := r.store.Add(mpi.KindComm, phys, desc, vid.StrategyReplay)
	if err != nil {
		return mpi.HandleNull, err
	}
	if err := r.cacheCommMembership(virt, phys); err != nil {
		return mpi.HandleNull, err
	}
	if err := r.computeGGID(virt); err != nil {
		return mpi.HandleNull, err
	}
	return virt, nil
}

// recordNullResult records a collective creation call that returned the
// null handle locally, so the call is still replayed at restart.
func (r *Runtime) recordNullResult(desc vid.Descriptor) error {
	desc.ResultNull = true
	_, err := r.store.Add(mpi.KindComm, mpi.HandleNull, desc, vid.StrategyReplay)
	return err
}

// CommRank implements mpi.Proc.
func (r *Runtime) CommRank(comm mpi.Handle) (int, error) {
	pc, err := r.physComm(comm)
	if err != nil {
		return 0, err
	}
	return lowerQuery(r, func() (int, error) { return r.lower.CommRank(pc) })
}

// CommSize implements mpi.Proc.
func (r *Runtime) CommSize(comm mpi.Handle) (int, error) {
	pc, err := r.physComm(comm)
	if err != nil {
		return 0, err
	}
	return lowerQuery(r, func() (int, error) { return r.lower.CommSize(pc) })
}

// CommDup implements mpi.Proc.
func (r *Runtime) CommDup(comm mpi.Handle) (mpi.Handle, error) {
	pc, err := r.physComm(comm)
	if err != nil {
		return mpi.HandleNull, err
	}
	np, err := lowerQuery(r, func() (mpi.Handle, error) { return r.lower.CommDup(pc) })
	if err != nil {
		return mpi.HandleNull, err
	}
	return r.registerComm(np, vid.Descriptor{Op: vid.DescCommDup, Parent: vid.VID(vid.RefOf(comm))})
}

// CommSplit implements mpi.Proc.
func (r *Runtime) CommSplit(comm mpi.Handle, color, key int) (mpi.Handle, error) {
	pc, err := r.physComm(comm)
	if err != nil {
		return mpi.HandleNull, err
	}
	np, err := lowerQuery(r, func() (mpi.Handle, error) { return r.lower.CommSplit(pc, color, key) })
	if err != nil {
		return mpi.HandleNull, err
	}
	desc := vid.Descriptor{Op: vid.DescCommSplit, Parent: vid.VID(vid.RefOf(comm)), Ints: []int{color, key}}
	if np == mpi.HandleNull {
		if err := r.recordNullResult(desc); err != nil {
			return mpi.HandleNull, err
		}
		return mpi.HandleNull, nil
	}
	return r.registerComm(np, desc)
}

// CommCreate implements mpi.Proc.
func (r *Runtime) CommCreate(comm mpi.Handle, group mpi.Handle) (mpi.Handle, error) {
	pc, err := r.physComm(comm)
	if err != nil {
		return mpi.HandleNull, err
	}
	pg, err := r.physGroup(group)
	if err != nil {
		return mpi.HandleNull, err
	}
	np, err := lowerQuery(r, func() (mpi.Handle, error) { return r.lower.CommCreate(pc, pg) })
	if err != nil {
		return mpi.HandleNull, err
	}
	desc := vid.Descriptor{
		Op:     vid.DescCommCreate,
		Parent: vid.VID(vid.RefOf(comm)),
		Aux:    vid.VID(vid.RefOf(group)),
	}
	if np == mpi.HandleNull {
		if err := r.recordNullResult(desc); err != nil {
			return mpi.HandleNull, err
		}
		return mpi.HandleNull, nil
	}
	return r.registerComm(np, desc)
}

// CommFree implements mpi.Proc. The descriptor is kept: a freed parent
// may still be needed to replay a live child at restart.
func (r *Runtime) CommFree(comm mpi.Handle) error {
	pc, err := r.physComm(comm)
	if err != nil {
		return err
	}
	if err := r.lowerCall(func() error { return r.lower.CommFree(pc) }); err != nil {
		return err
	}
	delete(r.members, comm)
	return r.store.MarkFreed(mpi.KindComm, comm)
}

// CommGroup implements mpi.Proc.
func (r *Runtime) CommGroup(comm mpi.Handle) (mpi.Handle, error) {
	pc, err := r.physComm(comm)
	if err != nil {
		return mpi.HandleNull, err
	}
	pg, err := lowerQuery(r, func() (mpi.Handle, error) { return r.lower.CommGroup(pc) })
	if err != nil {
		return mpi.HandleNull, err
	}
	return r.store.Add(mpi.KindGroup, pg,
		vid.Descriptor{Op: vid.DescCommGroup, Parent: vid.VID(vid.RefOf(comm))}, vid.StrategyReplay)
}

// GroupSize implements mpi.Proc.
func (r *Runtime) GroupSize(g mpi.Handle) (int, error) {
	pg, err := r.physGroup(g)
	if err != nil {
		return 0, err
	}
	return lowerQuery(r, func() (int, error) { return r.lower.GroupSize(pg) })
}

// GroupRank implements mpi.Proc.
func (r *Runtime) GroupRank(g mpi.Handle) (int, error) {
	pg, err := r.physGroup(g)
	if err != nil {
		return 0, err
	}
	return lowerQuery(r, func() (int, error) { return r.lower.GroupRank(pg) })
}

// GroupIncl implements mpi.Proc.
func (r *Runtime) GroupIncl(g mpi.Handle, ranks []int) (mpi.Handle, error) {
	pg, err := r.physGroup(g)
	if err != nil {
		return mpi.HandleNull, err
	}
	np, err := lowerQuery(r, func() (mpi.Handle, error) { return r.lower.GroupIncl(pg, ranks) })
	if err != nil {
		return mpi.HandleNull, err
	}
	return r.store.Add(mpi.KindGroup, np, vid.Descriptor{
		Op:     vid.DescGroupIncl,
		Parent: vid.VID(vid.RefOf(g)),
		Ints:   append([]int(nil), ranks...),
	}, vid.StrategyReplay)
}

// GroupTranslateRanks implements mpi.Proc.
func (r *Runtime) GroupTranslateRanks(g1 mpi.Handle, ranks []int, g2 mpi.Handle, out []int) error {
	p1, err := r.physGroup(g1)
	if err != nil {
		return err
	}
	p2, err := r.physGroup(g2)
	if err != nil {
		return err
	}
	return r.lowerCall(func() error { return r.lower.GroupTranslateRanks(p1, ranks, p2, out) })
}

// GroupFree implements mpi.Proc.
func (r *Runtime) GroupFree(g mpi.Handle) error {
	pg, err := r.physGroup(g)
	if err != nil {
		return err
	}
	if err := r.lowerCall(func() error { return r.lower.GroupFree(pg) }); err != nil {
		return err
	}
	return r.store.MarkFreed(mpi.KindGroup, g)
}

// ---------------------------------------------------------------------
// datatypes

// registerDtype virtualizes a derived datatype with the configured
// reconstruction strategy.
func (r *Runtime) registerDtype(phys mpi.Handle, desc vid.Descriptor) (mpi.Handle, error) {
	return r.store.Add(mpi.KindDatatype, phys, desc, r.cfg.DtypeStrategy)
}

// TypeContiguous implements mpi.Proc.
func (r *Runtime) TypeContiguous(count int, base mpi.Handle) (mpi.Handle, error) {
	pb, err := r.physDtype(base)
	if err != nil {
		return mpi.HandleNull, err
	}
	np, err := lowerQuery(r, func() (mpi.Handle, error) { return r.lower.TypeContiguous(count, pb) })
	if err != nil {
		return mpi.HandleNull, err
	}
	return r.registerDtype(np, vid.Descriptor{
		Op: vid.DescTypeContig, Parent: vid.VID(vid.RefOf(base)), Ints: []int{count},
	})
}

// TypeVector implements mpi.Proc.
func (r *Runtime) TypeVector(count, blocklen, stride int, base mpi.Handle) (mpi.Handle, error) {
	pb, err := r.physDtype(base)
	if err != nil {
		return mpi.HandleNull, err
	}
	np, err := lowerQuery(r, func() (mpi.Handle, error) { return r.lower.TypeVector(count, blocklen, stride, pb) })
	if err != nil {
		return mpi.HandleNull, err
	}
	return r.registerDtype(np, vid.Descriptor{
		Op: vid.DescTypeVector, Parent: vid.VID(vid.RefOf(base)), Ints: []int{count, blocklen, stride},
	})
}

// TypeIndexed implements mpi.Proc.
func (r *Runtime) TypeIndexed(blocklens, displs []int, base mpi.Handle) (mpi.Handle, error) {
	pb, err := r.physDtype(base)
	if err != nil {
		return mpi.HandleNull, err
	}
	np, err := lowerQuery(r, func() (mpi.Handle, error) { return r.lower.TypeIndexed(blocklens, displs, pb) })
	if err != nil {
		return mpi.HandleNull, err
	}
	ints := append(append([]int{len(blocklens)}, blocklens...), displs...)
	return r.registerDtype(np, vid.Descriptor{
		Op: vid.DescTypeIndexed, Parent: vid.VID(vid.RefOf(base)), Ints: ints,
	})
}

// TypeCommit implements mpi.Proc.
func (r *Runtime) TypeCommit(dt mpi.Handle) error {
	pd, err := r.physDtype(dt)
	if err != nil {
		return err
	}
	return r.lowerCall(func() error { return r.lower.TypeCommit(pd) })
}

// TypeFree implements mpi.Proc.
func (r *Runtime) TypeFree(dt mpi.Handle) error {
	pd, err := r.physDtype(dt)
	if err != nil {
		return err
	}
	if err := r.lowerCall(func() error { return r.lower.TypeFree(pd) }); err != nil {
		return err
	}
	return r.store.MarkFreed(mpi.KindDatatype, dt)
}

// TypeSize implements mpi.Proc.
func (r *Runtime) TypeSize(dt mpi.Handle) (int, error) {
	pd, err := r.physDtype(dt)
	if err != nil {
		return 0, err
	}
	return lowerQuery(r, func() (int, error) { return r.lower.TypeSize(pd) })
}

// TypeExtent implements mpi.Proc.
func (r *Runtime) TypeExtent(dt mpi.Handle) (int, error) {
	pd, err := r.physDtype(dt)
	if err != nil {
		return 0, err
	}
	return lowerQuery(r, func() (int, error) { return r.lower.TypeExtent(pd) })
}

// TypeGetEnvelope implements mpi.Proc.
func (r *Runtime) TypeGetEnvelope(dt mpi.Handle) (mpi.Envelope, error) {
	pd, err := r.physDtype(dt)
	if err != nil {
		return mpi.Envelope{}, err
	}
	return lowerQuery(r, func() (mpi.Envelope, error) { return r.lower.TypeGetEnvelope(pd) })
}

// TypeGetContents implements mpi.Proc. This is the one wrapper that
// needs the real→virtual translation (Section 4.1, problem 5): the
// lower half returns physical datatype handles, which must be presented
// to the application as virtual ids.
func (r *Runtime) TypeGetContents(dt mpi.Handle) (mpi.Contents, error) {
	pd, err := r.physDtype(dt)
	if err != nil {
		return mpi.Contents{}, err
	}
	cts, err := lowerQuery(r, func() (mpi.Contents, error) { return r.lower.TypeGetContents(pd) })
	if err != nil {
		return mpi.Contents{}, err
	}
	for i, ph := range cts.Datatypes {
		if virt, ok := r.store.Virt(mpi.KindDatatype, ph); ok {
			cts.Datatypes[i] = virt
			continue
		}
		// The lower half materialized a fresh handle for the base type;
		// virtualize it as a decode-derived entry.
		virt, err := r.store.Add(mpi.KindDatatype, ph,
			vid.Descriptor{Op: vid.DescNone}, vid.StrategyDecode)
		if err != nil {
			return mpi.Contents{}, err
		}
		cts.Datatypes[i] = virt
	}
	return cts, nil
}

// ---------------------------------------------------------------------
// operations

// OpCreate implements mpi.Proc. The function must be registered with
// mpi.RegisterOp so that restart can re-resolve it by name.
func (r *Runtime) OpCreate(fn mpi.ReduceFunc, commute bool) (mpi.Handle, error) {
	name, ok := mpi.OpNameOf(fn)
	if !ok {
		return mpi.HandleNull, mpi.Errorf(mpi.ErrOp,
			"mana: user op function not registered with mpi.RegisterOp; MANA cannot reconstruct it at restart")
	}
	np, err := lowerQuery(r, func() (mpi.Handle, error) { return r.lower.OpCreate(fn, commute) })
	if err != nil {
		return mpi.HandleNull, err
	}
	return r.store.Add(mpi.KindOp, np,
		vid.Descriptor{Op: vid.DescOpCreate, OpName: name, Commute: commute}, vid.StrategyReplay)
}

// OpFree implements mpi.Proc.
func (r *Runtime) OpFree(op mpi.Handle) error {
	po, err := r.physOp(op)
	if err != nil {
		return err
	}
	if err := r.lowerCall(func() error { return r.lower.OpFree(po) }); err != nil {
		return err
	}
	return r.store.MarkFreed(mpi.KindOp, op)
}
