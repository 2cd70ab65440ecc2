package mana

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"manasim/internal/app"
	"manasim/internal/ckpt"
	"manasim/internal/ckptimg"
	"manasim/internal/fsim"
	"manasim/internal/mpi"
	"manasim/internal/vid"
)

// ErrStoppedAtCheckpoint is returned through the job when
// Config.ExitAtCheckpoint ends execution after a checkpoint — the
// preemption path of the urgent-computing scenario. It is a clean stop,
// not a failure.
var ErrStoppedAtCheckpoint = errors.New("mana: job stopped after checkpoint (preemption)")

// Coordinator drives checkpoints across the ranks of one MANA job. The
// implementation lives in the checkpoint subsystem (internal/ckpt); the
// alias keeps the runtime API unchanged.
type Coordinator = ckpt.Coordinator

// ---------------------------------------------------------------------
// per-rank protocol

// SetSnapshotFns installs the application snapshot hooks; the job runner
// calls this after Setup.
func (r *Runtime) SetSnapshotFns(snapshot func() ([]byte, error), footprint func() int64) {
	r.snapshotFn = snapshot
	r.footprintFn = footprint
}

// AtBoundary is called by the job runner between steps (the safe points
// at which no rank is inside the lower half). step is the boundary
// index; total is the number of application steps. It returns
// ErrStoppedAtCheckpoint when the configuration asks the job to exit
// after checkpointing.
func (r *Runtime) AtBoundary(step, total int) error {
	if f := r.cfg.Faults; f != nil {
		f.StepStart(r.rank, step)
		if err := f.CheckBoundary(r.rank, r.clock.Now()); err != nil {
			return err
		}
	}
	if r.co == nil {
		return nil
	}
	// Periodic checkpointing: rank 0 requests an asynchronous checkpoint
	// once CkptInterval of virtual time has passed since the last one.
	// The request is skipped while a boundary is already agreed
	// (ckptAtStep >= 0) and at the final boundary, where there are no
	// steps left to align on.
	if r.rank == 0 && r.cfg.CkptInterval > 0 && r.ckptAtStep < 0 && step < total &&
		r.clock.Now()-r.lastCkptVT >= r.cfg.CkptInterval {
		r.co.RequestCheckpoint()
	}
	target, err := r.co.NextBoundary(ctlLink{r}, r.rank, step, total, r.ckptAtStep)
	if err != nil {
		return err
	}
	r.ckptAtStep = target
	if r.ckptAtStep >= 0 && step == r.ckptAtStep {
		if err := r.doCheckpoint(step); err != nil {
			return err
		}
		r.ckptAtStep = -1
		r.co.CheckpointDone(step, total)
		if r.cfg.ExitAtCheckpoint {
			return ErrStoppedAtCheckpoint
		}
	}
	return nil
}

// doCheckpoint executes MANA's coordinated checkpoint protocol at an
// aligned step boundary.
func (r *Runtime) doCheckpoint(step int) error {
	if r.snapshotFn == nil {
		return fmt.Errorf("mana: no application snapshot hook installed")
	}
	ckptStart := r.clock.Now()

	// Phase 1: complete pending receive requests in place. Their
	// matching sends were issued before the senders' cuts, so the
	// messages are in the network or will be momentarily.
	if err := r.completePendingRecvs(); err != nil {
		return fmt.Errorf("mana: completing pending receives: %w", err)
	}

	// Phases 2+3: reconcile the point-to-point counters and pull every
	// in-flight message off the network, via the configured drain
	// strategy (Section 5 categories 1 and 3; internal/ckpt/drain).
	env, err := r.newDrainEnv()
	if err != nil {
		return err
	}
	drainStart := r.clock.Now()
	if err := r.drain.Drain(env); err != nil {
		return fmt.Errorf("mana: drain (%s): %w", r.drain.Name(), err)
	}
	r.drainVT += r.clock.Now() - drainStart

	// Phase 4: under the decode strategy, rewrite datatype descriptors
	// from the lower half's decode functions (Section 5 category 2).
	if r.cfg.DtypeStrategy == vid.StrategyDecode {
		if err := r.decodeDtypeDescriptors(); err != nil {
			return fmt.Errorf("mana: datatype decode: %w", err)
		}
	}

	// Phase 5: pin ggids for every live communicator (creation computes
	// them; ggidOf fills in any the store lacks).
	for _, it := range r.store.Items() {
		if it.Kind != mpi.KindComm || it.Freed || it.Desc.ResultNull {
			continue
		}
		if _, err := r.ggidOf(it.Virt); err != nil {
			return err
		}
	}

	// Phase 6: serialize the upper half and write the image, charged
	// against the storage tier the store's backend actually models.
	// Under a dedup store the per-rank cost is known only after the
	// commit (inside the last rank's delivery) has split the generation
	// into content-addressed segments, so the charge moves past the
	// completion barrier and covers only the new unique bytes this rank
	// introduced (ckptstore.CommitCharge) — storing a segment another
	// rank or an earlier generation already holds costs nothing.
	data, totalBytes, err := r.buildImage(step)
	if err != nil {
		return err
	}
	dedup := r.co.Store().Dedup()
	if !dedup {
		r.clock.Advance(r.ckptFS().WriteCost(totalBytes))
	}
	if err := r.co.Deliver(r.rank, data); err != nil {
		return err
	}

	// Phase 7: completion barrier so no rank resumes into a half-taken
	// checkpoint. Every rank passes it only after the commit returned,
	// so the unique-byte attribution below is deterministic.
	r.bnd.Enter()
	err = r.lower.Barrier(r.manaComm)
	r.bnd.Leave()
	if err != nil {
		return err
	}
	if dedup {
		unique := r.co.Store().CommitCharge(r.rank)
		charged := unique
		if n := int64(len(data)); n > 0 {
			// Scale the modeled working-set surcharge (totalBytes beyond the
			// encoded image) by the fraction of the image actually stored.
			if extra := totalBytes - n; extra > 0 {
				charged += int64(float64(extra) * float64(unique) / float64(n))
			}
		}
		r.clock.Advance(r.ckptFS().WriteCost(charged))
	}
	now := r.clock.Now()
	r.ckptVTs = append(r.ckptVTs, now)
	r.ckptCosts = append(r.ckptCosts, now-ckptStart)
	r.lastCkptVT = now
	return nil
}

// ckptFS resolves the filesystem model checkpoint I/O is charged
// against: the store backend's own cost profile when it has one (the
// obj backend's round-trip model, the tier backend's burst-buffer front
// tier), the job-wide Config.FS otherwise (the mem and fs backends, the
// direct NFS-model path).
func (r *Runtime) ckptFS() fsim.FS {
	if r.co != nil {
		if m := r.co.Store().CostModel(); m.Name != "" {
			return m
		}
	}
	return r.cfg.FS
}

// completePendingRecvs finishes every outstanding Irecv, writing into
// the application buffers (which are part of the instance state and are
// therefore captured by the snapshot).
func (r *Runtime) completePendingRecvs() error {
	virts := make([]mpi.Handle, 0, len(r.recvComms))
	for v := range r.recvComms {
		virts = append(virts, v)
	}
	slices.Sort(virts)
	for _, virt := range virts {
		preq, err := r.store.Phys(mpi.KindRequest, virt)
		if err != nil {
			return err
		}
		var st mpi.Status
		r.bnd.Enter()
		st, err = r.lower.Wait(preq)
		r.bnd.Leave()
		if err != nil {
			return err
		}
		if err := r.countRecv(r.recvComms[virt], st); err != nil {
			return err
		}
		r.reqResults[virt] = st
		delete(r.recvComms, virt)
	}
	return nil
}

// decodeDtypeDescriptors rewrites derived-datatype recipes from the
// lower half's MPI_Type_get_envelope / MPI_Type_get_contents, the
// checkpoint-time decode strategy of Section 1.2 novelty 4.
func (r *Runtime) decodeDtypeDescriptors() error {
	for _, it := range r.store.Items() {
		if it.Kind != mpi.KindDatatype || it.Freed || it.Desc.Op == vid.DescConst {
			continue
		}
		if it.Strategy != vid.StrategyDecode {
			continue
		}
		pd, err := r.store.Phys(mpi.KindDatatype, it.Virt)
		if err != nil {
			return err
		}
		if pd == mpi.HandleNull {
			continue
		}
		r.bnd.Enter()
		env, err := r.lower.TypeGetEnvelope(pd)
		r.bnd.Leave()
		if err != nil {
			return err
		}
		if env.Combiner == mpi.CombinerNamed {
			continue
		}
		r.bnd.Enter()
		cts, err := r.lower.TypeGetContents(pd)
		r.bnd.Leave()
		if err != nil {
			return err
		}
		if len(cts.Datatypes) != 1 {
			return fmt.Errorf("mana: decode expects one base type, got %d", len(cts.Datatypes))
		}
		// Real→virtual translation of the base handle (Section 4.1
		// problem 5 — the rare direction, now O(1)).
		baseVirt, ok := r.store.Virt(mpi.KindDatatype, cts.Datatypes[0])
		if !ok {
			return fmt.Errorf("mana: decode found unvirtualized base datatype %#x", uint64(cts.Datatypes[0]))
		}
		desc := vid.Descriptor{Parent: vid.VID(vid.RefOf(baseVirt))}
		switch cts.Combiner {
		case mpi.CombinerContiguous:
			desc.Op = vid.DescTypeContig
			desc.Ints = cts.Ints
		case mpi.CombinerVector:
			desc.Op = vid.DescTypeVector
			desc.Ints = cts.Ints
		case mpi.CombinerIndexed:
			desc.Op = vid.DescTypeIndexed
			desc.Ints = cts.Ints
		default:
			return fmt.Errorf("mana: decode cannot rebuild combiner %v", cts.Combiner)
		}
		if err := r.store.SetDesc(mpi.KindDatatype, it.Virt, desc); err != nil {
			return err
		}
	}
	return nil
}

// buildImage serializes the rank's upper half — as an incremental delta
// when the checkpoint store can prove chunks unchanged against the
// parent generation, as a full image otherwise. It returns the encoded
// bytes and the total (real + modeled) size for the filesystem model;
// for a delta, the modeled working set is scaled by the shipped chunk
// fraction, since a production delta writes only the changed pages.
//
// img aliases the snapshot, the drained messages and the message
// counters instead of copying them: it never leaves this function and
// encoding is synchronous. The snapshot is released for reuse
// (app.ReleaseSnapshot) once the image is encoded, on every path: both
// encoders return an exact-size copy out of pooled scratch, which
// aliases nothing of img.
func (r *Runtime) buildImage(step int) ([]byte, int64, error) {
	appState, err := r.snapshotFn()
	if err != nil {
		return nil, 0, fmt.Errorf("mana: application snapshot: %w", err)
	}
	defer app.ReleaseSnapshot(appState)
	var modeled int64
	if r.footprintFn != nil {
		modeled = r.footprintFn()
	}
	img := &ckptimg.Image{
		Rank:           r.rank,
		NRanks:         r.size,
		Step:           step,
		Impl:           r.lower.ImplName(),
		Design:         r.store.DesignName(),
		UniformHandles: r.cfg.UniformHandles,
		AppState:       appState,
		ModeledBytes:   modeled,
		Store:          r.store.SnapshotStore(),
		Drained:        r.drained,
		SentTo:         r.sentTo,
		RecvFrom:       r.recvFrom,
	}
	for virt, st := range r.reqResults {
		img.ReqResults = append(img.ReqResults, ckptimg.ReqResult{Virt: virt, St: st})
	}
	slices.SortFunc(img.ReqResults, func(a, b ckptimg.ReqResult) int { return cmp.Compare(a.Virt, b.Virt) })

	cs := r.co.Store()
	opts := cs.EncodeOptions()
	if parent, parentGen, ok := cs.PlanDelta(r.rank); ok {
		data, stats, err := ckptimg.EncodeDelta(img, parent, parentGen, opts)
		if err != nil {
			return nil, 0, err
		}
		charged := int64(float64(modeled) * stats.ChangedFraction())
		return data, int64(len(data)) + charged, nil
	}
	data, err := ckptimg.EncodeOpts(img, opts)
	if err != nil {
		return nil, 0, err
	}
	return data, img.TotalBytes(len(data)), nil
}
