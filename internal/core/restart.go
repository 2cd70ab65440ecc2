package mana

import (
	"fmt"
	"slices"
	"sort"

	"manasim/internal/ckpt"
	"manasim/internal/ckptimg"
	"manasim/internal/ckptstore"
	"manasim/internal/mpi"
	"manasim/internal/simtime"
	"manasim/internal/splitproc"
	"manasim/internal/vid"
)

// newRuntimeFromImage rebuilds one rank's MANA instance from a
// checkpoint image over a freshly launched lower half (Section 4.2: "At
// the time of restart, MANA must create MPI objects that are
// semantically equivalent to the objects that existed prior to
// checkpoint"). The lower half may be a different MPI implementation
// than the one the image was taken under, provided the image was taken
// with uniform handles (Section 9).
//
// lists is the membership table of the restarted job.
//
// The application state is restored already and gone from img;
// stateLen is its length. Reading the image back is charged to the
// restart: when chain, the resolution that produced the image, read
// delta links, the filesystem model charges those reads — the consumed
// base bytes, then the winning delta chunks as one pipelined read (the
// resolver overlaps the links' reads) — instead of a single read of a
// full image that never existed on storage.
func newRuntimeFromImage(cfg Config, lower mpi.Proc, clock *simtime.Clock, co *Coordinator, lists *memberLists, img *ckptimg.Image, stateLen int64, chain *ckptstore.ChainStats) (*Runtime, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if img.Rank != lower.Rank() || img.NRanks != lower.Size() {
		return nil, fmt.Errorf("mana: image is for rank %d of %d, lower half is rank %d of %d",
			img.Rank, img.NRanks, lower.Rank(), lower.Size())
	}
	if !img.UniformHandles && cfg.ImplName != "" && img.Impl != cfg.ImplName {
		return nil, fmt.Errorf("mana: image taken under %q cannot restart under %q without uniform handles (Config.UniformHandles; paper Section 9)",
			img.Impl, cfg.ImplName)
	}
	store, err := restoreStore(img.Store, lower.HandleBits(), img.UniformHandles)
	if err != nil {
		return nil, err
	}
	cfg.UniformHandles = img.UniformHandles
	cfg.Design = Design(img.Design)
	drain, err := ckpt.NewDrain(cfg.DrainStrategy)
	if err != nil {
		return nil, fmt.Errorf("mana: %w", err)
	}

	rt := &Runtime{
		cfg:        cfg,
		lower:      lower,
		store:      store,
		bnd:        splitproc.New(clock, cfg.Host),
		clock:      clock,
		xlat:       cfg.xlatCosts(),
		rank:       lower.Rank(),
		size:       lower.Size(),
		members:    make(map[mpi.Handle]member),
		lists:      lists,
		recvComms:  make(map[mpi.Handle]mpi.Handle),
		reqResults: make(map[mpi.Handle]mpi.Status),
		drained:    append([]ckptimg.DrainedMsg(nil), img.Drained...),
		counters:   slices.Clone(img.Counters),
		co:         co,
		ckptAtStep: -1,
		drain:      drain,
	}
	for _, rr := range img.ReqResults {
		rt.reqResults[rr.Virt] = rr.St
	}
	// Reading the image back is charged to the restart: the stored
	// base plus each delta link for a chain with delta links, the full
	// image otherwise.
	if chain.Links > 0 {
		rt.clock.Advance(cfg.FS.ReadCost(chain.BaseBytes+img.ModeledBytes) + cfg.FS.ReadCost(chain.DeltaBytes))
	} else {
		rt.clock.Advance(cfg.FS.ReadCost(img.TotalBytes(0) + stateLen))
	}

	markResolvedCaller(lower)
	if err := rt.initManaComm(); err != nil {
		return nil, err
	}
	if err := rt.replayObjects(); err != nil {
		return nil, err
	}
	return rt, nil
}

// replayObjects re-creates every MPI object recorded in the vid store,
// in creation order, and rebinds the virtual ids to the new physical
// handles. Freed objects that are ancestors of live ones are re-created
// and freed again at the end.
func (r *Runtime) replayObjects() error {
	items := r.store.Items()
	sort.Slice(items, func(i, j int) bool { return items[i].Seq < items[j].Seq })

	// phys maps descriptor refs to the replayed physical handles,
	// including temporarily re-created freed ancestors. The key pairs
	// the ref with the referenced object's kind: the legacy design's
	// int ids live in per-kind namespaces, so a bare ref is ambiguous
	// (comm 1 and datatype 1 share the value 1) — exactly the ambiguity
	// the new design's kind-tagged VIDs remove (Section 4.1 problem 1).
	type physKey struct {
		kind mpi.Kind
		ref  uint32
	}
	phys := make(map[physKey]mpi.Handle, len(items))
	var refreed []vid.Item // freed objects re-created for dependency replay

	lookupParent := func(kind mpi.Kind, ref vid.VID, what string) (mpi.Handle, error) {
		h, ok := phys[physKey{kind, uint32(ref)}]
		if !ok {
			return mpi.HandleNull, fmt.Errorf("mana: replay: %s parent ref %d not yet created", what, uint32(ref))
		}
		return h, nil
	}

	for _, it := range items {
		if it.Kind == mpi.KindRequest {
			// Requests are never reconstructed: receives were completed
			// at checkpoint time (results in reqResults), sends were
			// eager-complete.
			continue
		}
		if it.Desc.Op == vid.DescNone {
			// Decode-derived placeholder with no recipe (base type
			// handle surfaced by TypeGetContents): nothing to rebuild;
			// leave unbound.
			continue
		}
		ref := vid.RefOf(it.Virt)
		var np mpi.Handle
		var err error
		// One boundary crossing per re-created object.
		r.bnd.Enter()
		switch it.Desc.Op {
		case vid.DescConst:
			np, err = r.lower.LookupConst(it.Desc.Const)
			if err == nil {
				r.consts[it.Desc.Const] = it.Virt
				r.constsBound[it.Desc.Const] = true
			}

		case vid.DescCommDup:
			var parent mpi.Handle
			parent, err = lookupParent(mpi.KindComm, it.Desc.Parent, "comm-dup")
			if err == nil {
				np, err = r.lower.CommDup(parent)
			}

		case vid.DescCommSplit:
			var parent mpi.Handle
			parent, err = lookupParent(mpi.KindComm, it.Desc.Parent, "comm-split")
			if err == nil {
				np, err = r.lower.CommSplit(parent, it.Desc.Ints[0], it.Desc.Ints[1])
			}
			if err == nil && it.Desc.ResultNull != (np == mpi.HandleNull) {
				err = fmt.Errorf("mana: replayed comm-split null-result mismatch")
			}

		case vid.DescCommCreate:
			var parent, grp mpi.Handle
			parent, err = lookupParent(mpi.KindComm, it.Desc.Parent, "comm-create parent")
			if err == nil {
				grp, err = lookupParent(mpi.KindGroup, it.Desc.Aux, "comm-create group")
			}
			if err == nil {
				np, err = r.lower.CommCreate(parent, grp)
			}
			if err == nil && it.Desc.ResultNull != (np == mpi.HandleNull) {
				err = fmt.Errorf("mana: replayed comm-create null-result mismatch")
			}

		case vid.DescCommGroup:
			var parent mpi.Handle
			parent, err = lookupParent(mpi.KindComm, it.Desc.Parent, "comm-group")
			if err == nil {
				np, err = r.lower.CommGroup(parent)
			}

		case vid.DescGroupIncl:
			var parent mpi.Handle
			parent, err = lookupParent(mpi.KindGroup, it.Desc.Parent, "group-incl")
			if err == nil {
				np, err = r.lower.GroupIncl(parent, it.Desc.Ints)
			}

		case vid.DescTypeContig:
			var base mpi.Handle
			base, err = lookupParent(mpi.KindDatatype, it.Desc.Parent, "type-contiguous")
			if err == nil {
				np, err = r.lower.TypeContiguous(it.Desc.Ints[0], base)
				if err == nil {
					err = r.lower.TypeCommit(np)
				}
			}

		case vid.DescTypeVector:
			var base mpi.Handle
			base, err = lookupParent(mpi.KindDatatype, it.Desc.Parent, "type-vector")
			if err == nil {
				np, err = r.lower.TypeVector(it.Desc.Ints[0], it.Desc.Ints[1], it.Desc.Ints[2], base)
				if err == nil {
					err = r.lower.TypeCommit(np)
				}
			}

		case vid.DescTypeIndexed:
			var base mpi.Handle
			base, err = lookupParent(mpi.KindDatatype, it.Desc.Parent, "type-indexed")
			if err == nil {
				n := it.Desc.Ints[0]
				blocklens := it.Desc.Ints[1 : 1+n]
				displs := it.Desc.Ints[1+n : 1+2*n]
				np, err = r.lower.TypeIndexed(blocklens, displs, base)
				if err == nil {
					err = r.lower.TypeCommit(np)
				}
			}

		case vid.DescOpCreate:
			fn, ok := mpi.OpByName(it.Desc.OpName)
			if !ok {
				err = fmt.Errorf("mana: replay: user op %q not registered in this process (call mpi.RegisterOp before Restart)", it.Desc.OpName)
			} else {
				np, err = r.lower.OpCreate(fn, it.Desc.Commute)
			}

		default:
			err = fmt.Errorf("mana: replay: unsupported descriptor %v", it.Desc.Op)
		}
		r.bnd.Leave()

		if err != nil {
			return fmt.Errorf("mana: replaying %v (vid %#x): %w", it.Desc.Op, uint64(it.Virt), err)
		}
		phys[physKey{it.Kind, ref}] = np

		if it.Desc.ResultNull {
			continue
		}
		if it.Freed {
			refreed = append(refreed, it)
			continue
		}
		if err := r.store.Rebind(it.Kind, it.Virt, np); err != nil {
			return err
		}
		if it.Kind == mpi.KindComm {
			if err := r.cacheCommMembership(it.Virt, np); err != nil {
				return err
			}
			// Validate the reconstruction: the replayed communicator
			// must have the same global group id as the original, the
			// hash of the membership just cached.
			if it.GGID != 0 {
				if got := r.members[it.Virt].hash; got != it.GGID {
					return fmt.Errorf("mana: replayed communicator ggid %08x != original %08x (membership changed)", got, it.GGID)
				}
			}
		}
	}

	// Free the re-created ancestors again, newest first.
	for i := len(refreed) - 1; i >= 0; i-- {
		it := refreed[i]
		np := phys[physKey{it.Kind, vid.RefOf(it.Virt)}]
		if np == mpi.HandleNull {
			continue
		}
		var err error
		r.bnd.Enter()
		switch it.Kind {
		case mpi.KindComm:
			err = r.lower.CommFree(np)
		case mpi.KindGroup:
			err = r.lower.GroupFree(np)
		case mpi.KindDatatype:
			err = r.lower.TypeFree(np)
		case mpi.KindOp:
			err = r.lower.OpFree(np)
		}
		r.bnd.Leave()
		if err != nil {
			return fmt.Errorf("mana: re-freeing replayed %v: %w", it.Kind, err)
		}
	}
	return nil
}
