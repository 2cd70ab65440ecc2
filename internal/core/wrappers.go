package mana

import (
	"time"

	"manasim/internal/mpi"
	"manasim/internal/vid"
)

// Translation-cost table. The upper half's per-call bookkeeping
// (virtual-id translation, drain-buffer check, argument marshalling) is
// modeled, not measured: a charged wrapper call costs
//
//	wrapperBase + lookups x perLookup(design)
//
// of virtual time, resolved into an xlatTable once when the Runtime is
// built (Config.xlatCosts), so virtual time never reads the host clock
// and a (config, seed) pair has exactly one Stats.
//
// perLookup is the predicted part: one vid.Store lookup as
// BenchmarkVidDesigns measures it, in whole nanoseconds. Seeded once
// from the 2-vCPU dev VM at the commit before the table (linux/amd64,
// go1.24, `go test -run '^$' -bench BenchmarkVidDesigns .`:
// virtid/virt-to-real 7.7 ns/op, legacy/virt-to-real 43.3 ns/op) and
// re-read on 2026-10-03 on a slower host (Xeon @ 2.10 GHz, go1.24.0,
// GOMAXPROCS=1, -benchtime 2s: 10.0-11.7 and 65.2-69.6 ns/op, the same
// ~6x ratio). The new-vs-legacy runtime gap of Section 6.1 ("up to
// 1.6%") is fitted nowhere: it is lookups x (43 - 8) ns per charged
// call and nothing else.
//
// wrapperBase is the fitted part: chosen so that a two-lookup virtid
// call costs the 100 ns that harness.computeFactor, the host profiles'
// crossing costs and the benchmark's paper_err_pp were calibrated
// against.
//
// lookups is static per site — what the wrapper actually asks of
// vid.Store before entering the lower half. Not every wrapper charges:
// Irecv, Test, Probe, every collective but Allreduce, the object
// wrappers of wrappers_obj.go, and the early returns on a drain-buffer
// or reqResults hit advance the clock only by their crossings
// (ROADMAP item 6 lists them; charging them would move the benchmark's
// exact metrics). A batch of discarded polls (Runtime.Iprobes) makes
// one real Iprobe and charges the rest exactly as that many calls
// would: the rank holds the execution token, a probe consumes nothing
// and the drain buffer stays fixed, so each poll finds the first's.
const (
	wrapperBase     = 84 * time.Nanosecond
	perLookupVirtID = 8 * time.Nanosecond
	perLookupLegacy = 43 * time.Nanosecond
)

// vid.Store lookups per charged wrapper site.
const (
	lookupsP2P       = 2 // Send, Recv, Isend: datatype + communicator
	lookupsWait      = 2 // request translation + its release (Drop)
	lookupsIprobe    = 1 // communicator
	lookupsAllreduce = 3 // datatype + op + communicator
	maxLookups       = 3
)

// xlatTable is the resolved cost of a charged wrapper call, indexed by
// its lookup count.
type xlatTable [maxLookups + 1]time.Duration

// perLookup is the modeled cost of one vid.Store lookup under a design.
func perLookup(d Design) time.Duration {
	if d == DesignLegacy {
		return perLookupLegacy
	}
	return perLookupVirtID
}

// xlatDone charges the upper-half bookkeeping of a wrapper call that
// made the given number of vid.Store lookups to the rank's clock.
func (r *Runtime) xlatDone(lookups int) { r.clock.Advance(r.xlat[lookups]) }

// This file contains the MANA stub (wrapper) functions of Figure 1: one
// per MPI call, each translating virtual ids to physical ids on the way
// into the lower half and back on the way out, while recording whatever
// the checkpoint protocol will need.

// lowerCall brackets a lower-half invocation with the two fs-register
// switches of the split-process architecture. Injected node crashes
// fire here, before the lower half is entered: a crashed rank never
// half-executes an MPI call. Checkpoint-internal lower-half calls
// (drain, delivery, the completion barrier) deliberately bypass
// lowerCall, so a crash can interrupt application communication but
// never a rank's own commit-critical section — matching a real system
// where the failed process simply stops and the store keeps whatever
// generations fully committed.
func (r *Runtime) lowerCall(fn func() error) error {
	r.wrapperCalls++
	if f := r.cfg.Faults; f != nil {
		if err := f.CheckCall(r.rank, r.clock.Now()); err != nil {
			return err
		}
	}
	r.bnd.Enter()
	err := fn()
	r.bnd.Leave()
	return err
}

// ---------------------------------------------------------------------
// point-to-point

// Send implements mpi.Proc.
func (r *Runtime) Send(buf []byte, count int, dt mpi.Handle, dest, tag int, comm mpi.Handle) error {
	pdt, err := r.physDtype(dt)
	if err != nil {
		return err
	}
	pc, err := r.physComm(comm)
	if err != nil {
		return err
	}
	r.xlatDone(lookupsP2P)
	if err := r.lowerCall(func() error {
		return r.lower.Send(buf, count, pdt, dest, tag, pc)
	}); err != nil {
		return err
	}
	if dest != mpi.ProcNull {
		w, err := r.worldOf(comm, dest)
		if err != nil {
			return err
		}
		r.sentTo[w]++
	}
	return nil
}

// Recv implements mpi.Proc: drained in-flight messages from the last
// checkpoint are delivered before the lower half is consulted, in their
// original order.
func (r *Runtime) Recv(buf []byte, count int, dt mpi.Handle, src, tag int, comm mpi.Handle) (mpi.Status, error) {
	if src == mpi.ProcNull {
		return mpi.Status{Source: mpi.ProcNull, Tag: mpi.AnyTag}, nil
	}
	if st, ok, err := r.recvFromDrainBuffer(buf, count, dt, src, tag, comm); err != nil || ok {
		return st, err
	}
	pdt, err := r.physDtype(dt)
	if err != nil {
		return mpi.Status{}, err
	}
	pc, err := r.physComm(comm)
	if err != nil {
		return mpi.Status{}, err
	}
	r.xlatDone(lookupsP2P)
	var st mpi.Status
	if err := r.lowerCall(func() error {
		var e error
		st, e = r.lower.Recv(buf, count, pdt, src, tag, pc)
		return e
	}); err != nil {
		return st, err
	}
	if err := r.countRecv(comm, st); err != nil {
		return st, err
	}
	return st, nil
}

// countRecv increments the per-world-rank receive counter from a
// completion status.
func (r *Runtime) countRecv(comm mpi.Handle, st mpi.Status) error {
	if st.Source == mpi.ProcNull || st.Source == mpi.Undefined {
		return nil
	}
	w, err := r.worldOf(comm, st.Source)
	if err != nil {
		return err
	}
	r.recvFrom[w]++
	return nil
}

// recvFromDrainBuffer serves a receive from the drained-message buffer.
// Drained payloads are packed bytes; delivery requires a contiguous
// receive datatype (MANA's documented constraint), which covers the
// halo-exchange and reduction patterns of real applications.
func (r *Runtime) recvFromDrainBuffer(buf []byte, count int, dt mpi.Handle, src, tag int, comm mpi.Handle) (mpi.Status, bool, error) {
	if len(r.drained) == 0 {
		return mpi.Status{}, false, nil
	}
	gg, err := r.ggidOf(comm)
	if err != nil {
		return mpi.Status{}, false, err
	}
	for i := range r.drained {
		d := &r.drained[i]
		if d.GGID != gg {
			continue
		}
		if src != mpi.AnySource && d.SrcCommRank != src {
			continue
		}
		if tag != mpi.AnyTag && d.Tag != tag {
			continue
		}
		// Check capacity against the receive type.
		pdt, err := r.physDtype(dt)
		if err != nil {
			return mpi.Status{}, false, err
		}
		var sz int
		if err := r.lowerCall(func() error {
			var e error
			sz, e = r.lower.TypeSize(pdt)
			return e
		}); err != nil {
			return mpi.Status{}, false, err
		}
		if len(d.Payload) > count*sz {
			return mpi.Status{}, false, mpi.Errorf(mpi.ErrTruncate,
				"mana: drained message of %d bytes truncated to %d-element buffer", len(d.Payload), count)
		}
		copy(buf, d.Payload)
		st := mpi.Status{Source: d.SrcCommRank, Tag: d.Tag, Bytes: len(d.Payload)}
		r.drained = append(r.drained[:i], r.drained[i+1:]...)
		// Not counted in recvFrom: the drain already counted it when it
		// pulled the message off the network.
		return st, true, nil
	}
	return mpi.Status{}, false, nil
}

// probeDrainBuffer finds a buffered drained message without removing it.
func (r *Runtime) probeDrainBuffer(src, tag int, comm mpi.Handle) (mpi.Status, bool, error) {
	if len(r.drained) == 0 {
		return mpi.Status{}, false, nil
	}
	gg, err := r.ggidOf(comm)
	if err != nil {
		return mpi.Status{}, false, err
	}
	for i := range r.drained {
		d := &r.drained[i]
		if d.GGID != gg {
			continue
		}
		if src != mpi.AnySource && d.SrcCommRank != src {
			continue
		}
		if tag != mpi.AnyTag && d.Tag != tag {
			continue
		}
		return mpi.Status{Source: d.SrcCommRank, Tag: d.Tag, Bytes: len(d.Payload)}, true, nil
	}
	return mpi.Status{}, false, nil
}

// Isend implements mpi.Proc. The lower half's eager protocol completes
// the send immediately; the wrapper still virtualizes the request handle.
// On the virtid design a warm Isend+Wait allocates nothing: the request's
// vid slot reuses the entry the last Wait cleared, and its descriptor
// holds no slice.
func (r *Runtime) Isend(buf []byte, count int, dt mpi.Handle, dest, tag int, comm mpi.Handle) (mpi.Handle, error) {
	pdt, err := r.physDtype(dt)
	if err != nil {
		return mpi.HandleNull, err
	}
	pc, err := r.physComm(comm)
	if err != nil {
		return mpi.HandleNull, err
	}
	r.xlatDone(lookupsP2P)
	var preq mpi.Handle
	if err := r.lowerCall(func() error {
		var e error
		preq, e = r.lower.Isend(buf, count, pdt, dest, tag, pc)
		return e
	}); err != nil {
		return mpi.HandleNull, err
	}
	if dest != mpi.ProcNull {
		w, err := r.worldOf(comm, dest)
		if err != nil {
			return mpi.HandleNull, err
		}
		r.sentTo[w]++
	}
	return r.store.Add(mpi.KindRequest, preq, vid.Descriptor{Op: vid.DescRequest}, vid.StrategyReplay)
}

// Irecv implements mpi.Proc. If a drained message already matches, the
// receive completes immediately from the buffer — otherwise a buffered
// older message could be overtaken by a newer network message.
func (r *Runtime) Irecv(buf []byte, count int, dt mpi.Handle, src, tag int, comm mpi.Handle) (mpi.Handle, error) {
	if st, ok, err := r.recvFromDrainBuffer(buf, count, dt, src, tag, comm); err != nil {
		return mpi.HandleNull, err
	} else if ok {
		virt, err := r.store.Add(mpi.KindRequest, mpi.HandleNull, vid.Descriptor{Op: vid.DescRequest}, vid.StrategyReplay)
		if err != nil {
			return mpi.HandleNull, err
		}
		r.reqResults[virt] = st
		return virt, nil
	}
	pdt, err := r.physDtype(dt)
	if err != nil {
		return mpi.HandleNull, err
	}
	pc, err := r.physComm(comm)
	if err != nil {
		return mpi.HandleNull, err
	}
	var preq mpi.Handle
	if err := r.lowerCall(func() error {
		var e error
		preq, e = r.lower.Irecv(buf, count, pdt, src, tag, pc)
		return e
	}); err != nil {
		return mpi.HandleNull, err
	}
	virt, err := r.store.Add(mpi.KindRequest, preq, vid.Descriptor{Op: vid.DescRequest}, vid.StrategyReplay)
	if err != nil {
		return mpi.HandleNull, err
	}
	r.recvComms[virt] = comm
	return virt, nil
}

// Wait implements mpi.Proc.
func (r *Runtime) Wait(req mpi.Handle) (mpi.Status, error) {
	if st, ok := r.reqResults[req]; ok {
		delete(r.reqResults, req)
		_ = r.store.Drop(mpi.KindRequest, req)
		return st, nil
	}
	preq, err := r.store.Phys(mpi.KindRequest, req)
	if err != nil {
		return mpi.Status{}, err
	}
	r.xlatDone(lookupsWait)
	var st mpi.Status
	if err := r.lowerCall(func() error {
		var e error
		st, e = r.lower.Wait(preq)
		return e
	}); err != nil {
		return st, err
	}
	if comm, ok := r.recvComms[req]; ok { // a receive
		if err := r.countRecv(comm, st); err != nil {
			return st, err
		}
		delete(r.recvComms, req)
	}
	_ = r.store.Drop(mpi.KindRequest, req)
	return st, nil
}

// Test implements mpi.Proc.
func (r *Runtime) Test(req mpi.Handle) (bool, mpi.Status, error) {
	if st, ok := r.reqResults[req]; ok {
		delete(r.reqResults, req)
		_ = r.store.Drop(mpi.KindRequest, req)
		return true, st, nil
	}
	preq, err := r.store.Phys(mpi.KindRequest, req)
	if err != nil {
		return false, mpi.Status{}, err
	}
	var done bool
	var st mpi.Status
	if err := r.lowerCall(func() error {
		var e error
		done, st, e = r.lower.Test(preq)
		return e
	}); err != nil {
		return done, st, err
	}
	if !done {
		return false, st, nil
	}
	if comm, ok := r.recvComms[req]; ok { // a receive
		if err := r.countRecv(comm, st); err != nil {
			return true, st, err
		}
		delete(r.recvComms, req)
	}
	_ = r.store.Drop(mpi.KindRequest, req)
	return true, st, nil
}

// Iprobe implements mpi.Proc, consulting the drain buffer first.
func (r *Runtime) Iprobe(src, tag int, comm mpi.Handle) (bool, mpi.Status, error) {
	if st, ok, err := r.probeDrainBuffer(src, tag, comm); err != nil || ok {
		return ok, st, err
	}
	pc, err := r.physComm(comm)
	if err != nil {
		return false, mpi.Status{}, err
	}
	r.xlatDone(lookupsIprobe)
	var ok bool
	var st mpi.Status
	err = r.lowerCall(func() error {
		var e error
		ok, st, e = r.lower.Iprobe(src, tag, pc)
		return e
	})
	return ok, st, err
}

// Iprobes makes n discarded Iprobes (see the translation-cost table): n
// free drain-buffer hits, or one real call and n-1 times its charges,
// one Clock.Advance each in its order, so stragglers and crashes land
// where n calls put them. A lower half hiding ChargeResolve gets n calls.
func (r *Runtime) Iprobes(n, src, tag int, comm mpi.Handle) error {
	if n <= 0 {
		return nil
	}
	_, hit, err := r.probeDrainBuffer(src, tag, comm)
	lower, batch := r.lower.(interface{ ChargeResolve() })
	resolve := func() error { lower.ChargeResolve(); return nil }
	for i := 0; i < n && err == nil && !hit; i++ {
		if i == 0 || !batch {
			_, _, err = r.Iprobe(src, tag, comm)
		} else {
			r.xlatDone(lookupsIprobe)
			err = r.lowerCall(resolve)
		}
	}
	return err
}

// Probe implements mpi.Proc.
func (r *Runtime) Probe(src, tag int, comm mpi.Handle) (mpi.Status, error) {
	if st, ok, err := r.probeDrainBuffer(src, tag, comm); err != nil || ok {
		return st, err
	}
	pc, err := r.physComm(comm)
	if err != nil {
		return mpi.Status{}, err
	}
	var st mpi.Status
	err = r.lowerCall(func() error {
		var e error
		st, e = r.lower.Probe(src, tag, pc)
		return e
	})
	return st, err
}

// ---------------------------------------------------------------------
// collectives (translation only; collective traffic cannot be in flight
// at a checkpoint boundary, so no recording is needed)

// Barrier implements mpi.Proc.
func (r *Runtime) Barrier(comm mpi.Handle) error {
	pc, err := r.physComm(comm)
	if err != nil {
		return err
	}
	return r.lowerCall(func() error { return r.lower.Barrier(pc) })
}

// Bcast implements mpi.Proc.
func (r *Runtime) Bcast(buf []byte, count int, dt mpi.Handle, root int, comm mpi.Handle) error {
	pdt, err := r.physDtype(dt)
	if err != nil {
		return err
	}
	pc, err := r.physComm(comm)
	if err != nil {
		return err
	}
	return r.lowerCall(func() error { return r.lower.Bcast(buf, count, pdt, root, pc) })
}

// Reduce implements mpi.Proc.
func (r *Runtime) Reduce(send, recv []byte, count int, dt, op mpi.Handle, root int, comm mpi.Handle) error {
	pdt, err := r.physDtype(dt)
	if err != nil {
		return err
	}
	pop, err := r.physOp(op)
	if err != nil {
		return err
	}
	pc, err := r.physComm(comm)
	if err != nil {
		return err
	}
	return r.lowerCall(func() error { return r.lower.Reduce(send, recv, count, pdt, pop, root, pc) })
}

// Allreduce implements mpi.Proc.
func (r *Runtime) Allreduce(send, recv []byte, count int, dt, op mpi.Handle, comm mpi.Handle) error {
	pdt, err := r.physDtype(dt)
	if err != nil {
		return err
	}
	pop, err := r.physOp(op)
	if err != nil {
		return err
	}
	pc, err := r.physComm(comm)
	if err != nil {
		return err
	}
	r.xlatDone(lookupsAllreduce)
	return r.lowerCall(func() error { return r.lower.Allreduce(send, recv, count, pdt, pop, pc) })
}

// Alltoall implements mpi.Proc.
func (r *Runtime) Alltoall(send []byte, scount int, sdt mpi.Handle, recv []byte, rcount int, rdt mpi.Handle, comm mpi.Handle) error {
	psdt, err := r.physDtype(sdt)
	if err != nil {
		return err
	}
	prdt, err := r.physDtype(rdt)
	if err != nil {
		return err
	}
	pc, err := r.physComm(comm)
	if err != nil {
		return err
	}
	return r.lowerCall(func() error {
		return r.lower.Alltoall(send, scount, psdt, recv, rcount, prdt, pc)
	})
}

// Allgather implements mpi.Proc.
func (r *Runtime) Allgather(send []byte, scount int, sdt mpi.Handle, recv []byte, rcount int, rdt mpi.Handle, comm mpi.Handle) error {
	psdt, err := r.physDtype(sdt)
	if err != nil {
		return err
	}
	prdt, err := r.physDtype(rdt)
	if err != nil {
		return err
	}
	pc, err := r.physComm(comm)
	if err != nil {
		return err
	}
	return r.lowerCall(func() error {
		return r.lower.Allgather(send, scount, psdt, recv, rcount, prdt, pc)
	})
}

// Gather implements mpi.Proc.
func (r *Runtime) Gather(send []byte, scount int, sdt mpi.Handle, recv []byte, rcount int, rdt mpi.Handle, root int, comm mpi.Handle) error {
	psdt, err := r.physDtype(sdt)
	if err != nil {
		return err
	}
	prdt, err := r.physDtype(rdt)
	if err != nil {
		return err
	}
	pc, err := r.physComm(comm)
	if err != nil {
		return err
	}
	return r.lowerCall(func() error {
		return r.lower.Gather(send, scount, psdt, recv, rcount, prdt, root, pc)
	})
}

// Scatter implements mpi.Proc.
func (r *Runtime) Scatter(send []byte, scount int, sdt mpi.Handle, recv []byte, rcount int, rdt mpi.Handle, root int, comm mpi.Handle) error {
	psdt, err := r.physDtype(sdt)
	if err != nil {
		return err
	}
	prdt, err := r.physDtype(rdt)
	if err != nil {
		return err
	}
	pc, err := r.physComm(comm)
	if err != nil {
		return err
	}
	return r.lowerCall(func() error {
		return r.lower.Scatter(send, scount, psdt, recv, rcount, prdt, root, pc)
	})
}
