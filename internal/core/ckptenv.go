package mana

import (
	"encoding/binary"
	"fmt"

	"manasim/internal/ckpt"
	"manasim/internal/ckptimg"
	"manasim/internal/mpi"
)

// This file adapts one rank's Runtime to the checkpoint subsystem's
// interfaces: ckpt.CtlLink for coordination traffic over MANA's
// internal communicator, and ckpt.DrainEnv for the drain strategies.
// Every lower-half call crosses the split-process boundary, so the
// protocol's context switches are charged exactly as application
// wrappers are.

// ctlLink carries small int64 control payloads over manaComm.
type ctlLink struct{ r *Runtime }

// CtlSend implements ckpt.CtlLink. The values are encoded into the
// link's staging buffer; the lower half copies them out before Send
// returns, so the buffer is free for the next message.
func (l ctlLink) CtlSend(dest, tag int, vals []int64) error {
	r := l.r
	i64, err := r.lower.LookupConst(mpi.ConstInt64)
	if err != nil {
		return err
	}
	payload := r.ctlStage(len(vals))
	mpi.PutInt64s(payload, vals)
	r.bnd.Enter()
	err = r.lower.Send(payload, len(vals), i64, dest, tag, r.manaComm)
	r.bnd.Leave()
	return err
}

// ctlStage returns the link's byte staging buffer sized for count
// values.
func (r *Runtime) ctlStage(count int) []byte {
	if cap(r.ctlBuf) < 8*count {
		r.ctlBuf = make([]byte, 8*count)
	}
	return r.ctlBuf[:8*count]
}

// CtlIprobe implements ckpt.CtlLink. The count rounds the probed bytes
// up to whole values, so a receive posted with it takes the whole
// message and a ragged one still fails in CtlRecv.
func (l ctlLink) CtlIprobe(src, tag int) (bool, int, int, error) {
	r := l.r
	r.bnd.Enter()
	ok, st, err := r.lower.Iprobe(src, tag, r.manaComm)
	r.bnd.Leave()
	if err != nil || !ok {
		return false, 0, 0, err
	}
	return true, st.Source, (st.Bytes + 7) / 8, nil
}

// CtlWait implements ckpt.CtlLink: a blocking MPI_Probe on the internal
// communicator. The rank parks in the kernel until the announcement
// arrives instead of spinning.
func (l ctlLink) CtlWait(src, tag int) error {
	r := l.r
	r.bnd.Enter()
	_, err := r.lower.Probe(src, tag, r.manaComm)
	r.bnd.Leave()
	return err
}

// CtlRecv implements ckpt.CtlLink: count is the capacity posted, the
// result holds exactly the values that arrived. Both staging buffers are
// reused across calls (control traffic is serial per rank): when every
// rank of a 1024-rank drain received a thousand counter rows, fresh
// buffers per row made allocation and GC the dominant simulation cost.
// Posted with CtlIprobe's count, they grow to the longest message the
// rank has received, not to the longest the job could send.
func (l ctlLink) CtlRecv(src, tag, count int) ([]int64, error) {
	r := l.r
	i64, err := r.lower.LookupConst(mpi.ConstInt64)
	if err != nil {
		return nil, err
	}
	buf := r.ctlStage(count)
	r.bnd.Enter()
	st, err := r.lower.Recv(buf, count, i64, src, tag, r.manaComm)
	r.bnd.Leave()
	if err != nil {
		return nil, err
	}
	if st.Bytes%8 != 0 {
		return nil, fmt.Errorf("mana: control message of %d bytes from rank %d is not a whole number of int64 values", st.Bytes, st.Source)
	}
	if n := st.Bytes / 8; cap(r.ctlVals) < n {
		r.ctlVals = make([]int64, n)
	}
	vals := r.ctlVals[:st.Bytes/8]
	mpi.GetInt64s(buf[:st.Bytes], vals)
	return vals, nil
}

// drainEnv exposes the runtime to a drain strategy for one checkpoint.
type drainEnv struct {
	ctlLink
	byteDt mpi.Handle // lower-half MPI_BYTE, resolved once per drain
}

// newDrainEnv builds the per-checkpoint drain environment.
func (r *Runtime) newDrainEnv() (drainEnv, error) {
	byteDt, err := r.lower.LookupConst(mpi.ConstByte)
	if err != nil {
		return drainEnv{}, err
	}
	return drainEnv{ctlLink: ctlLink{r}, byteDt: byteDt}, nil
}

// CtlSend implements ckpt.CtlLink for the drain, counting each control
// message toward Stats.CtlMsgs and its payload toward Stats.CtlBytes
// before delegating to the link.
func (e drainEnv) CtlSend(dest, tag int, vals []int64) error {
	e.r.ctlMsgs++
	e.r.ctlBytes += uint64(8 * len(vals))
	return e.ctlLink.CtlSend(dest, tag, vals)
}

// Rank implements ckpt.DrainEnv.
func (e drainEnv) Rank() int { return e.r.rank }

// Size implements ckpt.DrainEnv.
func (e drainEnv) Size() int { return e.r.size }

// Counters implements ckpt.DrainEnv.
func (e drainEnv) Counters() ckptimg.Counters { return e.r.counters }

// RecvFrom implements ckpt.DrainEnv.
func (e drainEnv) RecvFrom(p int) uint64 { return e.r.counters.Recv(p) }

// ExchangeAll implements ckpt.DrainEnv: the MPI_Alltoall of cumulative
// counters over the internal communicator (Section 5, category 3). The
// collective counts as size-1 control messages of 8 bytes — one counter
// slot shipped to every peer. The send half is written from the sparse
// list, zero where it has no entry. The send and receive halves share
// one wire buffer, dropped after the call rather than kept as the
// link's staging buffer: 16n bytes a rank would keep for the rest of
// the job. The result is the one decoded copy of what arrived.
func (e drainEnv) ExchangeAll(sent ckptimg.Counters) ([]uint64, error) {
	r := e.r
	r.ctlMsgs += uint64(r.size - 1)
	r.ctlBytes += uint64(8 * (r.size - 1))
	u64, err := r.lower.LookupConst(mpi.ConstUint64)
	if err != nil {
		return nil, err
	}
	wire := make([]byte, 16*r.size)
	send, recv := wire[:8*r.size], wire[8*r.size:]
	for _, c := range sent {
		binary.LittleEndian.PutUint64(send[8*c.Peer:], c.Sent)
	}
	r.bnd.Enter()
	err = r.lower.Alltoall(send, 1, u64, recv, 1, u64, r.manaComm)
	r.bnd.Leave()
	if err != nil {
		return nil, err
	}
	out := make([]uint64, r.size)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(recv[8*i:])
	}
	return out, nil
}

// Comms implements ckpt.DrainEnv: the live communicators to probe, with
// their ggids and world-rank membership. MANA's internal communicator
// is not in the vid store and therefore never listed.
func (e drainEnv) Comms() ([]ckpt.DrainComm, error) {
	r := e.r
	out := make([]ckpt.DrainComm, 0, 4)
	for _, it := range r.store.Items() {
		if it.Kind != mpi.KindComm || it.Freed || it.Desc.ResultNull {
			continue
		}
		gg, err := r.ggidOf(it.Virt)
		if err != nil {
			return nil, err
		}
		world, err := r.membership(it.Virt)
		if err != nil {
			return nil, err
		}
		out = append(out, ckpt.DrainComm{Virt: it.Virt, GGID: gg, World: world})
	}
	return out, nil
}

// Probe implements ckpt.DrainEnv.
func (e drainEnv) Probe(c ckpt.DrainComm, src, tag int) (bool, mpi.Status, error) {
	r := e.r
	pc, err := r.store.Phys(mpi.KindComm, c.Virt)
	if err != nil {
		return false, mpi.Status{}, err
	}
	r.bnd.Enter()
	ok, st, err := r.lower.Iprobe(src, tag, pc)
	r.bnd.Leave()
	return ok, st, err
}

// Pull implements ckpt.DrainEnv: receive the probed message into the
// drain buffer and account it.
func (e drainEnv) Pull(c ckpt.DrainComm, st mpi.Status) (int, error) {
	r := e.r
	pc, err := r.store.Phys(mpi.KindComm, c.Virt)
	if err != nil {
		return 0, err
	}
	buf := make([]byte, st.Bytes)
	r.bnd.Enter()
	st2, err := r.lower.Recv(buf, st.Bytes, e.byteDt, st.Source, st.Tag, pc)
	r.bnd.Leave()
	if err != nil {
		return 0, err
	}
	if st2.Source < 0 || st2.Source >= len(c.World) {
		return 0, fmt.Errorf("mana: drained message from out-of-range comm rank %d", st2.Source)
	}
	w := c.World[st2.Source]
	r.drained = append(r.drained, ckptimg.DrainedMsg{
		GGID:        c.GGID,
		SrcCommRank: st2.Source,
		SrcWorld:    w,
		Tag:         st2.Tag,
		Payload:     buf[:st2.Bytes],
	})
	r.counters.AddRecv(w)
	return w, nil
}

// ---------------------------------------------------------------------
// phase reporting

// SetPhase implements ckpt.DrainEnv: post the rank's current
// drain-protocol phase to the cluster's stall-diagnostic board.
func (e drainEnv) SetPhase(phase string) {
	if e.r.phaseFn != nil {
		e.r.phaseFn(phase)
	}
}

// Compile-time checks: the adapters satisfy the subsystem interfaces.
var (
	_ ckpt.CtlLink  = ctlLink{}
	_ ckpt.DrainEnv = drainEnv{}
)
