package mpibase

import (
	"encoding/binary"
	"math"

	"manasim/internal/mpi"
)

// Collective algorithms. All collectives are built from the engine's
// point-to-point primitives on the communicator's collective context
// (Ctx | collCtxBit) with a per-communicator sequence tag, so virtual
// time propagation (log-tree fan-in/fan-out) emerges from the network
// model rather than a separate collective cost formula.

// collTag reserves a fresh tag for one collective invocation. MPI
// requires all members to invoke collectives in the same order, so the
// per-member counters stay in lockstep.
func collTag(c *Comm) int {
	c.collSeq++
	return int(c.collSeq)
}

// sendColl / recvColl are internal point-to-point helpers on the
// collective context, moving count elements of dt straight between the
// caller's buffer and the payload: a collective stages nothing of its
// own, so the payload is packed once and unpacked once.
func (e *Engine) sendColl(c *Comm, buf []byte, count int, dt *Dtype, dest, tag int) error {
	return e.sendRaw(c, c.Ctx|collCtxBit, buf, count, dt, dest, tag)
}

func (e *Engine) recvColl(c *Comm, buf []byte, count int, dt *Dtype, src, tag int) error {
	_, err := e.recvRaw(c, c.Ctx|collCtxBit, buf, count, dt, src, tag)
	return err
}

// copyLocal moves a rank's own block from send to recv through a pooled
// buffer, as a message to itself would.
func (e *Engine) copyLocal(send []byte, scount int, sdt *Dtype, recv []byte, rcount int, rdt *Dtype) {
	b := sdt.PackInto(e.Fab.Buf(scount*sdt.SizeB), send, scount)
	rdt.Unpack(b, recv, rcount)
	e.Fab.Free(b)
}

// Barrier blocks until all members of c have entered it (dissemination
// algorithm: ceil(log2 P) rounds).
func (e *Engine) Barrier(c *Comm) error {
	p := c.Size()
	if p == 1 {
		return nil
	}
	tag := collTag(c)
	me := c.MyRank
	var one, buf [1]byte
	one[0] = 1
	for k := 1; k < p; k <<= 1 {
		to := (me + k) % p
		from := (me - k + p) % p
		if err := e.sendColl(c, one[:], 1, byteDt, to, tag); err != nil {
			return err
		}
		if err := e.recvColl(c, buf[:], 1, byteDt, from, tag); err != nil {
			return err
		}
	}
	return nil
}

// Bcast broadcasts count elements of dt from root over a binomial tree.
// Every rank receives straight into buf and forwards from it, so derived
// datatypes relay correctly and no packed copy is staged.
func (e *Engine) Bcast(c *Comm, buf []byte, count int, dt *Dtype, root int) error {
	p := c.Size()
	if root < 0 || root >= p {
		return mpi.Errorf(mpi.ErrRank, "bcast root %d out of range", root)
	}
	if p == 1 {
		return nil
	}
	tag := collTag(c)
	vr := (c.MyRank - root + p) % p // rank relative to root

	// Climb masks until the bit set in vr is found: that bit is the
	// parent link (standard MPICH binomial broadcast).
	mask := 1
	if vr != 0 {
		for mask < p {
			if vr&mask != 0 {
				parent := (vr - mask + root) % p
				if err := e.recvColl(c, buf, count, dt, parent, tag); err != nil {
					return err
				}
				break
			}
			mask <<= 1
		}
	} else {
		for mask < p {
			mask <<= 1
		}
	}

	// Forward to children below the parent bit.
	for mask >>= 1; mask > 0; mask >>= 1 {
		if vr+mask < p {
			child := (vr + mask + root) % p
			if err := e.sendColl(c, buf, count, dt, child, tag); err != nil {
				return err
			}
		}
	}
	return nil
}

// Reduce combines count elements with op into recv at root. The binomial
// tree preserves ascending rank order in each combine, so even
// non-commutative user functions see operands in canonical order. The
// accumulator and each child's operand are pooled payload buffers.
func (e *Engine) Reduce(c *Comm, send, recv []byte, count int, dt *Dtype, op *Op, root int) error {
	p := c.Size()
	if root < 0 || root >= p {
		return mpi.Errorf(mpi.ErrRank, "reduce root %d out of range", root)
	}
	tag := collTag(c)
	n := count * dt.SizeB
	acc := dt.PackInto(e.Fab.Buf(n), send, count)
	defer e.Fab.Free(acc)
	vr := (c.MyRank - root + p) % p

	for mask := 1; mask < p; mask <<= 1 {
		if vr&mask != 0 {
			// Send accumulated value to the parent and stop.
			parent := (vr - mask + root) % p
			return e.sendColl(c, acc, n, byteDt, parent, tag)
		}
		childVr := vr + mask
		if childVr >= p {
			continue
		}
		child := (childVr + root) % p
		in := e.Fab.Buf(n)
		err := e.recvColl(c, in, n, byteDt, child, tag)
		if err == nil {
			// acc covers ranks [vr, vr+mask); child covers [vr+mask, ...):
			// combine(acc, childData) keeps ascending order.
			err = applyOp(op, in, acc, count, dt)
		}
		e.Fab.Free(in)
		if err != nil {
			return err
		}
	}
	if vr == 0 {
		dt.Unpack(acc, recv, count)
	}
	return nil
}

// Allreduce is Reduce to rank 0 followed by Bcast.
func (e *Engine) Allreduce(c *Comm, send, recv []byte, count int, dt *Dtype, op *Op) error {
	if err := e.Reduce(c, send, recv, count, dt, op, 0); err != nil {
		return err
	}
	return e.Bcast(c, recv, count, dt, 0)
}

// Alltoall exchanges one block with every other rank (pairwise offsets).
// Blocks travel with their real datatypes, packed once at the sender and
// unpacked once into recv.
func (e *Engine) Alltoall(c *Comm, send []byte, scount int, sdt *Dtype, recv []byte, rcount int, rdt *Dtype) error {
	p := c.Size()
	tag := collTag(c)
	me := c.MyRank

	// Local block copies directly.
	e.copyLocal(send[me*scount*sdt.ExtentB:], scount, sdt, recv[me*rcount*rdt.ExtentB:], rcount, rdt)

	for off := 1; off < p; off++ {
		to := (me + off) % p
		from := (me - off + p) % p
		if err := e.sendColl(c, send[to*scount*sdt.ExtentB:], scount, sdt, to, tag); err != nil {
			return err
		}
		if err := e.recvColl(c, recv[from*rcount*rdt.ExtentB:], rcount, rdt, from, tag); err != nil {
			return err
		}
	}
	return nil
}

// Gather collects equal blocks at root.
func (e *Engine) Gather(c *Comm, send []byte, scount int, sdt *Dtype, recv []byte, rcount int, rdt *Dtype, root int) error {
	p := c.Size()
	if root < 0 || root >= p {
		return mpi.Errorf(mpi.ErrRank, "gather root %d out of range", root)
	}
	tag := collTag(c)
	if c.MyRank != root {
		return e.sendColl(c, send, scount, sdt, root, tag)
	}
	for r := 0; r < p; r++ {
		if r == root {
			e.copyLocal(send, scount, sdt, recv[r*rcount*rdt.ExtentB:], rcount, rdt)
			continue
		}
		if err := e.recvColl(c, recv[r*rcount*rdt.ExtentB:], rcount, rdt, r, tag); err != nil {
			return err
		}
	}
	return nil
}

// Scatter distributes equal blocks from root.
func (e *Engine) Scatter(c *Comm, send []byte, scount int, sdt *Dtype, recv []byte, rcount int, rdt *Dtype, root int) error {
	p := c.Size()
	if root < 0 || root >= p {
		return mpi.Errorf(mpi.ErrRank, "scatter root %d out of range", root)
	}
	tag := collTag(c)
	if c.MyRank != root {
		return e.recvColl(c, recv, rcount, rdt, root, tag)
	}
	for r := 0; r < p; r++ {
		block := send[r*scount*sdt.ExtentB:]
		if r == root {
			e.copyLocal(block, scount, sdt, recv, rcount, rdt)
			continue
		}
		if err := e.sendColl(c, block, scount, sdt, r, tag); err != nil {
			return err
		}
	}
	return nil
}

// Allgather gathers to rank 0 then broadcasts the concatenation.
func (e *Engine) Allgather(c *Comm, send []byte, scount int, sdt *Dtype, recv []byte, rcount int, rdt *Dtype) error {
	if err := e.Gather(c, send, scount, sdt, recv, rcount, rdt, 0); err != nil {
		return err
	}
	return e.Bcast(c, recv, rcount*c.Size(), rdt, 0)
}

// ---------------------------------------------------------------------
// Reduction operation application.

// applyOp combines `in` into `acc` element-wise: acc[i] = op(acc[i], in[i])
// in canonical (ascending-rank) operand order, i.e. acc holds the lower
// ranks' partial result.
func applyOp(op *Op, in, acc []byte, count int, dt *Dtype) error {
	if !op.Predefined {
		if op.Fn == nil {
			return mpi.Errorf(mpi.ErrOp, "user operation without function")
		}
		// MPI_User_function(invec, inoutvec): inout = op(inout, in)
		// with inout holding the lower-rank operand.
		op.Fn(in, acc, count, dt.SizeB)
		return nil
	}
	elem, ok := primElem(dt)
	if !ok {
		return mpi.Errorf(mpi.ErrType, "predefined op on non-primitive datatype %v", dt.Combiner)
	}
	combine(op.Name, elem, in, acc, count)
	return nil
}

// primElem resolves the primitive element identity of dt, unwrapping
// contiguous wrappers of primitives (a common app pattern).
func primElem(dt *Dtype) (mpi.ConstName, bool) {
	for {
		if dt.Predefined {
			return dt.Name, true
		}
		if dt.Combiner == mpi.CombinerContiguous && len(dt.Bases) == 1 {
			dt = dt.Bases[0]
			continue
		}
		return 0, false
	}
}

// combine applies a predefined op over packed little-endian values.
func combine(opName mpi.ConstName, elem mpi.ConstName, in, acc []byte, count int) {
	switch elem {
	case mpi.ConstFloat64:
		n := len(acc) / 8
		for i := 0; i < n; i++ {
			a := math.Float64frombits(binary.LittleEndian.Uint64(acc[8*i:]))
			b := math.Float64frombits(binary.LittleEndian.Uint64(in[8*i:]))
			binary.LittleEndian.PutUint64(acc[8*i:], math.Float64bits(combineF64(opName, a, b)))
		}
	case mpi.ConstFloat32:
		n := len(acc) / 4
		for i := 0; i < n; i++ {
			a := math.Float32frombits(binary.LittleEndian.Uint32(acc[4*i:]))
			b := math.Float32frombits(binary.LittleEndian.Uint32(in[4*i:]))
			binary.LittleEndian.PutUint32(acc[4*i:], math.Float32bits(float32(combineF64(opName, float64(a), float64(b)))))
		}
	case mpi.ConstInt64, mpi.ConstUint64:
		n := len(acc) / 8
		for i := 0; i < n; i++ {
			a := int64(binary.LittleEndian.Uint64(acc[8*i:]))
			b := int64(binary.LittleEndian.Uint64(in[8*i:]))
			binary.LittleEndian.PutUint64(acc[8*i:], uint64(combineI64(opName, a, b)))
		}
	case mpi.ConstInt32:
		n := len(acc) / 4
		for i := 0; i < n; i++ {
			a := int64(int32(binary.LittleEndian.Uint32(acc[4*i:])))
			b := int64(int32(binary.LittleEndian.Uint32(in[4*i:])))
			binary.LittleEndian.PutUint32(acc[4*i:], uint32(int32(combineI64(opName, a, b))))
		}
	default: // byte/char
		for i := range acc {
			if i < len(in) {
				acc[i] = byte(combineI64(opName, int64(acc[i]), int64(in[i])))
			}
		}
	}
}

// combineF64 applies op to float operands: r = op(a, b) where a is the
// lower-rank operand.
func combineF64(op mpi.ConstName, a, b float64) float64 {
	switch op {
	case mpi.ConstOpSum:
		return a + b
	case mpi.ConstOpProd:
		return a * b
	case mpi.ConstOpMax:
		return math.Max(a, b)
	case mpi.ConstOpMin:
		return math.Min(a, b)
	case mpi.ConstOpLand:
		if a != 0 && b != 0 {
			return 1
		}
		return 0
	case mpi.ConstOpLor:
		if a != 0 || b != 0 {
			return 1
		}
		return 0
	default:
		// Bitwise ops on floats are invalid in MPI; treat as identity of a.
		return a
	}
}

// combineI64 applies op to integer operands.
func combineI64(op mpi.ConstName, a, b int64) int64 {
	switch op {
	case mpi.ConstOpSum:
		return a + b
	case mpi.ConstOpProd:
		return a * b
	case mpi.ConstOpMax:
		if a > b {
			return a
		}
		return b
	case mpi.ConstOpMin:
		if a < b {
			return a
		}
		return b
	case mpi.ConstOpLand:
		if a != 0 && b != 0 {
			return 1
		}
		return 0
	case mpi.ConstOpLor:
		if a != 0 || b != 0 {
			return 1
		}
		return 0
	case mpi.ConstOpBand:
		return a & b
	case mpi.ConstOpBor:
		return a | b
	default:
		return a
	}
}
