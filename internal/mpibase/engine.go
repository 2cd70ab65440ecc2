package mpibase

import (
	"sort"
	"time"

	"manasim/internal/mpi"
	"manasim/internal/simtime"
	"manasim/internal/transport"
)

// collCtxBit separates collective traffic from user point-to-point
// traffic on the same communicator, so that wildcard receives can never
// steal internal messages.
const collCtxBit uint32 = 1 << 31

// Engine implements MPI semantics for one rank against internal object
// structs. It is the layer all four simulated implementations share.
type Engine struct {
	Fab   *transport.Fabric
	Ep    *transport.Endpoint
	Clock *simtime.Clock
	Net   simtime.NetModel

	rank, size int

	// The predefined communicators and groups live in the engine, so a
	// launch allocates none of them. The world group's ranks are the
	// fabric's shared list and the self group's a window of it.
	worldComm, selfComm               Comm
	worldGroup, selfGroup, emptyGroup Group
}

// predefDtypes and predefOps are the predefined datatypes and
// operations, indexed by ConstName (nil where a name is of another
// kind). Every Engine of every job shares them, so nothing may write
// them: TypeCommit leaves a committed type alone, and no other call
// writes a predefined object.
var (
	predefDtypes = [mpi.NumConstNames]*Dtype{
		mpi.ConstByte:    primType(mpi.ConstByte, 1),
		mpi.ConstChar:    primType(mpi.ConstChar, 1),
		mpi.ConstInt32:   primType(mpi.ConstInt32, 4),
		mpi.ConstInt64:   primType(mpi.ConstInt64, 8),
		mpi.ConstUint64:  primType(mpi.ConstUint64, 8),
		mpi.ConstFloat32: primType(mpi.ConstFloat32, 4),
		mpi.ConstFloat64: primType(mpi.ConstFloat64, 8),
	}
	predefOps = [mpi.NumConstNames]*Op{
		mpi.ConstOpSum:  predefOp(mpi.ConstOpSum),
		mpi.ConstOpProd: predefOp(mpi.ConstOpProd),
		mpi.ConstOpMax:  predefOp(mpi.ConstOpMax),
		mpi.ConstOpMin:  predefOp(mpi.ConstOpMin),
		mpi.ConstOpLand: predefOp(mpi.ConstOpLand),
		mpi.ConstOpLor:  predefOp(mpi.ConstOpLor),
		mpi.ConstOpBand: predefOp(mpi.ConstOpBand),
		mpi.ConstOpBor:  predefOp(mpi.ConstOpBor),
	}
	byteDt  = predefDtypes[mpi.ConstByte]
	int32Dt = predefDtypes[mpi.ConstInt32]
	int64Dt = predefDtypes[mpi.ConstInt64]
)

func primType(name mpi.ConstName, size int) *Dtype {
	return &Dtype{
		SizeB:      size,
		ExtentB:    size,
		Combiner:   mpi.CombinerNamed,
		Name:       name,
		Predefined: true,
		Committed:  true,
		segs:       []seg{{0, size}},
	}
}

func predefOp(name mpi.ConstName) *Op {
	return &Op{Name: name, Predefined: true}
}

// NewEngine attaches rank r to the fabric and builds its predefined
// communicators and groups.
func NewEngine(fab *transport.Fabric, r int, clock *simtime.Clock, net simtime.NetModel) *Engine {
	ranks := fab.Ranks()
	e := &Engine{
		Fab:        fab,
		Ep:         fab.Endpoint(r),
		Clock:      clock,
		Net:        net,
		rank:       r,
		size:       len(ranks),
		worldGroup: Group{Ranks: ranks, Predefined: true},
		selfGroup:  Group{Ranks: ranks[r : r+1 : r+1], Predefined: true},
		emptyGroup: Group{Predefined: true},
	}
	e.worldComm = Comm{Ctx: 1, Group: &e.worldGroup, MyRank: r, Predefined: true}
	e.selfComm = Comm{Ctx: 2, Group: &e.selfGroup, MyRank: 0, Predefined: true}
	return e
}

// Rank returns the world rank.
func (e *Engine) Rank() int { return e.rank }

// Size returns the world size.
func (e *Engine) Size() int { return e.size }

// ---------------------------------------------------------------------
// Point-to-point.

// worldDest translates a communicator rank to a world rank.
func worldDest(c *Comm, rank int) (int, error) {
	if rank == mpi.ProcNull {
		return mpi.ProcNull, nil
	}
	if rank < 0 || rank >= c.Size() {
		return 0, mpi.Errorf(mpi.ErrRank, "rank %d out of range for communicator of size %d", rank, c.Size())
	}
	return c.Group.Ranks[rank], nil
}

// Send performs a blocking standard-mode (eager) send.
func (e *Engine) Send(c *Comm, buf []byte, count int, dt *Dtype, dest, tag int) error {
	if tag < 0 {
		return mpi.Errorf(mpi.ErrTag, "negative tag %d", tag)
	}
	return e.sendRaw(c, c.Ctx, buf, count, dt, dest, tag)
}

// sendRaw is the common path for user and internal sends; ctx selects
// point-to-point or collective context.
func (e *Engine) sendRaw(c *Comm, ctx uint32, buf []byte, count int, dt *Dtype, dest, tag int) error {
	if dest == mpi.ProcNull {
		return nil
	}
	world, err := worldDest(c, dest)
	if err != nil {
		return err
	}
	if count < 0 {
		return mpi.Errorf(mpi.ErrCount, "negative count %d", count)
	}
	if need := dt.BufLen(count); len(buf) < need {
		return mpi.Errorf(mpi.ErrArg, "send buffer %d bytes, need %d", len(buf), need)
	}
	// Packing into a pooled buffer is the one copy between the caller's
	// buffer and the mailbox: the transport takes it over as it is, and
	// the receiver's finishRecv returns it to the pool.
	payload := dt.PackInto(e.Fab.Buf(count*dt.SizeB), buf, count)
	e.Clock.Advance(e.Net.Overhead)
	if err := e.Ep.SendOwned(world, ctx, tag, payload, e.Clock.Now()); err != nil {
		return mpi.Errorf(mpi.ErrOther, "%v", err)
	}
	return nil
}

// makeMatch builds a transport match for a receive on comm c.
func makeMatch(c *Comm, ctx uint32, src, tag int) (transport.Match, error) {
	m := transport.Match{Context: ctx, Src: transport.AnySource, Tag: tag}
	if src != mpi.AnySource {
		w, err := worldDest(c, src)
		if err != nil {
			return m, err
		}
		m.Src = w
	}
	if tag == mpi.AnyTag {
		m.Tag = transport.AnyTag
	}
	return m, nil
}

// finishRecv accounts virtual time for a delivered message, unpacks it
// and returns its payload to the fabric's pool.
func (e *Engine) finishRecv(c *Comm, msg *transport.Message, buf []byte, count int, dt *Dtype) (mpi.Status, error) {
	defer e.Fab.Free(msg.Payload)
	arrival := msg.SendVT + e.Net.TransferCost(len(msg.Payload))
	e.Clock.MergeAtLeast(arrival)
	e.Clock.Advance(e.Net.Overhead)
	st := mpi.Status{
		Source: c.Group.RankOf(msg.Src),
		Tag:    msg.Tag,
		Bytes:  len(msg.Payload),
	}
	if len(msg.Payload) > count*dt.SizeB {
		return st, mpi.Errorf(mpi.ErrTruncate, "message of %d bytes truncated to %d-element buffer", len(msg.Payload), count)
	}
	dt.Unpack(msg.Payload, buf, count)
	return st, nil
}

// Recv performs a blocking receive.
func (e *Engine) Recv(c *Comm, buf []byte, count int, dt *Dtype, src, tag int) (mpi.Status, error) {
	if src == mpi.ProcNull {
		return mpi.Status{Source: mpi.ProcNull, Tag: mpi.AnyTag}, nil
	}
	return e.recvRaw(c, c.Ctx, buf, count, dt, src, tag)
}

func (e *Engine) recvRaw(c *Comm, ctx uint32, buf []byte, count int, dt *Dtype, src, tag int) (mpi.Status, error) {
	m, err := makeMatch(c, ctx, src, tag)
	if err != nil {
		return mpi.Status{}, err
	}
	msg, err := e.Ep.Recv(m)
	if err != nil {
		return mpi.Status{}, mpi.Errorf(mpi.ErrOther, "%v", err)
	}
	return e.finishRecv(c, &msg, buf, count, dt)
}

// SleepUntil parks the rank until virtual time at and merges the clock
// forward to at (the transport reports ErrNoScheduler when no timed
// scheduler is attached). Sleeping to a time already in the past
// returns immediately after a zero-length park.
func (e *Engine) SleepUntil(at time.Duration) error {
	if at < e.Clock.Now() {
		at = e.Clock.Now()
	}
	if err := e.Ep.SleepUntil(at); err != nil {
		return mpi.Errorf(mpi.ErrOther, "%v", err)
	}
	e.Clock.MergeAtLeast(at)
	return nil
}

// Iprobe checks for a matching message without receiving it. Only
// messages already sent in this rank's virtual present are visible: the
// eager transport deposits a message the instant the sender issues it,
// so without the send-time gate a lagging rank could observe — and then
// receive, dragging its clock forward — an envelope from its own virtual
// future. A probe that returns false simply means nothing has arrived
// *yet* at this rank's clock; the message becomes visible once the
// rank's own time passes the send instant.
func (e *Engine) Iprobe(c *Comm, src, tag int) (bool, mpi.Status, error) {
	m, err := makeMatch(c, c.Ctx, src, tag)
	if err != nil {
		return false, mpi.Status{}, err
	}
	msg, ok := e.Ep.ProbeVisible(m, e.Clock.Now())
	if !ok {
		return false, mpi.Status{}, nil
	}
	return true, mpi.Status{
		Source: c.Group.RankOf(msg.Src),
		Tag:    msg.Tag,
		Bytes:  len(msg.Payload),
	}, nil
}

// Probe blocks until a matching message is available, waiting in virtual
// time: if the earliest matching envelope was sent in this rank's
// future, the rank's clock advances to that send instant — that is what
// blocking until arrival means — so a Probe-then-Iprobe sequence always
// agrees with itself.
func (e *Engine) Probe(c *Comm, src, tag int) (mpi.Status, error) {
	m, err := makeMatch(c, c.Ctx, src, tag)
	if err != nil {
		return mpi.Status{}, err
	}
	for {
		if msg, ok := e.Ep.ProbeVisible(m, e.Clock.Now()); ok {
			return mpi.Status{
				Source: c.Group.RankOf(msg.Src),
				Tag:    msg.Tag,
				Bytes:  len(msg.Payload),
			}, nil
		}
		if at, ok := e.Ep.EarliestMatchVT(m); ok {
			e.Clock.MergeAtLeast(at)
			continue
		}
		if err := e.Ep.WaitMatch(m); err != nil {
			return mpi.Status{}, mpi.Errorf(mpi.ErrOther, "%v", err)
		}
	}
}

// Irecv registers a nonblocking receive. The mailbox operation happens at
// Wait/Test time.
func (e *Engine) Irecv(c *Comm, buf []byte, count int, dt *Dtype, src, tag int) (*Req, error) {
	if count < 0 {
		return nil, mpi.Errorf(mpi.ErrCount, "negative count %d", count)
	}
	return &Req{
		Buf:   buf,
		Count: count,
		Dt:    dt,
		Comm:  c,
		Src:   src,
		Tag:   tag,
	}, nil
}

// Wait blocks until the request completes.
func (e *Engine) Wait(r *Req) (mpi.Status, error) {
	if r.Done {
		return r.St, nil
	}
	st, err := e.Recv(r.Comm, r.Buf, r.Count, r.Dt, r.Src, r.Tag)
	r.Done = true
	r.St = st
	return st, err
}

// Test polls the request for completion. Unlike Iprobe, Test is not
// gated on the message's send time: completing a posted receive is
// Wait-like — the receiver genuinely consumes the data, so merging its
// clock to the arrival instant is the correct accounting, and a gated
// Test would livelock a Test spin loop whose rank has nothing else
// advancing its clock.
func (e *Engine) Test(r *Req) (bool, mpi.Status, error) {
	if r.Done {
		return true, r.St, nil
	}
	m, err := makeMatch(r.Comm, r.Comm.Ctx, r.Src, r.Tag)
	if err != nil {
		return false, mpi.Status{}, err
	}
	msg, ok, err := e.Ep.TryRecv(m)
	if err != nil {
		return false, mpi.Status{}, mpi.Errorf(mpi.ErrOther, "%v", err)
	}
	if !ok {
		return false, mpi.Status{}, nil
	}
	st, err := e.finishRecv(r.Comm, &msg, r.Buf, r.Count, r.Dt)
	r.Done = true
	r.St = st
	return true, st, err
}

// ---------------------------------------------------------------------
// Communicator and group management.

// CommDup duplicates c with a fresh context agreed collectively.
func (e *Engine) CommDup(c *Comm) (*Comm, error) {
	ctx, err := e.agreeContexts(c, 1)
	if err != nil {
		return nil, err
	}
	return &Comm{Ctx: ctx, Group: c.Group.Clone(), MyRank: c.MyRank}, nil
}

// CommSplit partitions c by color, ordering each part by (key, rank).
// A color of mpi.Undefined yields a nil communicator for that caller.
func (e *Engine) CommSplit(c *Comm, color, key int) (*Comm, error) {
	p := c.Size()
	// Allgather (color, key) across the communicator.
	sendv := mpi.Int64Bytes([]int64{int64(color), int64(key)})
	recvv := make([]byte, 16*p)
	if err := e.Allgather(c, sendv, 2, int64Dt, recvv, 2, int64Dt); err != nil {
		return nil, err
	}
	all := mpi.Int64s(recvv)

	// Distinct colors in ascending order (mpi.Undefined excluded).
	colors := make([]int, 0, p)
	seen := make(map[int]bool, p)
	for r := 0; r < p; r++ {
		col := int(all[2*r])
		if col == mpi.Undefined || seen[col] {
			continue
		}
		seen[col] = true
		colors = append(colors, col)
	}
	sort.Ints(colors)

	// One fresh context per color, agreed once.
	base, err := e.agreeContexts(c, len(colors))
	if err != nil {
		return nil, err
	}
	if color == mpi.Undefined {
		return nil, nil
	}

	// Members of my color, ordered by (key, parent rank).
	type member struct{ key, parentRank int }
	var members []member
	for r := 0; r < p; r++ {
		if int(all[2*r]) == color {
			members = append(members, member{int(all[2*r+1]), r})
		}
	}
	sort.Slice(members, func(i, j int) bool {
		if members[i].key != members[j].key {
			return members[i].key < members[j].key
		}
		return members[i].parentRank < members[j].parentRank
	})

	ranks := make([]int, len(members))
	myRank := mpi.Undefined
	for i, m := range members {
		ranks[i] = c.Group.Ranks[m.parentRank]
		if m.parentRank == c.MyRank {
			myRank = i
		}
	}
	colorIdx := indexOf(colors, color)
	return &Comm{
		Ctx:    base + uint32(colorIdx),
		Group:  &Group{Ranks: ranks},
		MyRank: myRank,
	}, nil
}

// CommCreate builds a communicator from a subgroup of c. All members of c
// must call; callers outside g receive nil.
func (e *Engine) CommCreate(c *Comm, g *Group) (*Comm, error) {
	ctx, err := e.agreeContexts(c, 1)
	if err != nil {
		return nil, err
	}
	my := g.RankOf(c.Group.Ranks[c.MyRank])
	if my == mpi.Undefined {
		return nil, nil
	}
	return &Comm{Ctx: ctx, Group: g.Clone(), MyRank: my}, nil
}

// CommFree releases a user communicator.
func (e *Engine) CommFree(c *Comm) error {
	if c.Predefined {
		return mpi.Errorf(mpi.ErrComm, "cannot free predefined communicator")
	}
	if c.freed {
		return mpi.Errorf(mpi.ErrComm, "double free of communicator ctx=%d", c.Ctx)
	}
	c.freed = true
	return nil
}

// agreeContexts collectively reserves n consecutive context ids: the root
// draws them from the fabric and broadcasts the base, modeling the
// context-agreement collective of real implementations.
func (e *Engine) agreeContexts(c *Comm, n int) (uint32, error) {
	var base uint32
	if c.MyRank == 0 {
		base = e.Fab.AllocContextRange(n)
	}
	buf := make([]byte, 4)
	if c.MyRank == 0 {
		buf = mpi.Int32Bytes([]int32{int32(base)})
	}
	if err := e.Bcast(c, buf, 1, int32Dt, 0); err != nil {
		return 0, err
	}
	return uint32(mpi.Int32s(buf)[0]), nil
}

// GroupTranslateRanks maps ranks of g1 into g2.
func (e *Engine) GroupTranslateRanks(g1 *Group, ranks []int, g2 *Group) ([]int, error) {
	out := make([]int, len(ranks))
	for i, r := range ranks {
		if r < 0 || r >= g1.Size() {
			return nil, mpi.Errorf(mpi.ErrRank, "rank %d out of range for group of size %d", r, g1.Size())
		}
		out[i] = g2.RankOf(g1.Ranks[r])
	}
	return out, nil
}

// GroupIncl builds a subgroup from the listed ranks of g.
func (e *Engine) GroupIncl(g *Group, ranks []int) (*Group, error) {
	out := &Group{Ranks: make([]int, len(ranks))}
	for i, r := range ranks {
		if r < 0 || r >= g.Size() {
			return nil, mpi.Errorf(mpi.ErrRank, "rank %d out of range for group of size %d", r, g.Size())
		}
		out.Ranks[i] = g.Ranks[r]
	}
	return out, nil
}

// ---------------------------------------------------------------------
// Datatypes and operations.

// TypeContiguous builds a contiguous derived datatype.
func (e *Engine) TypeContiguous(count int, base *Dtype) (*Dtype, error) {
	if count < 0 {
		return nil, mpi.Errorf(mpi.ErrCount, "negative count %d", count)
	}
	return &Dtype{
		SizeB:    count * base.SizeB,
		ExtentB:  count * base.ExtentB,
		Combiner: mpi.CombinerContiguous,
		Ints:     []int{count},
		Bases:    []*Dtype{base},
		segs:     layout(base, 1, func(int) (int, int) { return 0, count }),
	}, nil
}

// TypeVector builds a strided derived datatype.
func (e *Engine) TypeVector(count, blocklen, stride int, base *Dtype) (*Dtype, error) {
	if count < 0 || blocklen < 0 {
		return nil, mpi.Errorf(mpi.ErrCount, "negative count/blocklen %d/%d", count, blocklen)
	}
	d := &Dtype{
		SizeB:    count * blocklen * base.SizeB,
		Combiner: mpi.CombinerVector,
		Ints:     []int{count, blocklen, stride},
		Bases:    []*Dtype{base},
	}
	if count > 0 {
		d.ExtentB = ((count-1)*stride + blocklen) * base.ExtentB
	}
	d.segs = layout(base, count, func(b int) (int, int) { return b * stride, blocklen })
	return d, nil
}

// TypeIndexed builds a datatype from block lengths and displacements (in
// base elements).
func (e *Engine) TypeIndexed(blocklens, displs []int, base *Dtype) (*Dtype, error) {
	if len(blocklens) != len(displs) {
		return nil, mpi.Errorf(mpi.ErrArg, "blocklens (%d) and displs (%d) differ in length", len(blocklens), len(displs))
	}
	ints := make([]int, 0, 1+2*len(blocklens))
	d := &Dtype{
		Combiner: mpi.CombinerIndexed,
		Ints:     append(append(append(ints, len(blocklens)), blocklens...), displs...),
		Bases:    []*Dtype{base},
	}
	ext := 0
	for i, bl := range blocklens {
		if bl < 0 {
			return nil, mpi.Errorf(mpi.ErrCount, "negative block length %d", bl)
		}
		d.SizeB += bl * base.SizeB
		if end := (displs[i] + bl) * base.ExtentB; end > ext {
			ext = end
		}
	}
	d.ExtentB = ext
	d.segs = layout(base, len(blocklens), func(i int) (int, int) { return displs[i], blocklens[i] })
	return d, nil
}

// layout returns a derived datatype's segments: base's segments laid at
// each element of blocks blocks, block(i) giving block i's displacement
// and length in base elements. A segment that starts where the one
// before it ends is merged into it, to speed pack/unpack. A first walk
// counts the merged segments, so the list is allocated once.
func layout(base *Dtype, blocks int, block func(i int) (displ, n int)) []seg {
	var segs []seg
	for fill := range 2 {
		count, end := 0, 0
		for i := range blocks {
			displ, n := block(i)
			for j := range n {
				for _, s := range base.segs {
					off := (displ+j)*base.ExtentB + s.off
					if count == 0 || off != end {
						count++
						if fill == 1 {
							segs = append(segs, seg{off, 0})
						}
					}
					if fill == 1 {
						segs[count-1].n += s.n
					}
					end = off + s.n
				}
			}
		}
		if fill == 0 {
			segs = make([]seg, 0, count)
		}
	}
	return segs
}

// OpCreate registers a user reduction operation. Reduce combines
// operands in rank order, so commutativity changes nothing.
func (e *Engine) OpCreate(fn mpi.ReduceFunc) (*Op, error) {
	if fn == nil {
		return nil, mpi.Errorf(mpi.ErrArg, "nil reduction function")
	}
	return &Op{Fn: fn}, nil
}

// ---------------------------------------------------------------------
// small helpers.

func indexOf(v []int, x int) int {
	for i, y := range v {
		if y == x {
			return i
		}
	}
	return -1
}
