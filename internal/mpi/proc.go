package mpi

// Proc is the per-rank lower-half MPI library: the API MANA reaches
// through the split-process boundary, and the API a natively linked
// application calls directly. All Handle arguments and results are
// physical ids in the implementation's own representation.
//
// A Proc is owned by a single rank goroutine; implementations need not be
// safe for concurrent use by multiple goroutines, matching MPI's
// THREAD_SINGLE init level.
type Proc interface {
	// Rank returns the calling process's rank in the world communicator.
	Rank() int
	// Size returns the world communicator size.
	Size() int
	// ImplName identifies the implementation ("mpich", "openmpi", ...).
	ImplName() string
	// HandleBits is the width of the MPI object types declared by this
	// implementation's mpi.h: 32 for the MPICH family's integer ids, 64
	// for pointer-based implementations (Open MPI, ExaMPI). MANA embeds
	// its virtual id in the first 32 bits of whichever type is declared
	// (paper Section 1.2, novelty 2).
	HandleBits() int
	// Caps reports which optional features the implementation supports.
	Caps() CapSet

	// LookupConst resolves a predefined global constant to its physical
	// handle in this library instance. Paper Section 4.3: the result may
	// differ between library instances (Open MPI resolves constants at
	// startup; ExaMPI materializes them lazily on first lookup), so
	// callers must not cache values across a restart.
	LookupConst(name ConstName) (Handle, error)

	// Point-to-point (paper Section 5, categories 1 and 3).

	// Send performs a blocking standard-mode send of count elements of
	// datatype dt from buf to rank dest (in comm) with the given tag.
	Send(buf []byte, count int, dt Handle, dest, tag int, comm Handle) error
	// Recv performs a blocking receive into buf.
	Recv(buf []byte, count int, dt Handle, src, tag int, comm Handle) (Status, error)
	// Isend starts a nonblocking send and returns a request handle.
	Isend(buf []byte, count int, dt Handle, dest, tag int, comm Handle) (Handle, error)
	// Irecv starts a nonblocking receive and returns a request handle.
	Irecv(buf []byte, count int, dt Handle, src, tag int, comm Handle) (Handle, error)
	// Wait blocks until the request completes and frees it.
	Wait(req Handle) (Status, error)
	// Test polls the request; if done it frees the request and returns
	// its status.
	Test(req Handle) (done bool, st Status, err error)
	// Iprobe checks for a matching incoming message without receiving it.
	Iprobe(src, tag int, comm Handle) (ok bool, st Status, err error)
	// Probe blocks until a matching message is available.
	Probe(src, tag int, comm Handle) (Status, error)

	// Collectives.

	// Barrier blocks until all members of comm have entered it.
	Barrier(comm Handle) error
	// Bcast broadcasts buf from root to all members of comm.
	Bcast(buf []byte, count int, dt Handle, root int, comm Handle) error
	// Reduce combines send buffers element-wise with op into recv at root.
	Reduce(send, recv []byte, count int, dt, op Handle, root int, comm Handle) error
	// Allreduce is Reduce followed by a broadcast of the result.
	Allreduce(send, recv []byte, count int, dt, op Handle, comm Handle) error
	// Alltoall sends the i-th block of send to rank i and receives block
	// j from rank j into recv. MANA itself depends on it (Section 5).
	Alltoall(send []byte, scount int, sdt Handle, recv []byte, rcount int, rdt Handle, comm Handle) error
	// Allgather gathers equal-size blocks from all ranks to all ranks.
	Allgather(send []byte, scount int, sdt Handle, recv []byte, rcount int, rdt Handle, comm Handle) error
	// Gather collects equal-size blocks from all ranks at root.
	Gather(send []byte, scount int, sdt Handle, recv []byte, rcount int, rdt Handle, root int, comm Handle) error
	// Scatter distributes equal-size blocks from root to all ranks.
	Scatter(send []byte, scount int, sdt Handle, recv []byte, rcount int, rdt Handle, root int, comm Handle) error

	// Communicator and group management (paper Section 5, category 2).

	// CommRank returns the caller's rank in comm.
	CommRank(comm Handle) (int, error)
	// CommSize returns the size of comm.
	CommSize(comm Handle) (int, error)
	// CommDup duplicates comm with a fresh communication context.
	CommDup(comm Handle) (Handle, error)
	// CommSplit partitions comm by color, ordering members by key.
	CommSplit(comm Handle, color, key int) (Handle, error)
	// CommCreate builds a communicator from a subgroup of comm. Callers
	// outside the group receive HandleNull.
	CommCreate(comm Handle, group Handle) (Handle, error)
	// CommFree releases a communicator created by dup/split/create.
	CommFree(comm Handle) error
	// CommGroup returns the group of comm.
	CommGroup(comm Handle) (Handle, error)
	// GroupSize returns the number of processes in the group.
	GroupSize(g Handle) (int, error)
	// GroupRank returns the caller's rank in the group, or Undefined.
	GroupRank(g Handle) (int, error)
	// GroupIncl builds a subgroup from the listed ranks of g.
	GroupIncl(g Handle, ranks []int) (Handle, error)
	// GroupTranslateRanks maps ranks of g1 to the corresponding ranks in
	// g2 (Undefined where absent), writing them into out, which holds at
	// least len(ranks) entries: the caller owns the result, as it owns
	// ranks2 in MPI_Group_translate_ranks. MANA uses it to compute
	// global group ids (Section 4.2).
	GroupTranslateRanks(g1 Handle, ranks []int, g2 Handle, out []int) error
	// GroupFree releases a group handle.
	GroupFree(g Handle) error

	// Datatypes.

	// TypeContiguous builds a datatype of count consecutive base elements.
	TypeContiguous(count int, base Handle) (Handle, error)
	// TypeVector builds a strided datatype: count blocks of blocklen base
	// elements, block starts separated by stride base elements.
	TypeVector(count, blocklen, stride int, base Handle) (Handle, error)
	// TypeIndexed builds a datatype from per-block lengths and
	// displacements (in base elements).
	TypeIndexed(blocklens, displs []int, base Handle) (Handle, error)
	// TypeCommit finalizes a derived datatype for use in communication.
	TypeCommit(dt Handle) error
	// TypeFree releases a derived datatype.
	TypeFree(dt Handle) error
	// TypeSize returns the packed size of the datatype in bytes.
	TypeSize(dt Handle) (int, error)
	// TypeExtent returns the span of the datatype in the user buffer,
	// in bytes (for strided types this exceeds TypeSize).
	TypeExtent(dt Handle) (int, error)
	// TypeGetEnvelope reports how dt was constructed.
	TypeGetEnvelope(dt Handle) (Envelope, error)
	// TypeGetContents reports the constructor arguments of dt.
	TypeGetContents(dt Handle) (Contents, error)

	// Operations.

	// OpCreate registers a user reduction. commute declares the function
	// commutative; the simulated engines reduce in rank order either way.
	OpCreate(fn ReduceFunc, commute bool) (Handle, error)
	// OpFree releases a user operation.
	OpFree(op Handle) error

	// Control.

	// Abort terminates the job abnormally with the given error code.
	Abort(code int)
}
