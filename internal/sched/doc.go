// Package sched is the multi-job cluster layer on top of the single-job
// MANA runtime: a node/partition model, a job queue, and pluggable
// scheduling policies in which preemption is transparent
// checkpoint-restart — the SC'23 paper's headline scheduling use case
// (urgent computing, backfill without lost work).
//
// # Model
//
// A cluster is Nodes whole nodes of SlotsPerNode rank slots each,
// carved into named partitions with priority tiers (PartitionSpec). A
// job asks for a rank count and a partition; it is placed on
// ceil(ranks/slots) whole free nodes of that partition, ranks packed in
// node order, and the placement is pinned — the cluster layer and the
// fault injector both know which scheduler node hosts each rank, so a
// node crash kills every rank placed on that node and diagnostics name
// the owning job and node.
//
// # Ownership
//
// The scheduler owns one core.JobHandle per submitted job. The handle
// owns the job's checkpoint store; the scheduler owns the cluster state
// (node ownership, queue order, virtual clock) and is single-threaded —
// one discrete-event loop over a kernel.VTQueue, the same virtual-time
// queue the event kernel schedules rank wakeups through. Job segments
// execute to completion inside the loop (simulated time, not wall
// time), so at most one MANA job is ever running while the scheduler
// decides; concurrency between resident jobs exists purely in virtual
// time, which is what makes trajectories bit-reproducible run to run
// for every seed.
//
// # Preemption vs crash
//
// Preemption is cooperative and loses nothing: the scheduler re-runs
// the victim's segment with a preemption cut (Config.CkptStopVT), rank
// 0 requests a checkpoint at the first safe boundary past the cut, the
// generation commits through the handle's store, the job parks, and its
// nodes free when the drain + commit completes — checkpoint overhead is
// exactly the gap between the cut and the nodes actually freeing. The
// requeued job later resumes from that generation
// (RestartJobFromStore) bit-identically.
//
// A crash (faults.NodeCrash) or a kill-mode preemption commits nothing:
// the job's store still holds only complete generations (the
// coordinator commits a generation only after every rank delivered), so
// a restart resumes from the last committed checkpoint — or from
// scratch — and everything since is lost work. The kill-and-requeue
// policy exists as the control arm: it pays that lost work on every
// preemption, which is precisely what the checkpoint policy's higher
// goodput quantifies.
package sched
