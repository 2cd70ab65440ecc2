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
// ceil(ranks/slots) whole free nodes of that partition. Every job's
// segments run under its scheduler id (Config.JobLabel), so deadlock
// diagnostics and injected crashes name the owning job.
//
// # Ownership
//
// The scheduler owns one checkpoint store per submitted job. A segment
// launches the job (core.StartJob) while the store is empty and resumes
// it from the newest committed generation (core.RestartJobFromStore)
// otherwise. The scheduler owns the cluster state (node ownership,
// queue order, virtual clock) and is single-threaded — one
// discrete-event loop over a kernel.VTQueue, the same virtual-time
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
// the victim's segment with a preemption cut (Config.CkptInterval with
// ExitAtCheckpoint), rank 0 requests a checkpoint at the first safe
// boundary past the cut, the generation commits into the job's store,
// the job parks, and its nodes free when the drain + commit completes.
// Checkpoint overhead is the protocol's own virtual time
// (Stats.CkptCostVTs), not the gap between the cut and the nodes
// freeing: the steps run up to the first safe boundary past the cut are
// progress the job keeps. The requeued job later resumes from that
// generation (RestartJobFromStore) bit-identically.
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
