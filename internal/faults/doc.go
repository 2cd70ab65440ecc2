// Package faults is the seeded, deterministic fault injector of the
// simulator: node crashes, stragglers, lossy/delayed control messages,
// flaky storage, and silent blob corruption, all scheduled in virtual
// time.
//
// # Ownership
//
// One Injector is built per service experiment (or per job, for tests)
// from a Plan and a seed, and is carried by mana.Config.Faults. The
// injector owns the complete fault timeline: every event — crash
// instants drawn from the exponential MTBF process, straggler windows,
// the ordinals of dropped control messages, the blob keys of storage
// faults — is generated up front from a single rand.Source at
// construction. Nothing is drawn during the run, so the timeline is a
// pure function of (seed, plan, rank count): the same seed yields a
// byte-identical Timeline() and an identical set of injected effects on
// every kernel and every MPI implementation.
//
// The layers below consume the injector read-mostly: the core runtime
// checks the crash schedule at wrapper calls and step boundaries,
// applies straggler windows to the rank clock, and registers the
// internal communicator's context for the control-message filter; the
// transport applies that filter to drain-counter announcements; the
// checkpoint store wraps its backend in the flaky decorator. Each
// effect consumes its event exactly once, under the injector's lock.
//
// # Why faults live in virtual time, not wall clock
//
// Everything this simulator measures is virtual time: a crash "5
// seconds in" must mean five seconds of modeled execution, not five
// wall seconds of host scheduling noise — otherwise the same seed would
// kill a different step on every run. Arming faults on the rank clocks
// keeps the whole failure process inside the simulation's causal order: a crash lands between
// two deterministic clock advances, a straggler window scales a
// deterministic range of charges, and a control-message drop targets
// the Nth announcement a rank provably sends. The timeout-and-resend
// recovery in the drain protocol is the same idea: a retransmission
// timeout is a virtual-time sleep, woken by the kernel's event queue at
// its deadline.
//
// # Silent corruption (StoreCorrupt)
//
// Where a store fault makes an operation fail loudly, a StoreCorrupt
// event makes it succeed wrongly: the wrapped backend damages the blob
// at Put time — one flipped bit (CorruptFlip), a truncation
// (CorruptTruncate), or a torn write with a zeroed tail (CorruptTorn)
// — and reports success, modeling media that lies. Strikes come from
// two sources: scheduled Events naming exact keys (armed once the
// injector's virtual-time base passes their At), and Plan.CorruptRate,
// a seeded per-key coin flipped from a hash of (key, seed) so the
// strike set is a pure function of the plan regardless of worker
// interleaving. Each key is struck at most once; the manifest is
// exempt (the injector models data damage, not metadata loss);
// StoreCorruptions() reports how many keys have been hit. The defense
// — scrub, quarantine, typed decode errors, restart fallback — lives
// in ckptstore and core; this package only supplies the adversary.
package faults
