package harness

import (
	"errors"
	"fmt"
	"math"
	"time"

	"manasim/internal/apps"
	"manasim/internal/ckptimg"
	"manasim/internal/ckptstore"
	mana "manasim/internal/core"
	"manasim/internal/faults"
	"manasim/internal/fsim"
	"manasim/internal/impls"
)

// This file is the long-horizon service experiment: run an application
// under a crash process for as long as it takes to finish, restarting
// from the checkpoint store after every failure, and compare checkpoint
// interval policies by goodput — the fraction of consumed machine time
// that was useful forward progress: fixed intervals bracketing the
// Young/Daly optimum sqrt(2·MTBF·C).

// YoungDaly is the first-order optimal checkpoint interval for a system
// with the given mean time between failures and checkpoint cost:
// sqrt(2·MTBF·C) (Young 1974, Daly 2006).
func YoungDaly(mtbf, c time.Duration) time.Duration {
	if mtbf <= 0 || c <= 0 {
		return 0
	}
	return time.Duration(math.Sqrt(2 * float64(mtbf) * float64(c)))
}

// ServiceSpec configures one long-horizon service run.
type ServiceSpec struct {
	App   string
	Impl  string
	Ranks int
	// Steps overrides the application's simulated step count.
	Steps int
	// Seed drives the fault injector's deterministic timeline.
	Seed int64
	// MTBF parameterizes the exponential crash process; Crashes bounds
	// how many the timeline holds.
	MTBF    time.Duration
	Crashes int
	// Interval is the checkpoint interval. Zero means the Young/Daly
	// interval for MTBF and the checkpoint cost serviceProbe measures.
	Interval time.Duration
	// CorruptRate silently corrupts that fraction of the store's blobs
	// (seeded per key, each key struck at most once) — the
	// silent-corruption half of the store-integrity experiment. When
	// set, the store is scrubbed before every restart so damage is
	// detected and quarantined instead of decoded.
	CorruptRate float64
	// Fallback enables degrade-to-older-generation restart
	// (mana.Config.RestartFallback): a corrupt or quarantined head no
	// longer forces the service back to step 0; the restart walks to
	// the newest verifying generation and the recomputed window is
	// charged to the service clock by the longer attempt.
	Fallback bool
	// BaselineVT is the job's fault-free virtual runtime, used as the
	// goodput numerator; measured on the fly when zero.
	BaselineVT time.Duration
	Logf       func(format string, args ...any)
}

// ServiceAttempt is one entry of a service run's trajectory: a job
// launch that either finished the application or died on an injected
// crash and was restarted from the newest complete generation.
type ServiceAttempt struct {
	Attempt int `json:"attempt"`
	// Restarted reports the attempt resumed from the store's newest
	// complete generation (false: fresh start from step 0).
	Restarted bool `json:"restarted"`
	// VTS is the virtual time the attempt consumed (crash time for
	// crashed attempts), in seconds; ServiceVTS is cumulative service
	// time at the attempt's end.
	VTS        float64 `json:"vt_s"`
	ServiceVTS float64 `json:"service_vt_s"`
	Crashed    bool    `json:"crashed"`
	CrashRank  int     `json:"crash_rank"`
	// LostVTS is the work lost to the crash: virtual time since the last
	// committed checkpoint, in seconds.
	LostVTS float64 `json:"lost_vt_s"`
	// Ckpts is the number of checkpoints the attempt committed;
	// IntervalS the checkpoint interval in force.
	Ckpts     int     `json:"ckpts"`
	IntervalS float64 `json:"interval_s"`
	// RestartGen is the store generation the attempt resumed from (-1
	// for fresh starts); a value below the store head means the restart
	// degraded past damaged or quarantined generations.
	RestartGen int `json:"restart_gen"`
	// FreshStart marks the corruption cliff: no generation was
	// restartable, so the attempt started over from step 0.
	FreshStart bool `json:"fresh_start,omitempty"`
	// ExtraLostVTS is the checkpointed application progress between the
	// generation the attempt actually resumed and the newest committed
	// checkpoint — progress that will be recomputed because the newer
	// generations were unusable. In seconds.
	ExtraLostVTS float64 `json:"extra_lost_vt_s,omitempty"`
}

// ServiceOutcome summarizes one service run under one interval policy.
type ServiceOutcome struct {
	Policy string `json:"policy" col:"Policy,%s"`
	// IntervalS is the checkpoint interval in seconds.
	IntervalS float64 `json:"interval_s" col:"Interval (ms),%.2f,1e3"`
	// Goodput is BaselineVTS, the fault-free runtime (the useful work),
	// over TotalVTS, the service time actually consumed.
	Goodput     float64          `json:"goodput" col:"Goodput,%.3f"`
	BaselineVTS float64          `json:"baseline_vt_s"`
	TotalVTS    float64          `json:"total_vt_s" col:"Total (ms),%.1f,1e3"`
	LostVTS     float64          `json:"lost_vt_s" col:"Lost (ms),%.1f,1e3"`
	Crashes     int              `json:"crashes" col:"Crashes,%d"`
	Restarts    int              `json:"restarts" col:"Rst,%d"`
	Ckpts       int              `json:"ckpts" col:"Ckpts,%d"`
	Attempts    []ServiceAttempt `json:"attempts"`
	// Integrity counters of the corruption experiment: the distinct
	// store keys the injector silently damaged, what the between-attempt
	// scrubs found and repaired, and how often the service fell off the
	// cliff (no restartable generation, fresh start from step 0).
	CorruptRate   float64 `json:"corrupt_rate,omitempty"`
	Fallback      bool    `json:"fallback,omitempty"`
	Corruptions   int     `json:"corruptions,omitempty" col:"Corrupt,%d"`
	ScrubFindings int     `json:"scrub_findings,omitempty" col:"Scrub,%d"`
	ScrubRepaired int     `json:"scrub_repaired,omitempty" col:"Repaired,%d"`
	FreshStarts   int     `json:"fresh_starts,omitempty" col:"Fresh,%d"`
}

// RunService executes one long-horizon service run: the application
// under the spec's crash process, restarted from the checkpoint store
// after every injected crash, until it completes. Each attempt's lost
// work (virtual time past the last committed checkpoint) and restart
// cost are charged to the service clock; the outcome reports goodput
// against the fault-free baseline.
func RunService(sp ServiceSpec) (*ServiceOutcome, error) {
	spec, err := apps.ByName(sp.App)
	if err != nil {
		return nil, err
	}
	factory, err := impls.Get(sp.Impl)
	if err != nil {
		return nil, err
	}
	in := spec.DefaultInput(apps.SiteDiscovery)
	in.Ranks = sp.Ranks
	if sp.Steps > 0 {
		in.SimSteps = sp.Steps
	}
	appf := spec.New(in)
	base := mana.Config{
		ImplName: sp.Impl,
		Factory:  factory,
		FS:       fsim.NVMe(),
	}

	if sp.Interval <= 0 && sp.MTBF > 0 {
		baseVT, ckptCost, err := serviceProbe(sp)
		if err != nil {
			return nil, err
		}
		if sp.BaselineVT <= 0 {
			sp.BaselineVT = baseVT
		}
		sp.Interval = YoungDaly(sp.MTBF, ckptCost)
	}
	if sp.BaselineVT <= 0 {
		st, err := mana.RunNative(base, sp.Ranks, appf)
		if err != nil {
			return nil, fmt.Errorf("service baseline: %w", err)
		}
		sp.BaselineVT = st.VT
	}

	inj := faults.NewInjector(sp.Ranks, faults.Plan{
		Seed:        sp.Seed,
		MTBF:        sp.MTBF,
		Crashes:     sp.Crashes,
		CorruptRate: sp.CorruptRate,
	})
	storeOpts := ckptstore.Options{}
	if sp.CorruptRate > 0 {
		// Only interpose the corrupting backend when the experiment asks
		// for it; at rate 0 the store path stays byte-identical to the
		// plain service run.
		storeOpts.WrapBackend = inj.WrapBackend()
	}
	store, err := ckptstore.Open(sp.Ranks, storeOpts)
	if err != nil {
		return nil, err
	}
	out := &ServiceOutcome{
		Policy:      "fixed",
		IntervalS:   sp.Interval.Seconds(),
		BaselineVTS: sp.BaselineVT.Seconds(),
		CorruptRate: sp.CorruptRate,
		Fallback:    sp.Fallback,
	}

	elapsed := time.Duration(0)
	gens := 0
	// genProgress records each generation's checkpointed application
	// progress (virtual time from step 0), genIncr the progress it added
	// over its lineage predecessor, both indexed by store sequence
	// number. They price the recomputation a restart accepts when it
	// degrades below the head or falls off the cliff; chargedGens keeps
	// each generation's work charged at most once, however many restarts
	// walk past it.
	var genProgress, genIncr []time.Duration
	chargedGens := make(map[int]bool)
	// chargeLost sums the not-yet-charged progress of generations
	// (from, to], marking them charged.
	chargeLost := func(from, to int) time.Duration {
		var sum time.Duration
		for i := from + 1; i <= to && i < len(genIncr); i++ {
			if i < 0 || chargedGens[i] {
				continue
			}
			chargedGens[i] = true
			sum += genIncr[i]
		}
		return sum
	}
	maxAttempts := 2*sp.Crashes + 8
	if sp.CorruptRate > 0 {
		// Corruption adds fresh-start and degraded-restart attempts on
		// top of the crash budget.
		maxAttempts += sp.Crashes + 8
	}
	for attempt := 0; ; attempt++ {
		if attempt >= maxAttempts {
			return nil, fmt.Errorf("service: no fault-free attempt within %d launches", maxAttempts)
		}
		inj.SetBase(elapsed)
		cfg := base
		cfg.Faults = inj
		cfg.CkptInterval = sp.Interval
		cfg.Store = store
		cfg.RestartFallback = sp.Fallback

		var s *mana.Session
		restarted := gens > 0
		freshStart := false
		if restarted {
			if sp.CorruptRate > 0 {
				// Scrub before decoding anything: silent damage becomes a
				// typed, quarantined finding instead of a bit-wrong restart.
				// Both fallback arms scrub, so the comparison isolates the
				// restart policy.
				rep, serr := store.Scrub()
				if serr != nil {
					return nil, fmt.Errorf("service attempt %d: scrub: %w", attempt, serr)
				}
				out.ScrubFindings += len(rep.Findings)
				out.ScrubRepaired += rep.Repaired
			}
			s, err = mana.RestartJobFromStore(cfg, store, appf)
			if err != nil && corruptionClass(err) {
				// The cliff: nothing in the store is restartable. The
				// service survives by starting over from step 0 — all
				// checkpointed progress is recomputed — rather than
				// aborting, and never by decoding damaged bits.
				if sp.Logf != nil {
					sp.Logf("service %-8s attempt %d: no restartable generation (%v); fresh start", out.Policy, attempt, err)
				}
				freshStart = true
				out.FreshStarts++
				store.ForceBase()
				s, err = mana.StartJob(cfg, sp.Ranks, appf)
			} else if err == nil {
				out.Restarts++
			}
		} else {
			s, err = mana.StartJob(cfg, sp.Ranks, appf)
		}
		if err != nil {
			return nil, fmt.Errorf("service attempt %d: %w", attempt, err)
		}
		st, werr := s.Wait()
		headGen := gens - 1
		gens += st.CkptTaken
		out.Ckpts += st.CkptTaken
		// The attempt's VTs are measured from its resume point; anchor
		// its commits at the progress of the generation it resumed from.
		resumeProgress := time.Duration(0)
		if restarted && !freshStart && st.RestartGen >= 0 && st.RestartGen < len(genProgress) {
			resumeProgress = genProgress[st.RestartGen]
		}
		prevProgress := resumeProgress
		for _, c := range st.CkptVTs {
			p := resumeProgress + c
			genProgress = append(genProgress, p)
			genIncr = append(genIncr, p-prevProgress)
			prevProgress = p
		}

		rec := ServiceAttempt{
			Attempt:    attempt,
			Restarted:  restarted && !freshStart,
			FreshStart: freshStart,
			Ckpts:      st.CkptTaken,
			IntervalS:  sp.Interval.Seconds(),
			CrashRank:  -1,
			RestartGen: -1,
		}
		if restarted && !freshStart {
			rec.RestartGen = st.RestartGen
		}
		// Price the recomputation a degraded restart accepted: the
		// checkpointed progress between the generation actually resumed
		// and the newest commit (for a fresh start, everything the head
		// held). The replay is charged to the service clock naturally by
		// the longer attempt; here it is attributed to lost work so the
		// integrity tables can show it.
		if headGen >= 0 && headGen < len(genProgress) {
			var extra time.Duration
			switch {
			case freshStart:
				extra = chargeLost(-1, headGen)
			case restarted && st.RestartGen >= 0 && st.RestartGen < headGen:
				extra = chargeLost(st.RestartGen, headGen)
			}
			if extra > 0 {
				rec.ExtraLostVTS = extra.Seconds()
				out.LostVTS += extra.Seconds()
			}
		}
		attemptVT := st.VT
		crashed := false
		if werr != nil {
			var ce *faults.CrashError
			if !errors.As(werr, &ce) {
				return nil, fmt.Errorf("service attempt %d: %w", attempt, werr)
			}
			crashed = true
			rec.Crashed = true
			rec.CrashRank = ce.Rank
			// The crash rank's time of death is the attempt's service
			// charge: deterministic, unlike the surviving ranks' teardown
			// clocks.
			attemptVT = ce.VT
			lastCkpt := time.Duration(0)
			if n := len(st.CkptVTs); n > 0 {
				lastCkpt = st.CkptVTs[n-1]
			}
			lost := attemptVT - lastCkpt
			if lost < 0 {
				lost = 0
			}
			rec.LostVTS = lost.Seconds()
			out.LostVTS += lost.Seconds()
		}
		elapsed += attemptVT
		rec.VTS = attemptVT.Seconds()
		rec.ServiceVTS = elapsed.Seconds()
		out.Attempts = append(out.Attempts, rec)
		if sp.Logf != nil {
			sp.Logf("service %-8s attempt %d: vt=%.2fms service=%.2fms crashed=%v ckpts=%d interval=%.2fms",
				out.Policy, attempt, rec.VTS*1e3, rec.ServiceVTS*1e3, crashed, rec.Ckpts, rec.IntervalS*1e3)
		}
		if crashed {
			out.Crashes++
			continue
		}
		break
	}

	out.TotalVTS = elapsed.Seconds()
	if elapsed > 0 {
		out.Goodput = sp.BaselineVT.Seconds() / out.TotalVTS
	}
	out.Corruptions = inj.StoreCorruptions()
	return out, nil
}

// corruptionClass reports whether a restart failure is one of the typed
// store-integrity errors — damage detected and refused, as opposed to a
// bug that should abort the service run.
func corruptionClass(err error) bool {
	var cle *ckptstore.ChainLinkError
	return errors.Is(err, ckptimg.ErrCorrupt) ||
		errors.Is(err, ckptstore.ErrQuarantined) ||
		errors.Is(err, ckptstore.ErrPruned) ||
		errors.As(err, &cle)
}

// ServiceSweepResult is the service experiment: one service run per
// interval policy over the same fault timeline, plus the closed-form
// reference quantities.
type ServiceSweepResult struct {
	App      string  `json:"app"`
	Impl     string  `json:"impl"`
	Ranks    int     `json:"ranks"`
	Seed     int64   `json:"seed"`
	MTBFS    float64 `json:"mtbf_s"`
	CkptCost float64 `json:"ckpt_cost_s"`
	// OptimumS is the Young/Daly interval from the true plan MTBF and
	// the probed checkpoint cost, which the fixed intervals bracket.
	OptimumS float64           `json:"optimum_s"`
	Runs     []*ServiceOutcome `json:"runs"`
}

// Service runs the long-horizon service experiment: the LAMMPS-style
// workload under an MTBF-parameterized crash process, once per fixed
// interval bracketing the Young/Daly optimum, and reports goodput for
// each. The fault timeline is identical across policies (same seed), so
// the comparison isolates the interval choice.
func Service(opts Options) (*ServiceSweepResult, error) {
	const (
		app   = "lammps"
		impl  = "mpich"
		ranks = 8
		seed  = 42
	)
	steps := 48
	if opts.Fast > 1 {
		steps = 24
	}

	// Probe the fault-free baseline and the checkpoint cost C once; both
	// feed the closed-form optimum and the goodput denominator.
	probe := ServiceSpec{
		App: app, Impl: impl, Ranks: ranks, Steps: steps,
		Seed: seed,
	}
	baseVT, ckptCost, err := serviceProbe(probe)
	if err != nil {
		return nil, err
	}
	mtbf := baseVT / 3
	optimum := YoungDaly(mtbf, ckptCost)

	res := &ServiceSweepResult{
		App: app, Impl: impl, Ranks: ranks, Seed: seed,
		MTBFS:    mtbf.Seconds(),
		CkptCost: ckptCost.Seconds(),
		OptimumS: optimum.Seconds(),
	}
	policies := []struct {
		name     string
		interval time.Duration
	}{
		{"fixed-1/8opt", optimum / 8},
		{"fixed-opt", optimum},
		{"fixed-8x-opt", 8 * optimum},
	}
	for _, p := range policies {
		sp := ServiceSpec{
			App: app, Impl: impl, Ranks: ranks, Steps: steps,
			Seed: seed, MTBF: mtbf, Crashes: 20,
			Interval:   p.interval,
			BaselineVT: baseVT,
			Logf:       opts.Logf,
		}
		out, err := RunService(sp)
		if err != nil {
			return nil, fmt.Errorf("service policy %s: %w", p.name, err)
		}
		out.Policy = p.name
		res.Runs = append(res.Runs, out)
		if opts.Logf != nil {
			opts.Logf("service %-12s: goodput=%.3f total=%.1fms lost=%.1fms crashes=%d ckpts=%d interval=%.2fms",
				p.name, out.Goodput, out.TotalVTS*1e3, out.LostVTS*1e3, out.Crashes, out.Ckpts, out.IntervalS*1e3)
		}
	}
	return res, nil
}

// serviceProbe measures the fault-free baseline runtime and the cost of
// one checkpoint under the service configuration.
func serviceProbe(sp ServiceSpec) (baseVT, ckptCost time.Duration, err error) {
	spec, err := apps.ByName(sp.App)
	if err != nil {
		return 0, 0, err
	}
	factory, err := impls.Get(sp.Impl)
	if err != nil {
		return 0, 0, err
	}
	in := spec.DefaultInput(apps.SiteDiscovery)
	in.Ranks = sp.Ranks
	if sp.Steps > 0 {
		in.SimSteps = sp.Steps
	}
	cfg := mana.Config{
		ImplName: sp.Impl,
		Factory:  factory,
		FS:       fsim.NVMe(),
	}
	st, err := mana.RunNative(cfg, sp.Ranks, spec.New(in))
	if err != nil {
		return 0, 0, fmt.Errorf("service baseline: %w", err)
	}
	baseVT = st.VT

	// Probe C as the mean over several periodic checkpoints, not a single
	// one: drain traffic and delta-vs-base image sizes vary across the
	// run, and the closed-form optimum should use a representative cost.
	cfg.CkptInterval = baseVT / 8
	s, err := mana.StartJob(cfg, sp.Ranks, spec.New(in))
	if err != nil {
		return 0, 0, fmt.Errorf("service checkpoint probe: %w", err)
	}
	st, err = s.Wait()
	if err != nil {
		return 0, 0, fmt.Errorf("service checkpoint probe: %w", err)
	}
	if len(st.CkptCostVTs) == 0 {
		return 0, 0, fmt.Errorf("service checkpoint probe took no checkpoint")
	}
	var sum time.Duration
	for _, c := range st.CkptCostVTs {
		sum += c
	}
	return baseVT, sum / time.Duration(len(st.CkptCostVTs)), nil
}

// serviceTables is the service sweep as one table of its runs.
func serviceTables(opts Options) ([]Table, error) {
	res, err := Service(opts)
	if err != nil {
		return nil, err
	}
	return []Table{{
		Title: fmt.Sprintf("Long-horizon service: %s/%s, %d ranks, MTBF=%.2fms, C=%.2fms, Young/Daly optimum=%.2fms",
			res.App, res.Impl, res.Ranks, res.MTBFS*1e3, res.CkptCost*1e3, res.OptimumS*1e3),
		Rows: res.Runs,
	}}, nil
}

// ServiceCorruptionResult is the store-integrity sweep: one service run
// per (corruption rate, restart-fallback) cell over the same crash
// timeline, at the fixed Young/Daly-optimal interval.
type ServiceCorruptionResult struct {
	App   string  `json:"app"`
	Impl  string  `json:"impl"`
	Ranks int     `json:"ranks"`
	Seed  int64   `json:"seed"`
	MTBFS float64 `json:"mtbf_s"`
	// IntervalS is the fixed checkpoint interval every cell uses (the
	// Young/Daly optimum from the probe).
	IntervalS float64           `json:"interval_s"`
	Runs      []*ServiceOutcome `json:"runs"`
}

// ServiceCorruption runs the store-integrity experiment: the service
// workload under the same crash process as Service, with the checkpoint
// store's blobs silently corrupted at a swept rate, comparing restart
// fallback off (a damaged head forces the service back to step 0)
// against on (restart degrades to the newest verifying generation).
// Crash timeline, corruption coin flips, and interval are identical
// across the two arms of each rate, so the goodput gap isolates the
// fallback policy. The sweep runs rate 0 (the no-damage control, where
// both arms must agree exactly) and one damage rate, 0.08.
func ServiceCorruption(opts Options) (*ServiceCorruptionResult, error) {
	const (
		app   = "lammps"
		impl  = "mpich"
		ranks = 8
		seed  = 42
	)
	steps := 48
	if opts.Fast > 1 {
		steps = 24
	}

	probe := ServiceSpec{
		App: app, Impl: impl, Ranks: ranks, Steps: steps,
		Seed: seed,
	}
	baseVT, ckptCost, err := serviceProbe(probe)
	if err != nil {
		return nil, err
	}
	// Corruption only matters at restart, so this sweep runs a harsher
	// crash process than the interval-policy sweep (MTBF at baseline/6
	// rather than /3): each run cycles through enough commit/restart
	// rounds for damaged generations to actually be asked for.
	mtbf := baseVT / 6
	optimum := YoungDaly(mtbf, ckptCost)

	res := &ServiceCorruptionResult{
		App: app, Impl: impl, Ranks: ranks, Seed: seed,
		MTBFS:     mtbf.Seconds(),
		IntervalS: optimum.Seconds(),
	}
	for _, rate := range []float64{0, 0.08} {
		for _, fallback := range []bool{false, true} {
			sp := ServiceSpec{
				App: app, Impl: impl, Ranks: ranks, Steps: steps,
				Seed: seed, MTBF: mtbf, Crashes: 40,
				Interval:    optimum,
				CorruptRate: rate,
				Fallback:    fallback,
				BaselineVT:  baseVT,
				Logf:        opts.Logf,
			}
			out, err := RunService(sp)
			if err != nil {
				return nil, fmt.Errorf("service corruption rate=%g fallback=%v: %w", rate, fallback, err)
			}
			out.Policy = fmt.Sprintf("rate=%g/fallback=%s", rate, onoff(fallback))
			res.Runs = append(res.Runs, out)
			if opts.Logf != nil {
				opts.Logf("service %-22s: goodput=%.3f lost=%.1fms corruptions=%d scrub=%d/%d fresh=%d",
					out.Policy, out.Goodput, out.LostVTS*1e3, out.Corruptions,
					out.ScrubRepaired, out.ScrubFindings, out.FreshStarts)
			}
		}
	}
	return res, nil
}

func onoff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

// integrityTables is the store-integrity sweep as one table of its
// runs.
func integrityTables(opts Options) ([]Table, error) {
	res, err := ServiceCorruption(opts)
	if err != nil {
		return nil, err
	}
	return []Table{{
		Title: fmt.Sprintf("Store integrity: %s/%s, %d ranks, MTBF=%.2fms, interval=%.2fms (Young/Daly)",
			res.App, res.Impl, res.Ranks, res.MTBFS*1e3, res.IntervalS*1e3),
		Rows: res.Runs,
	}}, nil
}
