// Command manasim is the front end of the MANA reproduction: it runs
// the proxy applications natively or under MANA on any of the four
// simulated MPI implementations, demonstrates checkpoint/restart, and
// regenerates every table and figure of the paper's evaluation.
//
// Usage:
//
//	manasim list
//	manasim run -app comd -impl openmpi [-mana] [-ranks N] [-ckpt STEP] [-restart-impl NAME]
//	manasim experiment -name NAME|all [-fast K] [-json FILE]
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"manasim/internal/apps"
	ckptsub "manasim/internal/ckpt"
	"manasim/internal/ckptimg"
	"manasim/internal/ckptstore"
	mana "manasim/internal/core"
	"manasim/internal/faults"
	"manasim/internal/harness"
	"manasim/internal/impls"
	"manasim/internal/simtime"

	// Register the built-in drain strategies for --drain.
	_ "manasim/internal/ckpt/drain"
)

func main() {
	stop, err := startProfiles(os.Getenv(profileEnv))
	if err != nil {
		fmt.Fprintln(os.Stderr, "manasim:", err)
		os.Exit(2)
	}
	code := run(os.Args[1:])
	if err := stop(); err != nil {
		fmt.Fprintln(os.Stderr, "manasim:", err)
		code = max(code, 1)
	}
	os.Exit(code)
}

// run executes one command line and returns the process's exit code.
func run(args []string) int {
	if len(args) < 1 {
		usage()
		return 2
	}
	var err error
	switch args[0] {
	case "list":
		err = cmdList()
	case "run":
		err = cmdRun(args[1:])
	case "scrub":
		err = cmdScrub(args[1:])
	case "experiment":
		err = cmdExperiment(args[1:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "manasim: unknown command %q\n", args[0])
		usage()
		return 2
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "manasim:", err)
		return 1
	}
	return 0
}

// profileEnv names the environment variable that asks for host
// profiles of the whole command: MANASIM_PROFILE=cpu=FILE,mem=FILE
// (either part alone works). The CPU profile covers the command; the
// heap profile, written when it ends, holds the allocations sampled at
// Go's default rate.
const profileEnv = "MANASIM_PROFILE"

// startProfiles starts the profiles spec asks for and returns the
// function that stops them and writes them out.
func startProfiles(spec string) (stop func() error, err error) {
	var cpuPath, memPath string
	for _, part := range strings.Split(spec, ",") {
		kind, path, ok := strings.Cut(part, "=")
		switch {
		case part == "":
		case ok && path != "" && kind == "cpu" && cpuPath == "":
			cpuPath = path
		case ok && path != "" && kind == "mem" && memPath == "":
			memPath = path
		default:
			return nil, fmt.Errorf("%s: %q is not cpu=FILE or mem=FILE, each at most once", profileEnv, part)
		}
	}
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() error {
		var errs []error
		if cpu != nil {
			pprof.StopCPUProfile()
			errs = append(errs, cpu.Close())
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err == nil {
				runtime.GC() // publish the allocations up to now
				err = errors.Join(pprof.WriteHeapProfile(f), f.Close())
			}
			errs = append(errs, err)
		}
		return errors.Join(errs...)
	}, nil
}

func usage() {
	fmt.Fprintf(os.Stderr, `manasim — implementation-oblivious transparent checkpoint-restart for MPI (simulated)

commands:
  list                          applications and MPI implementations
  run -app A -impl I [flags]    run one application
  scrub -ckpt-dir DIR           verify and repair an on-disk checkpoint store
  experiment -name E [flags]    regenerate a paper table/figure

run flags:
  -app     application (comd, hpcg, lammps, lulesh, sw4)
  -impl    MPI implementation (mpich, craympi, openmpi, exampi)
  -mana    run under MANA (default: native)
  -legacy  use the legacy vid design instead of virtId
  -ranks   override rank count
  -steps   override simulated step count
  -ckpt    checkpoint at this step boundary and stop
  -restart-impl  after -ckpt, restart under this implementation
                 (requires -uniform at checkpoint time)
  -uniform use 64-bit MANA handle embedding (cross-impl restart)
  -drain   drain strategy at checkpoint time (twophase, toposort)
  -compress compress the application state in checkpoint images (gzip,
           or fast-lz with -compress-tier fast-lz)
  -compress-tier  compression tier with -compress: fast (gzip BestSpeed,
                 hot checkpoints), balanced (default), max (archival),
                 or fast-lz (pure-Go LZ-class codec)
  -backend checkpoint store backend (mem, fs, obj, tier); tier is a mem
           front tier charged at the burst-buffer profile, drained to
           fs under -ckpt-dir (else to obj)
  -ckpt-dir directory of directory-backed store backends (implies -backend fs)
  -front-cap     with -backend tier: front-tier capacity in KiB (0 =
                 unbounded); past it, blobs already flushed to the back
                 tier are LRU-evicted and re-promoted on demand
  -retain-bases  prune superseded chains, keeping this many recent base
                 generations (0 = keep every generation's blobs)
  -delta   write incremental (delta) checkpoint generations
  -dedup   content-addressed store: identical image segments are stored
           once across ranks and generations, and each rank's write is
           charged only the new unique bytes it introduced
  -chunk-kb delta chunk size in KiB (default 256; shrink for proxy-size snapshots)
  -site    discovery (default) or perlmutter
  -faults  enable the seeded fault injector (-fault-seed N, default 42);
           without -mtbf this injects stragglers and transient store
           faults into a single run
  -mtbf    mean time between injected node crashes (virtual time, e.g.
           30s): runs the long-horizon service loop — every crash
           restarts from the newest complete store generation (step 0
           before the first commit), and lost work plus restart time
           are charged to the service clock;
           without -ckpt-interval it checkpoints at the Young/Daly
           interval sqrt(2*MTBF*C), C measured by a probe run
  -ckpt-interval  periodic checkpoint interval (virtual time):
           interval-driven checkpoints on any run
  -corrupt-rate  with -mtbf: silently corrupt this fraction of store
           blobs at write time (seeded, one strike per key); the service
           loop scrubs before every restart so damage is quarantined,
           never decoded
  -restart-fallback  degrade-to-older-generation restart: a corrupt or
           quarantined head generation no longer forces a fresh start;
           the restart walks back to the newest verifying generation
           (applies to the -mtbf service loop and to -restart-impl)

scrub flags:
  -ckpt-dir  directory of the fs-backed store to verify (required)
  -backend   store backend (default fs)
           walks manifest -> chains -> recipes -> blobs, verifies frame
           CRCs and refcounts, repairs what it can in place (orphan
           deletion, refcount rebuild, donor re-derivation), quarantines
           generations it cannot vouch for; exits nonzero if any
           generation is quarantined after the pass

experiment flags:
  -name    all (default), or one registered experiment:
           %s
  -fast    divide SimSteps by K for quicker runs (default 1)
  -json    also write every table as JSON to this file, keyed by
           experiment name

environment:
  MANASIM_PROFILE=cpu=FILE,mem=FILE
           write a CPU and/or heap profile of the command (go tool pprof)
`, strings.Join(harness.ExperimentNames(), ", "))
}

func cmdList() error {
	fmt.Println("applications (paper Section 6, Table 1/2):")
	for _, name := range apps.Names() {
		spec, _ := apps.ByName(name)
		in := spec.DefaultInput(apps.SiteDiscovery)
		fmt.Printf("  %-8s %-10s %3d ranks   %s\n", name, spec.Paper, in.Ranks, spec.InputLine(apps.SiteDiscovery))
	}
	fmt.Println("\nMPI implementations (paper Section 3):")
	desc := map[string]string{
		"mpich":   "32-bit two-level table ids; compile-time constants",
		"craympi": "MPICH derivative; vendor tag + generation handles",
		"openmpi": "64-bit pointer handles; constants resolved at startup",
		"exampi":  "enum datatypes + lazy shared-pointer constants; subset",
	}
	for _, name := range impls.Names() {
		fmt.Printf("  %-8s %s\n", name, desc[name])
	}
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	appName := fs.String("app", "comd", "application")
	implName := fs.String("impl", "mpich", "MPI implementation")
	useMana := fs.Bool("mana", false, "run under MANA")
	legacy := fs.Bool("legacy", false, "use the legacy vid design")
	ranks := fs.Int("ranks", 0, "override rank count")
	steps := fs.Int("steps", 0, "override simulated steps")
	ckpt := fs.Int("ckpt", -1, "checkpoint at this boundary and stop")
	restartImpl := fs.String("restart-impl", "", "restart under this implementation")
	uniform := fs.Bool("uniform", false, "64-bit MANA handle embedding")
	drainName := fs.String("drain", ckptsub.DefaultDrain, "drain strategy (twophase, toposort)")
	compress := fs.Bool("compress", false, "compress checkpoint image app state (gzip, or fast-lz by -compress-tier)")
	tierName := fs.String("compress-tier", "", "compression tier with -compress: fast, balanced, max, or fast-lz")
	backendName := fs.String("backend", "", "checkpoint store backend (mem, fs, obj, tier)")
	ckptDir := fs.String("ckpt-dir", "", "directory of directory-backed store backends")
	retainBases := fs.Int("retain-bases", 0, "prune superseded chains, keeping this many recent base generations (0 = keep all)")
	delta := fs.Bool("delta", false, "write incremental checkpoint generations")
	dedup := fs.Bool("dedup", false, "content-addressed store: share identical image segments across ranks and generations")
	frontCap := fs.Int("front-cap", 0, "tier backend: front-tier capacity in KiB (0 = unbounded; LRU-evicts flushed blobs past it)")
	chunkKB := fs.Int("chunk-kb", 0, "delta chunk size in KiB (default ckptimg.AppChunk; shrink to match proxy snapshot sizes)")
	siteName := fs.String("site", "discovery", "site profile")
	useFaults := fs.Bool("faults", false, "enable the seeded fault injector")
	faultSeed := fs.Int64("fault-seed", 42, "fault timeline seed with -faults")
	mtbf := fs.Duration("mtbf", 0, "mean time between injected node crashes (virtual time); runs the long-horizon service loop with restart-from-store")
	ckptInterval := fs.Duration("ckpt-interval", 0, "periodic checkpoint interval (virtual time); with -mtbf, 0 means the Young/Daly interval")
	corruptRate := fs.Float64("corrupt-rate", 0, "with -mtbf: silently corrupt this fraction of store blobs at write time")
	restartFallback := fs.Bool("restart-fallback", false, "degrade to the newest verifying generation when the head is corrupt or quarantined")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// A flag whose partner is missing would be silently ignored.
	switch {
	case *tierName != "" && !*compress:
		return fmt.Errorf("-compress-tier needs -compress (without it images are written uncompressed)")
	case *restartImpl != "" && *ckpt < 0:
		return fmt.Errorf("-restart-impl needs -ckpt (a run that never checkpoints has nothing to restart from)")
	case *corruptRate > 0 && *mtbf <= 0:
		return fmt.Errorf("-corrupt-rate needs -mtbf (only the service loop corrupts store blobs)")
	case *restartFallback && *mtbf <= 0 && *restartImpl == "":
		return fmt.Errorf("-restart-fallback needs -mtbf or -restart-impl (it applies only to a restart)")
	}
	tier, err := ckptimg.ParseCompressTier(*tierName)
	if err != nil {
		return err
	}

	spec, err := apps.ByName(*appName)
	if err != nil {
		return err
	}
	factory, err := impls.Get(*implName)
	if err != nil {
		return err
	}
	site := apps.SiteDiscovery
	host := simtime.Discovery()
	if *siteName == "perlmutter" {
		site = apps.SitePerlmutter
		host = simtime.Perlmutter()
	}
	in := spec.DefaultInput(site)
	if *ranks > 0 {
		in.Ranks = *ranks
	}
	if *steps > 0 {
		in.Steps = *steps
		in.SimSteps = *steps
	}
	if last := in.EffectiveSimSteps(); *ckpt > last {
		return fmt.Errorf("-ckpt %d is past the last step boundary, %d: the job ends before it", *ckpt, last)
	}
	// -mtbf runs the long-horizon service loop: the job under the
	// injector's crash process, restarted from the checkpoint store after
	// every crash until it completes.
	if *mtbf > 0 {
		out, err := harness.RunService(harness.ServiceSpec{
			App: *appName, Impl: *implName,
			Ranks: in.Ranks, Steps: in.SimSteps,
			Seed: *faultSeed, MTBF: *mtbf, Crashes: 6,
			Interval:    *ckptInterval,
			CorruptRate: *corruptRate,
			Fallback:    *restartFallback,
			Logf: func(format string, a ...any) {
				fmt.Fprintf(os.Stderr, "  "+format+"\n", a...)
			},
		})
		if err != nil {
			return err
		}
		fmt.Printf("service %s/%s: %d ranks, MTBF=%v, policy=%s\n", *appName, *implName, in.Ranks, *mtbf, out.Policy)
		fmt.Printf("  goodput=%.3f  total=%.2fms useful=%.2fms lost=%.2fms\n", out.Goodput, out.TotalVTS*1e3, out.BaselineVTS*1e3, out.LostVTS*1e3)
		fmt.Printf("  crashes=%d restarts=%d ckpts=%d interval=%.2fms\n",
			out.Crashes, out.Restarts, out.Ckpts, out.IntervalS*1e3)
		if *corruptRate > 0 {
			fmt.Printf("  integrity: rate=%g fallback=%v corruptions=%d scrub-findings=%d repaired=%d fresh-starts=%d extra-lost=%.2fms\n",
				out.CorruptRate, out.Fallback, out.Corruptions, out.ScrubFindings, out.ScrubRepaired, out.FreshStarts, extraLost(out)*1e3)
		}
		return nil
	}

	// -front-cap only makes sense composing the tier backend; asking
	// for it implies it.
	backend := *backendName
	if backend == "" && *frontCap > 0 {
		backend = "tier"
	}
	if *ckptDir != "" && backend == "" {
		backend = "fs"
	}
	cfg := mana.Config{
		ImplName:       *implName,
		Factory:        factory,
		Host:           host,
		UniformHandles: *uniform,
		DrainStrategy:  *drainName,
		CkptInterval:   *ckptInterval,
		StoreOptions: ckptstore.Options{
			Backend:      backend,
			Dir:          *ckptDir,
			FrontCap:     int64(*frontCap) << 10,
			Delta:        *delta,
			Dedup:        *dedup,
			Compress:     *compress,
			CompressTier: tier,
			ChunkBytes:   *chunkKB << 10,
			RetainBases:  *retainBases,
		},
	}
	if *useFaults {
		// Without a crash process, -faults demonstrates non-fatal
		// injection on a single run: straggler windows plus transient
		// store faults retried by the checkpoint store.
		cfg.Faults = faults.NewInjector(in.Ranks, faults.Plan{
			Seed:        *faultSeed,
			Stragglers:  2,
			StoreFaults: 2,
			// A single run usually commits one generation; keep the
			// scheduled store-fault keys inside it so the retry path
			// actually fires.
			StoreMaxGen: 1,
		})
	}
	if *legacy {
		cfg.Design = mana.DesignLegacy
	}

	start := time.Now()
	if !*useMana && *ckpt < 0 {
		st, err := mana.RunNative(cfg, in.Ranks, spec.New(in))
		if err != nil {
			return err
		}
		report(*appName, "native/"+*implName, st, in, start)
		return nil
	}

	if *ckpt < 0 {
		s, err := mana.StartJob(cfg, in.Ranks, spec.New(in))
		if err != nil {
			return err
		}
		st, err := s.Wait()
		if err != nil {
			return err
		}
		report(*appName, "MANA/"+*implName, st, in, start)
		reportCheckpoints(s.Store(), st)
		if cfg.Faults != nil {
			reportFaults(cfg.Faults, st)
		}
		return nil
	}

	// Checkpoint, stop, optionally restart.
	cfg.ExitAtCheckpoint = true
	s, err := mana.StartJob(cfg, in.Ranks, spec.New(in))
	if err != nil {
		return err
	}
	s.Co.RequestCheckpointAtStep(*ckpt)
	st, err := s.Wait()
	if err != nil {
		return err
	}
	report(*appName, "MANA/"+*implName, st, in, start)
	if cfg.Faults != nil {
		reportFaults(cfg.Faults, st)
	}
	// The report resolves rank 0 alone, not the job's every image.
	store := s.Store()
	head, _ := store.Head()
	img0, chain0, err := store.MaterializeRank(head.Seq, 0)
	if err != nil {
		return err
	}
	n := int64(store.Ranks())
	fmt.Printf("checkpoint: %d rank images at step %d, %d KB stored + %d MB modeled per rank\n",
		n, img0.Step, head.Bytes/n/1024, img0.ModeledBytes>>20)
	if links := chain0.Links; links > 0 {
		fmt.Printf("checkpoint: head resolves a %d-link delta chain (rank 0 reads %d KB of base + %d KB of winning delta chunks)\n",
			links, chain0.BaseBytes/1024, chain0.DeltaBytes/1024)
	}
	for _, g := range store.Generations() {
		kind := "base"
		if !g.Base() {
			kind = fmt.Sprintf("delta (%d ranks)", g.DeltaRanks)
		}
		fmt.Printf("store[%s]: generation %d at step %d: %s, %d KB stored\n",
			store.BackendName(), g.Seq, g.Step, kind, g.Bytes/1024)
	}
	if store.Dedup() {
		ds := store.DedupStats()
		fmt.Printf("dedup: %d blobs, %d KB stored for %d KB logical (ratio %.2f, %d shared refs)\n",
			ds.Blobs, ds.StoredBytes/1024, ds.LogicalBytes/1024, ds.Ratio(), ds.SharedRefs)
	}

	if *restartImpl == "" {
		return nil
	}
	rfactory, err := impls.Get(*restartImpl)
	if err != nil {
		return err
	}
	rcfg := mana.Config{ImplName: *restartImpl, Factory: rfactory, Host: host, DrainStrategy: *drainName, RestartFallback: *restartFallback}
	rs, err := mana.RestartJobFromStore(rcfg, store, spec.New(in))
	if err != nil {
		return err
	}
	// The restart's own materialization already resolved every chain;
	// report its chunk accounting instead of resolving a second time.
	if sc := rs.RestartChains(); len(sc) > 0 && sc[0].Links > 0 {
		fmt.Printf("restart: rank 0 inflated %d chunks, skipped %d superseded (peak %d KB)\n",
			sc[0].ChunksRead, sc[0].ChunksSkipped, sc[0].PeakBytes/1024)
	}
	rst, err := rs.Wait()
	if err != nil {
		return err
	}
	report(*appName, "restart MANA/"+*restartImpl, rst, in, start)
	return nil
}

// extraLost sums the recomputation windows a run's degraded and fresh
// restarts accepted (already folded into LostVTS; broken out here).
func extraLost(out *harness.ServiceOutcome) float64 {
	var s float64
	for _, a := range out.Attempts {
		s += a.ExtraLostVTS
	}
	return s
}

// cmdScrub verifies and repairs an on-disk checkpoint store: the
// offline entry to the same integrity pass the service loop runs
// between restart attempts. The store's geometry (delta, dedup,
// compression, chunking) is adopted from its manifest.
func cmdScrub(args []string) error {
	fs := flag.NewFlagSet("scrub", flag.ExitOnError)
	ckptDir := fs.String("ckpt-dir", "", "directory of the store to verify (required)")
	backendName := fs.String("backend", "fs", "store backend")
	verbose := fs.Bool("v", false, "print every finding, not just the summary")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *ckptDir == "" {
		return fmt.Errorf("scrub: -ckpt-dir is required")
	}
	st, err := ckptstore.OpenExisting(ckptstore.Options{Backend: *backendName, Dir: *ckptDir})
	if err != nil {
		return err
	}
	rep, err := st.Scrub()
	if err != nil {
		return err
	}
	fmt.Println(rep)
	if *verbose {
		for _, f := range rep.Findings {
			loc := ""
			if f.Gen >= 0 {
				loc = fmt.Sprintf(" gen=%d rank=%d", f.Gen, f.Rank)
			}
			status := "unrecoverable"
			if f.Repaired {
				status = "repaired"
			}
			fmt.Printf("  %-18s %-28s%s %s", f.Kind, f.Key, loc, status)
			if f.Err != nil {
				fmt.Printf(" (%v)", f.Err)
			}
			fmt.Println()
		}
	}
	if q := st.Quarantined(); len(q) > 0 {
		return fmt.Errorf("scrub: %d generation(s) quarantined: %v — restart will skip them under -restart-fallback", len(q), q)
	}
	return nil
}

// reportCheckpoints prints one line per checkpoint a periodic run
// committed (the store's newest generations) with rank 0's commit and
// cost VT.
func reportCheckpoints(store *ckptstore.Store, st mana.Stats) {
	gens := store.Generations()
	for i, g := range gens[len(gens)-st.CkptTaken:] {
		fmt.Printf("checkpoint: generation %d at step %d, %d KB stored, committed at vt=%.3fs (cost %.3fs)\n",
			g.Seq, g.Step, g.Bytes/1024, st.CkptVTs[i].Seconds(), st.CkptCostVTs[i].Seconds())
	}
}

// reportFaults summarizes what the injector actually did to a single
// run; without it -faults is indistinguishable from a clean run (the
// straggler windows are milliseconds against multi-second VTs).
func reportFaults(inj *faults.Injector, st mana.Stats) {
	p := inj.Plan()
	fmt.Printf("faults[seed %d]: %d stragglers (x%g for %v), %d store ops failed (%d retried, %v backoff)\n",
		p.Seed, p.Stragglers, faults.StragglerFactor, p.StragglerWindow(),
		inj.StoreFaultsHit(), st.StoreRetries, st.StoreRetryVT)
}

func report(appName, mode string, st mana.Stats, in apps.Input, start time.Time) {
	ext := in.ExtrapolationFactor()
	fmt.Printf("%-8s %-24s vt=%8.1fs  (sim %d/%d steps, wall %v)",
		appName, mode, st.VT.Seconds()*ext, in.EffectiveSimSteps(), in.Steps, time.Since(start).Round(time.Millisecond))
	if st.Crossings > 0 {
		fmt.Printf("  crossings=%.1fM", float64(st.Crossings)/1e6)
	}
	fmt.Println()
}

func cmdExperiment(args []string) error {
	fs := flag.NewFlagSet("experiment", flag.ExitOnError)
	name := fs.String("name", "all", "experiment name")
	fast := fs.Int("fast", 1, "SimSteps divisor")
	jsonOut := fs.String("json", "", "also write the tables as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	opts := harness.Options{
		Fast: *fast,
		Logf: func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, "  "+format+"\n", a...)
		},
	}
	exps := harness.Experiments()
	if *name != "all" {
		e, err := harness.LookupExperiment(*name)
		if err != nil {
			return err
		}
		exps = []harness.Experiment{e}
	}
	results := map[string][]harness.Table{}
	for _, e := range exps {
		tables, err := e.Run(opts)
		if err != nil {
			return fmt.Errorf("experiment %s: %w", e.Name, err)
		}
		harness.Render(os.Stdout, tables...)
		results[e.Name] = tables
	}
	if *jsonOut == "" {
		return nil
	}
	data, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(*jsonOut, append(data, '\n'), 0o644)
}
