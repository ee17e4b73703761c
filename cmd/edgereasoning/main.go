// Command edgereasoning regenerates the paper's tables and figures on the
// simulated Jetson AGX Orin platform.
//
// Usage:
//
//	edgereasoning list                 # show available experiment IDs
//	edgereasoning run <id> [flags]     # run one experiment
//	edgereasoning all [flags]          # run the full suite
//	edgereasoning fleet [flags]        # heterogeneous-fleet serving sweep
//	edgereasoning sessions [flags]     # multi-turn agentic serving study
//	edgereasoning tiering [flags]      # host-DRAM KV tier vs device-cache size
//	edgereasoning autoscale [flags]    # elastic fleet + ingress admission study
//	edgereasoning saturate [flags]     # saturation-knee capacity analysis
//	edgereasoning drills [flags]       # fault-injection outage drills
//	edgereasoning soak [flags]         # streamed large-N soak (sim-events/sec)
//	edgereasoning trace [flags]        # faulted autoscaled run with telemetry export
//	edgereasoning sweep <id> [flags]   # fan one experiment across seeds
//
// Flags:
//
//	-seed N       random seed (default 7; mutually exclusive with -seeds)
//	-quick        subsample the large banks (fast smoke runs)
//	-csv DIR      also write each table as DIR/<table-id>.csv
//	-parallel N   worker count (default GOMAXPROCS)
//	-timeout D    per-driver timeout, e.g. 90s (default none)
//	-metrics      print per-driver wall time and table counts to stderr
//	-cpuprofile F write a CPU profile of the run to F
//	-memprofile F write a heap profile at exit to F
//	-seeds LIST   comma-separated seeds (sweep only; default 1..8)
//	-replicas N   fleet size (fleet only; default 4)
//	-devices L    comma-separated device cycle (fleet and autoscale)
//	-policy P     routing policy or "all" (fleet and sessions)
//	-qps Q        offered load in requests/s (fleet; autoscale background load)
//	-sessions N   concurrent sessions (sessions and tiering; default 10)
//	-turns N      agent-loop turns per session (sessions and tiering; default 5)
//	-branch N     parallel think samples at branch turns (sessions and tiering; default 2)
//	-device-blocks L comma-separated device-cache sweep in blocks (tiering only; default S,2S,4S with S = max(192, largest request))
//	-host-blocks N   host-tier capacity in blocks (tiering only; default 1024)
//	-bw B            host-link bandwidth in bytes/s (tiering only; default 16e9)
//	-min N        autoscale pool floor (autoscale only; default 1)
//	-max N        autoscale pool ceiling (autoscale only; default 6)
//	-admission D  ingress discipline: fifo | edf | sjf | shed (autoscale only)
//	-scale-on S   scale-up signals: depth | miss | both (autoscale only)
//	-replicas N   drills: pool size under fault injection (default 3)
//	-restart X    drills: crash restart delay in seconds (default 5)
//	-slo X        saturate: p99 bound in seconds, or hitrate floor in [0,1]
//	-metric M     saturate: p99 | hitrate (default p99)
//	-requests N   saturate: requests per probe; soak: requests to stream (1e6)
//	-out F        trace: Chrome trace-event JSON output path (default trace.json)
//	-metrics-out F trace: Prometheus text-format snapshot output path
//
// Experiments run on a worker pool but the report is emitted in registry
// order, so output is byte-identical at any parallelism.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"edgereasoning/internal/engine"
	"edgereasoning/internal/experiments"
	"edgereasoning/internal/fleet"
	"edgereasoning/internal/hw"
	"edgereasoning/internal/model"
	"edgereasoning/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "edgereasoning:", err)
		os.Exit(1)
	}
}

// config is the parsed flag set for one invocation.
type config struct {
	opts       experiments.Options
	csvDir     string
	parallel   int
	timeout    time.Duration
	metrics    bool
	cpuProfile string
	memProfile string
	seeds      []uint64
	// seedSet / seedsSet record which of the mutually-exclusive seed
	// flags the user passed, so the wrong one for a command is rejected
	// instead of silently ignored.
	seedSet  bool
	seedsSet bool
}

func (c config) runnerOptions() experiments.RunnerOptions {
	return experiments.RunnerOptions{Parallelism: c.parallel, Timeout: c.timeout}
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("missing command")
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "list":
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return nil
	case "run":
		if len(rest) == 0 {
			return fmt.Errorf("run: missing experiment id")
		}
		cfg, err := parseFlags(rest[1:], false, false, false, false, false, false)
		if err != nil {
			return err
		}
		if cfg.seedsSet {
			return fmt.Errorf("run: -seeds only applies to sweep (use -seed)")
		}
		return execute([]string{rest[0]}, cfg)
	case "all":
		cfg, err := parseFlags(rest, false, false, false, false, false, false)
		if err != nil {
			return err
		}
		if cfg.seedsSet {
			return fmt.Errorf("all: -seeds only applies to sweep (use -seed)")
		}
		return execute(experiments.IDs(), cfg)
	case "fleet":
		cfg, err := parseFlags(rest, true, false, false, false, false, false)
		if err != nil {
			return err
		}
		if cfg.seedsSet {
			return fmt.Errorf("fleet: -seeds only applies to sweep (use -seed)")
		}
		return execute([]string{"fleet"}, cfg)
	case "sessions":
		cfg, err := parseFlags(rest, false, true, false, false, false, false)
		if err != nil {
			return err
		}
		if cfg.seedsSet {
			return fmt.Errorf("sessions: -seeds only applies to sweep (use -seed)")
		}
		return execute([]string{"sessions"}, cfg)
	case "tiering":
		cfg, err := parseFlags(rest, false, false, false, false, true, false)
		if err != nil {
			return err
		}
		if cfg.seedsSet {
			return fmt.Errorf("tiering: -seeds only applies to sweep (use -seed)")
		}
		return execute([]string{"tiering"}, cfg)
	case "autoscale":
		cfg, err := parseFlags(rest, false, false, true, false, false, false)
		if err != nil {
			return err
		}
		if cfg.seedsSet {
			return fmt.Errorf("autoscale: -seeds only applies to sweep (use -seed)")
		}
		return execute([]string{"autoscale"}, cfg)
	case "saturate":
		cfg, err := parseFlags(rest, false, false, false, true, false, false)
		if err != nil {
			return err
		}
		if cfg.seedsSet {
			return fmt.Errorf("saturate: -seeds only applies to sweep (use -seed)")
		}
		return execute([]string{"saturate"}, cfg)
	case "drills":
		cfg, err := parseFlags(rest, false, false, false, false, false, true)
		if err != nil {
			return err
		}
		if cfg.seedsSet {
			return fmt.Errorf("drills: -seeds only applies to sweep (use -seed)")
		}
		return execute([]string{"drills"}, cfg)
	case "soak":
		return soak(rest)
	case "trace":
		return traceCmd(rest)
	case "sweep":
		if len(rest) == 0 {
			return fmt.Errorf("sweep: missing experiment id")
		}
		cfg, err := parseFlags(rest[1:], false, false, false, false, false, false)
		if err != nil {
			return err
		}
		if cfg.seedSet {
			return fmt.Errorf("sweep: -seed does not apply to sweep; pass the seeds via -seeds")
		}
		return sweep(rest[0], cfg)
	case "help", "-h", "--help":
		usage()
		return nil
	default:
		usage()
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// parseFlags parses the shared flag set; withFleet, withSessions,
// withAutoscale, withSaturate, withTiering, and withDrills additionally
// register their subcommands' knobs.
func parseFlags(args []string, withFleet, withSessions, withAutoscale, withSaturate, withTiering, withDrills bool) (config, error) {
	fs := flag.NewFlagSet("edgereasoning", flag.ContinueOnError)
	seed := fs.Uint64("seed", 7, "random seed")
	quick := fs.Bool("quick", false, "subsample large banks")
	csvDir := fs.String("csv", "", "directory for CSV output")
	parallel := fs.Int("parallel", 0, "worker count (0 = GOMAXPROCS)")
	timeout := fs.Duration("timeout", 0, "per-driver timeout (0 = none)")
	metrics := fs.Bool("metrics", false, "print per-driver metrics to stderr")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile at exit to this file")
	seeds := fs.String("seeds", "", "comma-separated seeds for sweep (default 1..8)")
	var replicas *int
	var devices, policy *string
	var qps *float64
	if withFleet {
		replicas = fs.Int("replicas", 0, "fleet size (0 = driver default of 4)")
		devices = fs.String("devices", "", "comma-separated device cycle (default orin,orin-50w,orin-30w)")
		policy = fs.String("policy", "all", "routing policy (round-robin, least-queue, latency-weighted, deadline-aware, all)")
		qps = fs.Float64("qps", 0, "offered load in requests/s (0 = driver default)")
	}
	var sessionCount, sessionTurns, sessionBranch *int
	var sessionPolicy *string
	if withSessions || withTiering {
		sessionCount = fs.Int("sessions", 0, "concurrent sessions (0 = driver default of 10)")
		sessionTurns = fs.Int("turns", 0, "agent-loop turns per session (0 = driver default of 5)")
		sessionBranch = fs.Int("branch", 0, "parallel think samples at branch turns (0 = driver default of 2)")
	}
	if withSessions {
		sessionPolicy = fs.String("policy", "all", "affinity-table routing policy (round-robin, least-queue, session-affinity, all)")
	}
	var tierDeviceBlocks *string
	var tierHostBlocks *int
	var tierBW *float64
	if withTiering {
		tierDeviceBlocks = fs.String("device-blocks", "", "comma-separated device-cache sweep in blocks (default S,2S,4S with S = max(192, largest request))")
		tierHostBlocks = fs.Int("host-blocks", 0, "host-tier capacity in blocks (0 = driver default of 1024)")
		tierBW = fs.Float64("bw", 0, "host-link bandwidth in bytes/s (0 = driver default of 16e9)")
	}
	var drillReplicas *int
	var drillRestart *float64
	if withDrills {
		drillReplicas = fs.Int("replicas", 0, "pool size under fault injection (0 = driver default of 3)")
		drillRestart = fs.Float64("restart", 0, "crash restart delay in seconds (0 = driver default of 5)")
		devices = fs.String("devices", "", "comma-separated device cycle (default orin,orin-50w,orin-30w)")
	}
	var satSLO *float64
	var satMetric *string
	var satRequests *int
	if withSaturate {
		satSLO = fs.Float64("slo", 0, "objective: p99 bound in seconds or hit-rate floor in [0,1] (0 = metric default)")
		satMetric = fs.String("metric", "", "saturation metric: p99 | hitrate (default p99)")
		satRequests = fs.Int("requests", 0, "requests offered per probe (0 = driver default of 240)")
		devices = fs.String("devices", "", "comma-separated device cycle (default orin,orin-50w,orin-30w)")
	}
	var autoMin, autoMax *int
	var autoAdmission, autoScaleOn *string
	if withAutoscale {
		autoMin = fs.Int("min", 0, "autoscale pool floor (0 = driver default of 1)")
		autoMax = fs.Int("max", 0, "autoscale pool ceiling (0 = driver default of 6)")
		autoAdmission = fs.String("admission", "", "ingress discipline (fifo, edf, sjf, shed; default fifo)")
		autoScaleOn = fs.String("scale-on", "", "scale-up signals (depth, miss, both; default both)")
		devices = fs.String("devices", "", "comma-separated device cycle (default orin,orin-50w,orin-30w)")
		qps = fs.Float64("qps", 0, "background load in requests/s (0 = driver default of 0.2; the spike is 100x)")
	}
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if fs.NArg() > 0 {
		return config{}, fmt.Errorf("unexpected arguments %q (flags go after the experiment id)", fs.Args())
	}
	cfg := config{
		opts:       experiments.Options{Seed: *seed, Quick: *quick},
		csvDir:     *csvDir,
		parallel:   *parallel,
		timeout:    *timeout,
		metrics:    *metrics,
		cpuProfile: *cpuProfile,
		memProfile: *memProfile,
	}
	if withFleet {
		// Validate the policy spelling here so a typo fails before the
		// fleet spins up its engines.
		if *policy != "" && *policy != "all" {
			if _, err := fleet.ParsePolicy(*policy); err != nil {
				return config{}, err
			}
		}
		if _, err := fleet.ParseDevices(*devices); err != nil {
			return config{}, err
		}
		cfg.opts.FleetReplicas = *replicas
		cfg.opts.FleetDevices = *devices
		cfg.opts.FleetPolicy = *policy
		cfg.opts.FleetQPS = *qps
	}
	if withSessions || withTiering {
		if *sessionCount < 0 || *sessionTurns < 0 || *sessionBranch < 0 {
			return config{}, fmt.Errorf("-sessions, -turns, and -branch must be non-negative")
		}
		cfg.opts.SessionCount = *sessionCount
		cfg.opts.SessionTurns = *sessionTurns
		cfg.opts.SessionBranch = *sessionBranch
	}
	if withSessions {
		if *sessionPolicy != "" && *sessionPolicy != "all" {
			if _, err := fleet.ParsePolicy(*sessionPolicy); err != nil {
				return config{}, err
			}
		}
		cfg.opts.SessionPolicy = *sessionPolicy
	}
	if withTiering {
		// Validate the sweep spelling here so a typo fails before any
		// engine spins up.
		if _, err := experiments.ParseDeviceBlocks(*tierDeviceBlocks); err != nil {
			return config{}, err
		}
		if *tierHostBlocks < 0 {
			return config{}, fmt.Errorf("tiering: -host-blocks must be non-negative")
		}
		if *tierBW < 0 {
			return config{}, fmt.Errorf("tiering: -bw must be non-negative")
		}
		cfg.opts.TierDeviceBlocks = *tierDeviceBlocks
		cfg.opts.TierHostBlocks = *tierHostBlocks
		cfg.opts.TierLinkBW = *tierBW
	}
	if withSaturate {
		if *satMetric != "" && *satMetric != "p99" && *satMetric != "hitrate" {
			return config{}, fmt.Errorf("saturate: unknown -metric %q (want p99 or hitrate)", *satMetric)
		}
		if *satSLO < 0 {
			return config{}, fmt.Errorf("saturate: -slo must be non-negative")
		}
		if *satMetric == "hitrate" && *satSLO > 1 {
			return config{}, fmt.Errorf("saturate: hitrate -slo is a fraction in [0,1], got %g", *satSLO)
		}
		if *satRequests < 0 {
			return config{}, fmt.Errorf("saturate: -requests must be non-negative")
		}
		if _, err := fleet.ParseDevices(*devices); err != nil {
			return config{}, err
		}
		cfg.opts.SatSLO = *satSLO
		cfg.opts.SatMetric = *satMetric
		cfg.opts.SatRequests = *satRequests
		cfg.opts.FleetDevices = *devices
	}
	if withDrills {
		if *drillReplicas < 0 {
			return config{}, fmt.Errorf("drills: -replicas must be non-negative")
		}
		if *drillRestart < 0 {
			return config{}, fmt.Errorf("drills: -restart must be non-negative")
		}
		if _, err := fleet.ParseDevices(*devices); err != nil {
			return config{}, err
		}
		cfg.opts.DrillReplicas = *drillReplicas
		cfg.opts.DrillRestart = *drillRestart
		cfg.opts.FleetDevices = *devices
	}
	if withAutoscale {
		// Validate the spellings here so a typo fails before the fleet
		// spins up its engines.
		if *autoAdmission != "" {
			if _, err := fleet.ParseAdmission(*autoAdmission); err != nil {
				return config{}, err
			}
		}
		if _, err := fleet.ParseScaleSignal(*autoScaleOn); err != nil {
			return config{}, err
		}
		if _, err := fleet.ParseDevices(*devices); err != nil {
			return config{}, err
		}
		if *autoMin < 0 || *autoMax < 0 {
			return config{}, fmt.Errorf("autoscale: -min and -max must be non-negative")
		}
		if *autoMax > 0 && *autoMax < *autoMin {
			return config{}, fmt.Errorf("autoscale: -max %d below -min %d", *autoMax, *autoMin)
		}
		cfg.opts.AutoMin = *autoMin
		cfg.opts.AutoMax = *autoMax
		cfg.opts.AutoAdmission = *autoAdmission
		cfg.opts.AutoScaleOn = *autoScaleOn
		cfg.opts.FleetDevices = *devices
		cfg.opts.FleetQPS = *qps
	}
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "seed":
			cfg.seedSet = true
		case "seeds":
			cfg.seedsSet = true
		}
	})
	if cfg.seedsSet && *seeds == "" {
		return config{}, fmt.Errorf("-seeds requires a non-empty list")
	}
	var err error
	if cfg.seeds, err = parseSeeds(*seeds); err != nil {
		return config{}, err
	}
	return cfg, nil
}

func parseSeeds(list string) ([]uint64, error) {
	if list == "" {
		seeds := make([]uint64, 8)
		for i := range seeds {
			seeds[i] = uint64(i + 1)
		}
		return seeds, nil
	}
	parts := strings.Split(list, ",")
	seeds := make([]uint64, 0, len(parts))
	seen := make(map[uint64]bool, len(parts))
	for _, p := range parts {
		s, err := strconv.ParseUint(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q: %w", p, err)
		}
		// Duplicates would render the same section twice and silently
		// clobber each other's seed-tagged CSV.
		if seen[s] {
			return nil, fmt.Errorf("duplicate seed %d", s)
		}
		seen[s] = true
		seeds = append(seeds, s)
	}
	return seeds, nil
}

// execute runs the IDs on the worker pool and streams each result's
// tables through Render/CSV in registry order as they become ready.
// Driver failures are collected rather than aborting the suite.
func execute(ids []string, cfg config) error {
	return emit(cfg, len(ids), false, func(ctx context.Context) <-chan experiments.Result {
		return experiments.Stream(ctx, ids, cfg.opts, cfg.runnerOptions())
	})
}

// soak streams a large open-loop workload through a single engine with
// lean metrics — the request stream is generated lazily and never
// materialized, so live memory is O(active batch), not O(requests) —
// and reports simulation throughput in sim-events/sec (prefills plus
// decode chunks, the clock-advancing units of work).
func soak(args []string) error {
	fs := flag.NewFlagSet("soak", flag.ContinueOnError)
	requests := fs.Float64("requests", 1e6, "requests to stream (accepts 1e6 notation)")
	qps := fs.Float64("qps", 0.8, "offered load in requests/s (keep below the single-engine knee of ~1.1)")
	seed := fs.Uint64("seed", 7, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("soak: unexpected arguments %q", fs.Args())
	}
	n := int(*requests)
	if n <= 0 || float64(n) != *requests {
		return fmt.Errorf("soak: -requests must be a positive integer, got %g", *requests)
	}
	if *qps <= 0 {
		return fmt.Errorf("soak: -qps must be positive")
	}
	src, err := workload.NewSource(workload.InteractiveAssistant(*qps, n), *seed)
	if err != nil {
		return err
	}
	eng, err := engine.New(engine.Config{Spec: model.MustLookup(model.Qwen25_1_5Bit), Device: hw.JetsonAGXOrin64GB()})
	if err != nil {
		return err
	}
	start := time.Now()
	m, err := eng.ServeSource(src, 8, engine.FCFS, engine.ServeOpts{LeanMetrics: true})
	if err != nil {
		return err
	}
	wall := time.Since(start)
	runtime.GC() // settle the heap so the live figure excludes garbage
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Printf("soak: %d requests streamed in %s wall (%.0f sim-events/s)\n",
		n, wall.Round(time.Millisecond), float64(m.Events)/wall.Seconds())
	fmt.Printf("  served %d, events %d, sim time %.0fs, p99 %.2fs, mean %.3fs\n",
		m.Served, m.Events, eng.Clock(), m.P99Latency, m.MeanLatency)
	fmt.Printf("  live heap after run %.1f MB\n", float64(ms.HeapAlloc)/(1<<20))
	return nil
}

// sweep fans one driver across seeds and renders each seed's tables in
// seed order, tagging the section headers with the seed.
func sweep(id string, cfg config) error {
	// Pre-flight the ID: an unknown experiment is one typo, not one
	// failure per seed.
	if !experiments.Known(id) {
		return experiments.UnknownIDError(id)
	}
	return emit(cfg, len(cfg.seeds), true, func(ctx context.Context) <-chan experiments.Result {
		return experiments.StreamSweep(ctx, id, cfg.seeds, cfg.opts, cfg.runnerOptions())
	})
}

// label names one result in failure lists and metrics rows; sweep results
// are qualified by seed since every row shares the experiment ID.
func label(r experiments.Result, bySeed bool) string {
	if bySeed {
		return fmt.Sprintf("%s@seed%d", r.ID, r.Seed)
	}
	return r.ID
}

// emit consumes an ordered result stream under an interrupt-aware
// context, rendering each successful result's tables to stdout (and CSV)
// as they arrive and collecting failures instead of aborting on the
// first one. bySeed switches on the sweep dressing: per-result seed
// headers and seed-tagged CSV names.
func emit(cfg config, total int, bySeed bool, stream func(context.Context) <-chan experiments.Result) (retErr error) {
	stopProfiles, err := startProfiles(cfg.cpuProfile, cfg.memProfile)
	if err != nil {
		return err
	}
	defer func() {
		// A broken profile write should not mask a driver failure.
		if perr := stopProfiles(); perr != nil && retErr == nil {
			retErr = perr
		}
	}()
	if cfg.csvDir != "" {
		if err := os.MkdirAll(cfg.csvDir, 0o755); err != nil {
			return err
		}
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()

	start := time.Now()
	var stats []driverStat
	var failed []string
	var firstErr error
	interrupted := 0
	for res := range stream(ctx) {
		stats = append(stats, driverStat{
			label:  label(res, bySeed),
			wall:   res.Wall,
			tables: res.TableCount(),
			err:    res.Err,
		})
		if res.Err != nil {
			// A Ctrl-C is not a driver failure: count cancelled results
			// separately and report the interrupt once at the end.
			if errors.Is(res.Err, context.Canceled) {
				interrupted++
				continue
			}
			if firstErr == nil {
				firstErr = res.Err
			}
			failed = append(failed, label(res, bySeed))
			// With a single experiment the returned error already carries
			// the cause; the extra stderr line would print it twice.
			if total > 1 {
				fmt.Fprintf(os.Stderr, "edgereasoning: %s: %v\n", label(res, bySeed), res.Err)
			}
			continue
		}
		if bySeed {
			fmt.Printf("-- %s @ seed %d --\n", res.ID, res.Seed)
		}
		for i := range res.Tables {
			if err := res.Tables[i].Render(os.Stdout); err != nil {
				return fmt.Errorf("%s: render: %w", label(res, bySeed), err)
			}
			if cfg.csvDir != "" {
				t := res.Tables[i]
				if bySeed {
					t.ID = fmt.Sprintf("%s-seed%d", t.ID, res.Seed)
				}
				if err := writeCSV(cfg.csvDir, &t); err != nil {
					return fmt.Errorf("%s: csv: %w", label(res, bySeed), err)
				}
			}
		}
	}
	if cfg.metrics {
		printMetrics(stats, time.Since(start))
	}
	switch {
	case len(failed) == 0 && interrupted == 0:
		return nil
	case len(failed) == 1 && total == 1:
		// Preserve the error chain when a single experiment was asked for.
		return fmt.Errorf("%s: %w", failed[0], firstErr)
	case interrupted > 0 && len(failed) == 0:
		// "not completed", not "not run": an in-flight driver abandoned by
		// the interrupt had started, its work discarded.
		return fmt.Errorf("interrupted: %d of %d experiments not completed", interrupted, total)
	case interrupted > 0:
		return fmt.Errorf("%d of %d experiments failed (%s); interrupted with %d more not completed",
			len(failed), total, strings.Join(failed, ", "), interrupted)
	default:
		return fmt.Errorf("%d of %d experiments failed: %s",
			len(failed), total, strings.Join(failed, ", "))
	}
}

// startProfiles begins CPU profiling (when cpuPath is set) and returns a
// stop function that ends it and writes a heap profile (when memPath is
// set), so suite runs can be profiled without editing code:
//
//	edgereasoning all -quick -cpuprofile cpu.out -memprofile mem.out
//	go tool pprof cpu.out
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func() error {
		var first error
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				first = err
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				if first == nil {
					first = err
				}
				return first
			}
			runtime.GC() // settle the heap so the profile reflects live data
			if err := pprof.WriteHeapProfile(f); err != nil && first == nil {
				first = err
			}
			if err := f.Close(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}, nil
}

// driverStat is the lightweight per-driver record kept for -metrics, so
// rendered tables can be dropped as soon as they are emitted.
type driverStat struct {
	label  string
	wall   time.Duration
	tables int
	err    error
}

// printMetrics writes per-driver and suite-level metrics to stderr so the
// report on stdout stays byte-stable.
func printMetrics(stats []driverStat, elapsed time.Duration) {
	fmt.Fprintf(os.Stderr, "\n%-20s %10s %7s  %s\n", "experiment", "wall", "tables", "status")
	var driverTime time.Duration
	var tables, errs, interrupted int
	for _, s := range stats {
		status := "ok"
		switch {
		case s.err == nil:
		case errors.Is(s.err, context.Canceled):
			// Match emit's classification: a Ctrl-C is not a failure.
			status = "interrupted"
			interrupted++
		default:
			status = s.err.Error()
			errs++
		}
		fmt.Fprintf(os.Stderr, "%-20s %10s %7d  %s\n",
			s.label, s.wall.Round(time.Millisecond), s.tables, status)
		driverTime += s.wall
		tables += s.tables
	}
	speedup := float64(driverTime) / float64(elapsed)
	suffix := ""
	if interrupted > 0 {
		suffix = fmt.Sprintf(", %d interrupted", interrupted)
	}
	fmt.Fprintf(os.Stderr,
		"suite: %d drivers, %d tables, %d errors%s; driver time %s, wall %s (%.1fx)\n",
		len(stats), tables, errs, suffix,
		driverTime.Round(time.Millisecond), elapsed.Round(time.Millisecond), speedup)
}

func writeCSV(dir string, t *experiments.Table) error {
	f, err := os.Create(filepath.Join(dir, t.ID+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	if err := t.WriteCSV(f); err != nil {
		return err
	}
	return f.Close()
}

func usage() {
	fmt.Fprintln(os.Stderr, `edgereasoning — reproduce the EdgeReasoning paper's evaluation

commands:
  list                 show available experiment IDs
  run <id> [flags]     run one experiment (e.g. "run table2")
  all [flags]          run the full suite
  fleet [flags]        route open-loop traffic across a heterogeneous fleet
  sessions [flags]     multi-turn agentic serving with prefix KV caching
  tiering [flags]      host-DRAM KV tier swept against device-cache size
  autoscale [flags]    elastic replica pool + ingress admission disciplines
  saturate [flags]     binary-search offered QPS to the SLO saturation knee
  drills [flags]       fault-injection outage drills: crashes, stalls, throttling
  soak [flags]         stream a large open-loop run end to end (sim-events/sec)
  trace [flags]        trace a faulted autoscaled run; export Perfetto JSON +
                       Prometheus snapshot (-out, -metrics-out, -requests, -qps,
                       -replicas, -max, -seed, -crash-rate, -throttle,
                       -cpuprofile, -memprofile)
  sweep <id> [flags]   fan one experiment across seeds (variance estimation)

flags:
  -seed N       random seed (default 7; run/all/fleet/sessions only — sweep
                takes -seeds, and passing the wrong one is an error)
  -quick        subsample large banks
  -csv DIR      also write CSV files
  -parallel N   worker count (default GOMAXPROCS)
  -timeout D    per-driver timeout, e.g. 90s (default none)
  -metrics      print per-driver metrics to stderr
  -cpuprofile F write a CPU profile of the run to F
  -memprofile F write a heap profile at exit to F
  -seeds LIST   comma-separated seeds (sweep only; default 1..8)
  -replicas N   fleet size (fleet; default 4) or drill pool size (drills; default 3)
  -devices L    device cycle, e.g. orin,orin-50w (fleet and autoscale)
  -policy P     fleet: round-robin | least-queue | latency-weighted | deadline-aware | all
                sessions: round-robin | least-queue | session-affinity | all
  -qps Q        offered load in requests/s (fleet: default 2.0;
                autoscale: background load, default 0.2, spike is 100x)
  -sessions N   concurrent sessions (sessions and tiering; default 10)
  -turns N      agent-loop turns per session (sessions and tiering; default 5)
  -branch N     parallel think samples at branch turns (sessions and tiering; default 2)
  -device-blocks L  tiering: device-cache sweep in blocks (default S,2S,4S, S = max(192, largest request))
  -host-blocks N    tiering: host-tier capacity in blocks (default 1024)
  -bw B             tiering: host-link bandwidth in bytes/s (default 16e9)
  -min N        autoscale pool floor (autoscale only; default 1)
  -max N        autoscale pool ceiling (autoscale only; default 6)
  -admission D  autoscale: fifo | edf | sjf | shed (default fifo)
  -scale-on S   autoscale: depth | miss | both (default both)
  -restart X    drills: crash restart delay in seconds (default 5)
  -slo X        saturate: p99 bound in seconds or hit-rate floor (metric default)
  -metric M     saturate: p99 | hitrate (default p99)
  -requests N   saturate: requests per probe (default 240)
                soak: requests to stream, 1e6 notation ok (default 1e6)`)
}
