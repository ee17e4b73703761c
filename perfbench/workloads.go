package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"

	"edgereasoning/internal/engine"
	"edgereasoning/internal/experiments"
	"edgereasoning/internal/faults"
	"edgereasoning/internal/fleet"
	"edgereasoning/internal/hw"
	"edgereasoning/internal/model"
	"edgereasoning/internal/session"
	"edgereasoning/internal/telemetry"
	"edgereasoning/internal/workload"
)

// benchWorkload is one named input set. prepare builds everything a single
// operation needs from the seed (sources, engine or fleet configuration);
// it is the set-up setup_s times, and it runs again, untimed, before
// every operation so each operation starts from identical state.
type benchWorkload struct {
	name    string
	prepare func(seed uint64) (job, error)
}

// job is one prepared operation.
type job interface {
	// exec does the timed work. rec is nil in timed runs; in the traced
	// run it records the benchmark's spans around each public call.
	exec(rec *recorder)
	// check runs the workload's correctness checks on the outputs.
	check() outcome
	// ledger fills the per-layer metrics of a traced operation whose
	// wall time was wall seconds.
	ledger(rec *recorder, wall float64, m map[string]float64) error
}

// outcome is the checked result of one operation.
type outcome struct {
	// attempted and failed count operations: one serve run, or one
	// suite driver. An operation fails if it returns an error or breaks
	// a correctness check.
	attempted, failed int
	// failures holds one line per error or broken check.
	failures []string
	// digest summarizes the simulated statistics; it must not change
	// with host-side work such as tracing or a faster implementation.
	digest string
	// events counts clock-advancing sim events (serving workloads).
	events int
	// anchorDevPct is the suite's mean absolute deviation from the
	// paper's published anchors, in percent (paper-suite only).
	anchorDevPct float64
}

func (o *outcome) fail(format string, args ...any) {
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

// knownDefects are failures of the program at the commit that added the
// benchmark. They count as failed operations like any other, but leave
// the run's "correct" flag alone, so that a new failure stands out.
var knownDefects = []struct {
	workload string
	match    func(failure string) bool
	why      string
}{
	{"paper-suite", func(f string) bool {
		return strings.Contains(f, `tiering: engine: request "s1t4a" exceeds KV capacity even alone`)
	}, "the tiering driver fails at the suite seed 7"},
	{"agent-fleet", roundingMiss,
		"telemetry.ValidateChromeTrace nests spans with an absolute 1e-6 us tolerance, " +
			"below float64 resolution once timestamps pass 2^33 us (about 2.4 sim-hours)"},
}

var nestFailure = regexp.MustCompile(`\[([0-9.]+), ([0-9.]+)\] overlaps but does not nest within its enclosing span ending ([0-9.]+)`)

// roundingMiss reports whether a Chrome-trace nesting failure is float
// rounding: the span starts or ends exactly where its enclosing span
// ends, at the exported precision. A span that truly overlaps its
// parent does not match.
func roundingMiss(failure string) bool {
	m := nestFailure.FindStringSubmatch(failure)
	return m != nil && (m[1] == m[3] || m[2] == m[3])
}

// knownDefect returns why a failure of the workload is a known defect,
// or "" if it is not one.
func knownDefect(workload, failure string) string {
	for _, d := range knownDefects {
		if d.workload == workload && d.match(failure) {
			return d.why
		}
	}
	return ""
}

var workloads = []benchWorkload{
	{"assistant-soak", prepareSoak},
	{"agent-fleet", prepareFleet},
	{"paper-suite", prepareSuite},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func lookup(name string) (benchWorkload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}

// num formats a float exactly, so digests compare bit for bit.
func num(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// ---- assistant-soak ------------------------------------------------------

// The soak is the million-request streamed run of BENCH_serve.json's
// BenchmarkSoakServe: one engine, an open loop below the ~1.1 QPS knee.
const (
	soakRequests = 1_000_000
	soakQPS      = 0.8
	soakBatch    = 8
)

func soakEngineConfig() engine.Config {
	return engine.Config{Spec: model.MustLookup(model.Qwen25_1_5Bit), Device: hw.JetsonAGXOrin64GB()}
}

type soakJob struct {
	seed     uint64
	requests int
	src      *workload.Source
	eng      *engine.Engine
	m        engine.ServeMetrics
	err      error
}

func prepareSoak(seed uint64) (job, error) { return newSoakJob(soakRequests, seed) }

func newSoakJob(requests int, seed uint64) (*soakJob, error) {
	src, err := workload.NewSource(workload.InteractiveAssistant(soakQPS, requests), seed)
	if err != nil {
		return nil, err
	}
	eng, err := engine.New(soakEngineConfig())
	if err != nil {
		return nil, err
	}
	return &soakJob{seed: seed, requests: requests, src: src, eng: eng}, nil
}

func (j *soakJob) exec(rec *recorder) {
	sp := rec.begin("engine.ServeSource", -1)
	j.m, j.err = j.eng.ServeSource(wrap(j.src, rec), soakBatch, engine.FCFS, engine.ServeOpts{LeanMetrics: true})
	rec.end(sp)
}

func (j *soakJob) check() outcome {
	o := outcome{attempted: 1, events: j.m.Events}
	if j.err != nil {
		o.fail("serve: %v", j.err)
	} else if j.m.Served != j.requests {
		o.fail("served %d of %d requests", j.m.Served, j.requests)

	}
	o.failed = min(len(o.failures), 1)
	o.digest = fmt.Sprintf("served=%d events=%d p50=%s p99=%s energy_j=%s",
		j.m.Served, j.m.Events, num(j.m.P50Latency), num(j.m.P99Latency), num(j.m.TotalEnergy))
	return o
}

// ---- agent-fleet ---------------------------------------------------------

// The fleet workload's steady-state point: sim p99 latency and
// demotions per request hold as the session count doubles
// (TestFleetSteadyState checks it; RECORD.md has the figures). The
// device-block cap keeps the host tier demoting and promoting for the
// whole run.
const (
	fleetSessions     = 2000
	fleetTurns        = 5
	fleetBranch       = 2
	fleetStartRate    = 0.04 // sessions per sim-second
	fleetReplicas     = 4
	fleetDeviceBlocks = 400
	fleetHostBlocks   = 4096
	// Fault rates per replica per 1000 sim-seconds.
	fleetCrashRate    = 1
	fleetStallRate    = 2
	fleetThrottleRate = 2
)

func fleetProfile(sessions int) session.Profile {
	p := session.AgentLoop(sessions, fleetTurns, fleetBranch)
	p.StartRate = fleetStartRate
	return p
}

// fleetConfig builds the fleet for a stream of the given session count:
// fault rates scale with the stream's span, so doubling the sessions
// doubles the faults and keeps their density.
func fleetConfig(sessions int, seed uint64, traced bool) (fleet.Config, error) {
	horizon := float64(sessions) / fleetStartRate
	per := horizon / 1000
	sched, err := faults.Generate(faults.GenConfig{
		Replicas: fleetReplicas, Horizon: horizon,
		CrashRate: fleetCrashRate * per, RestartDelay: 10,
		StallRate: fleetStallRate * per, StallDuration: 2,
		ThrottleRate: fleetThrottleRate * per, ThrottleDuration: 30, ThrottleFactor: 1.5,
	}, seed)
	if err != nil {
		return fleet.Config{}, err
	}
	cfg := fleet.Config{
		Replicas:       fleet.HeterogeneousReplicas(fleetReplicas, fleet.DefaultDevices(), model.MustLookup(model.DSR1Qwen1_5B)),
		Policy:         fleet.SessionAffinity,
		PrefixCache:    true,
		DeviceBlocks:   fleetDeviceBlocks,
		HostTierBlocks: fleetHostBlocks,
		Faults:         &sched,
		Retry:          &fleet.RetryPolicy{},
		Health:         &fleet.HealthConfig{},
	}
	if traced {
		cfg.Trace = telemetry.New(telemetry.Config{})
	}
	return cfg, nil
}

type fleetJob struct {
	seed         uint64
	sessions     int
	cfg          fleet.Config
	src          *session.Source
	m            fleet.Metrics
	err          error
	chrome, prom bytes.Buffer
}

func prepareFleet(seed uint64) (job, error) { return newFleetJob(fleetSessions, seed) }

func newFleetJob(sessions int, seed uint64) (*fleetJob, error) {
	src, err := session.NewSource(fleetProfile(sessions), seed)
	if err != nil {
		return nil, err
	}
	cfg, err := fleetConfig(sessions, seed, true)
	if err != nil {
		return nil, err
	}
	return &fleetJob{seed: seed, sessions: sessions, cfg: cfg, src: src}, nil
}

func (j *fleetJob) exec(rec *recorder) {
	sp := rec.begin("fleet.ServeSource", -1)
	j.m, j.err = fleet.ServeSource(j.cfg, wrap(j.src, rec))
	rec.end(sp)
	if j.err != nil {
		return
	}
	sp = rec.begin("telemetry.WriteChromeTrace", -1)
	if err := j.cfg.Trace.WriteChromeTrace(&j.chrome); err != nil {
		j.err = err
	}
	rec.end(sp)
	sp = rec.begin("telemetry.WritePrometheus", -1)
	if err := j.cfg.Trace.WritePrometheus(&j.prom); err != nil && j.err == nil {
		j.err = err
	}
	rec.end(sp)
}

func (j *fleetJob) check() outcome {
	m := j.m
	o := outcome{attempted: 1, events: m.Events}
	if j.err != nil {
		o.fail("fleet serve: %v", j.err)
	} else {
		if m.Served+m.Dropped != m.Offered {
			o.fail("conservation: served %d + dropped %d != offered %d", m.Served, m.Dropped, m.Offered)
		}
		if m.Retried+m.AbortedDropped < m.Aborted {
			o.fail("abort accounting: retried %d + aborted-dropped %d < aborted %d", m.Retried, m.AbortedDropped, m.Aborted)
		}
		if err := telemetry.ValidateChromeTrace(j.chrome.Bytes()); err != nil {
			o.fail("chrome trace: %v", err)
		}
		if err := telemetry.ValidatePrometheus(j.prom.Bytes()); err != nil {
			o.fail("prometheus export: %v", err)
		}
		if err := telemetry.ValidateSpans(j.cfg.Trace); err != nil {
			o.fail("spans: %v", err)
		}
	}
	o.failed = min(len(o.failures), 1)
	h := sha256.New()
	h.Write(j.chrome.Bytes())
	h.Write(j.prom.Bytes())
	o.digest = fmt.Sprintf("%s exports_sha256=%x", fleetStats(m), h.Sum(nil)[:8])
	return o
}

// fleetStats prints a fleet run's simulated statistics exactly.
func fleetStats(m fleet.Metrics) string {
	return fmt.Sprintf("offered=%d served=%d dropped=%d shed=%d events=%d p50=%s p99=%s energy_j=%s "+
		"prefix_lookups=%d prefix_hits=%d saved_tokens=%d demotions=%d promotions=%d host_hits=%d restore_s=%s "+
		"crashes=%d aborted=%d retried=%d aborted_dropped=%d breaker_opens=%d lost_work_s=%s",
		m.Offered, m.Served, m.Dropped, m.Shed, m.Events, num(m.P50Latency), num(m.P99Latency), num(m.TotalEnergy),
		m.PrefixLookups, m.PrefixHits, m.SavedPrefillTokens, m.TierDemotions, m.TierPromotions, m.HostHits, num(m.RestoreSeconds),
		m.Crashes, m.Aborted, m.Retried, m.AbortedDropped, m.BreakerOpens, num(m.LostWorkSeconds))
}

// ---- paper-suite ---------------------------------------------------------

// suiteSeed is the CLI's default seed: the suite reproduces the paper at
// it, so --seed does not change the suite's inputs.
const suiteSeed = 7

type suiteJob struct {
	ids      []string
	opts     experiments.Options
	results  []experiments.Result
	anchors  []experiments.Anchor
	scoreErr error
}

func prepareSuite(uint64) (job, error) {
	opts := experiments.DefaultOptions()
	opts.Seed = suiteSeed
	return &suiteJob{ids: experiments.IDs(), opts: opts}, nil
}

func (j *suiteJob) exec(rec *recorder) {
	ctx := context.Background()
	serial := experiments.RunnerOptions{Parallelism: 1}
	if rec == nil {
		j.results = experiments.RunAll(ctx, j.ids, j.opts, serial)
	} else {
		// One driver at a time, so each gets its own span.
		all := rec.begin("experiments.RunAll", -1)
		j.results = j.results[:0]
		for _, id := range j.ids {
			sp := rec.begin(id, all)
			j.results = append(j.results, experiments.RunAll(ctx, []string{id}, j.opts, serial)...)
			rec.end(sp)
		}
		rec.end(all)
	}
	sp := rec.begin("experiments.Scorecard", -1)
	j.anchors, j.scoreErr = experiments.Scorecard(j.opts)
	rec.end(sp)
}

func (j *suiteJob) check() outcome {
	o := outcome{attempted: len(j.ids)}
	h := sha256.New()
	for _, r := range j.results {
		if r.Err != nil {
			o.fail("%s: %v", r.ID, r.Err)
			o.failed++
			fmt.Fprintf(h, "%s error %q\n", r.ID, r.Err.Error())
		}
		for _, t := range r.Tables {
			fmt.Fprintf(h, "%q %q %q %q %q\n", t.ID, t.Title, t.Columns, t.Rows, t.Notes)
		}
	}
	if len(j.results) != len(j.ids) {
		o.fail("suite returned %d results for %d drivers", len(j.results), len(j.ids))
		o.failed = len(j.ids)
	}
	failedAnchors, devSum := 0, 0.0
	if j.scoreErr != nil {
		o.fail("scorecard: %v", j.scoreErr)
	}
	for _, a := range j.anchors {
		fmt.Fprintf(h, "anchor %s %s\n", a.Name, num(a.Measured))
		if a.Paper != 0 {
			devSum += math.Abs(a.Measured-a.Paper) / math.Abs(a.Paper)
		}
		if !a.Pass() {
			failedAnchors++
		}
	}
	if failedAnchors > 0 {
		o.fail("%d of %d scorecard anchors outside tolerance", failedAnchors, len(j.anchors))
	}
	if (failedAnchors > 0 || j.scoreErr != nil) && !driverFailed(j.results, "verify") {
		// The scorecard backs the verify driver; its anchors are that
		// driver's correctness check.
		o.failed++
	}
	if len(j.anchors) > 0 {
		o.anchorDevPct = 100 * devSum / float64(len(j.anchors))
	}
	tables := 0
	for _, r := range j.results {
		tables += len(r.Tables)
	}
	o.digest = fmt.Sprintf("drivers=%d failed=%s tables=%d anchors=%d anchor_dev_pct=%s tables_sha256=%x",
		len(j.results), failedIDs(j.results), tables, len(j.anchors), num(o.anchorDevPct), h.Sum(nil)[:8])
	return o
}

func driverFailed(results []experiments.Result, id string) bool {
	for _, r := range results {
		if r.ID == id {
			return r.Err != nil
		}
	}
	return false
}

func failedIDs(results []experiments.Result) string {
	var ids []string
	for _, r := range results {
		if r.Err != nil {
			ids = append(ids, r.ID)
		}
	}
	if len(ids) == 0 {
		return "none"
	}
	return strings.Join(ids, ",")
}
