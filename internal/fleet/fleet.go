// Package fleet simulates serving one open-loop request stream across a
// pool of heterogeneous replica engines — mixed device profiles (AGX
// Orin power modes, server parts) and mixed weight formats (FP16 and
// W4A16). A deterministic router assigns each arriving request to a
// replica under a pluggable Policy; each replica then executes its
// sub-stream on the full vLLM-style engine (engine.ServeSource), and the
// per-replica results are folded into fleet-wide Metrics.
//
// The router works on calibrated estimates (a batch-1 probe of each
// replica's prefill and decode rates) while the replicas execute on the
// exact simulator, mirroring a real load balancer that routes on cheap
// health signals rather than ground truth. Each replica keeps one
// dispatch log — the requests it took, in dispatch order, each with its
// estimated finish and shared-queue wait — and every router decision
// reads that log: outstanding work for capacity, the earliest estimated
// finish for capacity waits, the abort suffix at a crash, the idle timer
// for the autoscaler. Admission is a shared ingress queue with
// per-replica capacity and a pluggable discipline (Config.Admission):
// the default FIFO blocks the stream head when every routable replica is
// at capacity, while EDF and SJF reorder the waiting set and Shed drops
// hopeless deadline work instead of serving it late. An optional
// autoscaler (Config.Autoscale) grows and shrinks the replica pool on
// ingress pressure, paying modeled cold starts.
package fleet

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"edgereasoning/internal/engine"
	"edgereasoning/internal/faults"
	"edgereasoning/internal/hw"
	"edgereasoning/internal/model"
	"edgereasoning/internal/stats"
	"edgereasoning/internal/telemetry"
)

// ReplicaConfig describes one engine in the fleet.
type ReplicaConfig struct {
	// Name labels the replica in metrics (default "r<i>-<device>").
	Name   string
	Spec   model.Spec
	Device *hw.Device
	// MaxBatch bounds concurrent decoders on the replica (default 4).
	MaxBatch int
	// Capacity bounds outstanding (queued + executing) requests the
	// router may park on the replica (default 16).
	Capacity int
	// WarmupDelay keeps the replica unroutable before this simulated
	// time — a cold start loading weights. Zero means warm at t=0.
	WarmupDelay float64
	// FailAt, when positive, makes the replica unroutable at and after
	// this simulated time. Requests routed earlier still complete (a
	// drain-style failure, not a crash).
	//
	// The boundary with WarmupDelay is deliberate and relied on by the
	// autoscaler's warm-up accounting: routability requires
	// t >= WarmupDelay and t < FailAt, so a replica with
	// FailAt <= WarmupDelay is dead at birth — there is no instant at
	// which it can take a request, even when the two are exactly equal.
	// Only FailAt > WarmupDelay opens a routable window.
	FailAt float64
	// CrashAt, when positive, is FailAt's lossy counterpart: the replica
	// crashes at this simulated time, destroying its in-flight requests
	// and device KV cache (FailAt drains — routed work still completes;
	// CrashAt loses it). The crash is permanent; use Config.Faults for
	// crashes that restart. The dead-at-birth boundary mirrors FailAt:
	// CrashAt <= WarmupDelay leaves no instant at which the replica can
	// take a request.
	CrashAt float64
}

func (rc ReplicaConfig) withDefaults(i int) ReplicaConfig {
	if rc.MaxBatch <= 0 {
		rc.MaxBatch = 4
	}
	if rc.Capacity <= 0 {
		rc.Capacity = 16
	}
	if rc.Name == "" && rc.Device != nil {
		rc.Name = fmt.Sprintf("r%d-%s", i, rc.Device.Name)
	}
	return rc
}

// Config assembles a fleet.
type Config struct {
	Replicas []ReplicaConfig
	Policy   Policy
	// Admission selects the ingress-queue discipline. The zero value
	// (FIFO) preserves the historical head-of-line-blocking behavior.
	Admission Admission
	// Autoscale, when non-nil, lets the pool grow and shrink between
	// the configured bounds on ingress pressure. Nil keeps the replica
	// set fixed.
	Autoscale *AutoscaleConfig
	// PrefixCache builds every replica engine with a cross-request prefix
	// KV cache, so session-tagged streams reuse their history on whichever
	// replica holds it (see Policy SessionAffinity).
	PrefixCache bool
	// DeviceBlocks caps every replica's device KV cache (engine.Config.
	// DeviceBlocks); zero keeps the DRAM-derived size.
	DeviceBlocks int
	// HostTierBlocks attaches a host-DRAM second tier of that many blocks
	// to every replica's prefix index (requires PrefixCache); with the
	// tier on, SessionAffinity ranks re-pin candidates by where a
	// session's history resides — device-warm over host-warm over cold.
	HostTierBlocks int
	// HostLinkBandwidth prices tier promotions in bytes/second (default
	// kvcache.DefaultHostLinkBandwidth).
	HostLinkBandwidth float64
	// Faults, when non-nil, injects the schedule's crashes, stalls, and
	// throttles into the configured replicas (autoscaler provisions are
	// fault-free). See package faults for semantics.
	Faults *faults.Schedule
	// Retry, when non-nil, re-admits crash-aborted requests through the
	// shared ingress under the policy's attempt/backoff/deadline bounds.
	// Nil drops aborted work — the no-recovery baseline.
	Retry *RetryPolicy
	// Health, when non-nil, enables health-aware routing: per-replica
	// consecutive-failure circuit breakers with half-open probes, and
	// stall-window avoidance. Nil routes blind.
	Health *HealthConfig
	// Trace, when non-nil, records the run's telemetry into it: one span
	// track per replica (request phases from the engines), shared ingress
	// and faults tracks from the dispatch loop, and sampled fleet series.
	// Nil is the default and keeps the run byte-identical to untraced.
	Trace *telemetry.Trace
}

// engineTemplate is the engine configuration every replica is built
// from — the initial pool and autoscaler provisions alike — before
// newReplica fills in the replica's own spec, device and trace track.
func (cfg Config) engineTemplate() engine.Config {
	return engine.Config{
		PrefixCache: cfg.PrefixCache, DeviceBlocks: cfg.DeviceBlocks,
		HostTierBlocks: cfg.HostTierBlocks, HostLinkBandwidth: cfg.HostLinkBandwidth,
	}
}

// ReplicaMetrics reports one replica's share of the run.
type ReplicaMetrics struct {
	Name   string
	Device string
	Model  string
	// Assigned counts requests routed to the replica.
	Assigned int
	engine.ServeMetrics
	// BusyTime sums per-request service time (prefill + decode); batched
	// decode double-counts overlap, so compare it across replicas, not
	// against wall time.
	BusyTime float64
	// Crashes counts crash events that struck this replica.
	Crashes int
	// ProvisionedAt is when the replica joined the pool (0 for the
	// initial set); RetiredAt is when the autoscaler drained it out
	// (0 when it stayed in the pool to the end).
	ProvisionedAt float64
	RetiredAt     float64
}

// Metrics aggregates a fleet run.
type Metrics struct {
	Policy   Policy
	Replicas []ReplicaMetrics
	// Offered counts every request that entered the fleet's ingress;
	// conservation holds as Served + Dropped == Offered on every run.
	Offered int
	// Served counts completed requests; Dropped counts requests that
	// never reached a replica — either no replica could ever take them
	// (all failed or never warm) or the Shed admission discipline
	// dropped them as hopeless. Shed is the subset of Dropped removed
	// by deadline shedding.
	Served  int
	Dropped int
	Shed    int
	// Events sums the replicas' clock-advancing simulation events
	// (prefills and decode chunks) — the unit soak throughput is
	// reported in.
	Events int
	// Fleet-wide latency distribution over all completions.
	P50Latency  float64
	P95Latency  float64
	P99Latency  float64
	MeanLatency float64
	// Deadline accounting; dropped deadline-bearing requests count as
	// missed.
	DeadlinesMet   int
	DeadlinesTotal int
	TotalEnergy    float64 // joules across the fleet
	// WallTime is the last completion time on any replica.
	WallTime float64
	// Imbalance is the coefficient of variation of per-replica BusyTime:
	// 0 is a perfectly even spread, higher means hot spots.
	Imbalance float64
	// Autoscale accounting (zero without Config.Autoscale). ScaleEvents
	// is the pool-change log in time order; PeakReplicas the largest
	// live pool; ReplicaSeconds sums each replica's provisioned span
	// (provision to retirement, failure, or wall), the elastic pool's
	// resource bill for equal-cost comparisons against fixed pools.
	ScaleEvents    []ScaleEvent
	ScaleUps       int
	ScaleDowns     int
	PeakReplicas   int
	ReplicaSeconds float64
	// Prefix-cache accounting summed over replicas (zero without
	// Config.PrefixCache or without PromptSyms on the stream).
	PrefixLookups      int
	PrefixHits         int
	PrefixLookupTokens int
	SavedPrefillTokens int
	// Host-tier accounting summed over replicas (zero without
	// Config.HostTierBlocks): demote/promote traffic, admissions whose
	// matched prefix was restored from host DRAM, and the host-link
	// seconds those restores charged into TTFT.
	TierDemotions  int
	TierPromotions int
	HostHits       int
	RestoreSeconds float64
	// Fault-injection and recovery accounting (zero without Config.Faults
	// or ReplicaConfig.CrashAt). Crashes counts crash events striking the
	// pool; Aborted the in-flight dispatches they destroyed (a request
	// aborted twice counts twice); Retried the aborts scheduled for
	// re-admission; AbortedDropped — a subset of Dropped, like Shed — the
	// aborts abandoned for good (retry disabled, attempts exhausted, no
	// deadline budget left, or a permanent outage drained the retry
	// queue); LostWorkSeconds the estimated service time destroyed
	// mid-flight; BreakerOpens the circuit-breaker opens under
	// health-aware routing. Conservation still holds as
	// Served + Dropped == Offered: retries are not re-offered, and every
	// abort either completes a later attempt or lands in Dropped once.
	Crashes         int
	Aborted         int
	Retried         int
	AbortedDropped  int
	LostWorkSeconds float64
	BreakerOpens    int
}

// HitRate returns the fraction of deadline-bearing requests that met
// their deadline (1.0 when none carry deadlines).
func (m Metrics) HitRate() float64 {
	if m.DeadlinesTotal == 0 {
		return 1
	}
	return float64(m.DeadlinesMet) / float64(m.DeadlinesTotal)
}

// PrefixHitRate is the fleet-wide token-weighted cache hit rate — saved
// prefill tokens over prompt tokens that consulted a replica's cache (0
// when never consulted).
func (m Metrics) PrefixHitRate() float64 {
	if m.PrefixLookupTokens == 0 {
		return 0
	}
	return float64(m.SavedPrefillTokens) / float64(m.PrefixLookupTokens)
}

// replica is the router-side state for one engine.
type replica struct {
	cfg ReplicaConfig
	eng *engine.Engine
	// Calibrated batch-1 rates from the warm-up probe.
	prefillPerTok float64
	decodePerTok  float64
	// The dispatch log. assigned is the replica's sub-stream in dispatch
	// order, each Arrival rewritten to its dispatch instant; est is the
	// router's parallel view of each entry. Estimated finishes are
	// non-decreasing in dispatch order (each is max(estFreeAt, t) +
	// service, and estFreeAt only ratchets, or resets to a restart that
	// postdates every surviving entry), so the entries still outstanding
	// are always a suffix: est[done:] are those estimated to finish after
	// the clock of the latest depth query, and a crash aborts a suffix too.
	// src is the reusable source wrapper the drain feeds assigned through.
	assigned []engine.TimedRequest
	est      []estimate
	done     int
	src      engine.SliceSource
	// estFreeAt is the serial-backlog horizon: the estimated finish of the
	// latest dispatch, or the restart instant after a crash.
	estFreeAt float64
	wrrCredit float64
	// Autoscaler lifecycle: provisionedAt is when the replica joined the
	// pool; retired marks an autoscaler drain at retiredAt.
	provisionedAt float64
	retired       bool
	retiredAt     float64
	// Fault machinery: tl is the compiled fault timeline and hs the
	// circuit-breaker state, nil on fault-free replicas and blind fleets;
	// pendingWipe arms the next take to mark its request as the
	// cache-wipe boundary in the timeline's CrashWipes.
	tl          *timeline
	hs          *healthState
	pendingWipe bool
	// crashes counts crash events that struck this replica (folded into
	// ReplicaMetrics.Crashes).
	crashes int
}

// estimate is the router's record of one logged dispatch.
type estimate struct {
	finish float64 // estimated completion
	wait   float64 // shared-queue wait before dispatch (dispatch − arrival)
}

// newReplica builds the serving engine for one replica config from the
// fleet's engine template and calibrates the router's service-time
// estimate from the engine's own kernel model. CalibrationRates is pure
// — the clock and cache are untouched — and returns exactly what the
// historical one-request probe run on a scratch engine measured, without
// constructing one. A non-nil trace gives the engine its own track.
func newReplica(rc ReplicaConfig, tmpl engine.Config, trace *telemetry.Trace) (*replica, error) {
	engCfg := tmpl
	engCfg.Spec, engCfg.Device = rc.Spec, rc.Device
	if trace != nil {
		engCfg.Trace = trace.Track(rc.Name)
	}
	eng, err := engine.New(engCfg)
	if err != nil {
		return nil, fmt.Errorf("fleet: replica %s: %w", rc.Name, err)
	}
	prefillPerTok, decodePerTok, err := eng.CalibrationRates()
	if err != nil {
		return nil, fmt.Errorf("fleet: replica %s probe: %w", rc.Name, err)
	}
	return &replica{cfg: rc, eng: eng, prefillPerTok: prefillPerTok, decodePerTok: decodePerTok}, nil
}

// estService estimates the batch-1 service time of a request.
func (r *replica) estService(tr engine.TimedRequest) float64 {
	return r.prefillPerTok*float64(tr.PromptTokens) + r.decodePerTok*float64(tr.OutputTokens)
}

// estFinishFor estimates the completion time of tr started at start —
// but only under health-aware routing (r.hs != nil) does the estimate
// integrate the replica's thermal-throttle windows, so the router reads
// the device's thermal state and steers deadline-critical work toward
// cool replicas. A blind fleet estimates full speed and eats the
// stretch at drain time. This is a routing signal only: the recorded
// dispatch estimates (estFreeAt and the log) stay unstretched, so crash
// abort sets and capacity accounting are identical across health-aware
// and blind legs of the same schedule.
func (r *replica) estFinishFor(tr engine.TimedRequest, start float64) float64 {
	svc := r.estService(tr)
	if r.hs != nil && r.tl != nil && len(r.tl.fx.Throttles) > 0 {
		return r.tl.finishAfter(start, svc)
	}
	return start + svc
}

// speed is the router's weight for latency-weighted spreading: estimated
// throughput on a reference interactive request.
func (r *replica) speed() float64 {
	ref := engine.TimedRequest{Request: engine.Request{PromptTokens: 180, OutputTokens: 40}}
	if s := r.estService(ref); s > 0 {
		return 1 / s
	}
	return 0
}

// routableAt reports whether the router may hand the replica a request
// at time t — whether t itself is the earliest instant availAt allows;
// capacity is checked separately.
func (r *replica) routableAt(t float64) bool {
	at, never := r.availAt(t)
	return !never && at == t
}

// availAt returns the earliest instant >= t at which the replica could
// be routable: warm, not failed or crash-dead, not retired, not down
// awaiting restart, not breaker-blocked — warm-ups, crash downtime and
// breaker opens all push it out — or never=true when no such instant
// exists. Under health-aware routing a stall window pushes it out too:
// the health layer detects the stall and steers around it, while a
// blind fleet keeps dispatching into it and pays the freeze at drain
// time. Capacity is not considered.
func (r *replica) availAt(t float64) (float64, bool) {
	for {
		switch {
		case r.retired:
			return 0, true
		case r.cfg.FailAt > 0 && t >= r.cfg.FailAt:
			return 0, true
		case r.tl != nil && t >= r.tl.deadAt:
			return 0, true
		case t < r.cfg.WarmupDelay:
			if r.cfg.FailAt > 0 && r.cfg.WarmupDelay >= r.cfg.FailAt {
				return 0, true // dead at birth
			}
			if r.tl != nil && r.cfg.WarmupDelay >= r.tl.deadAt {
				return 0, true // crash-dead at birth
			}
			t = r.cfg.WarmupDelay
			continue
		}
		if r.tl != nil {
			if down, until := r.tl.downAt(t); down {
				if math.IsInf(until, 1) {
					return 0, true
				}
				t = until
				continue
			}
		}
		if r.hs != nil {
			if blocked, until := r.hs.blockedAt(t); blocked {
				t = until
				continue
			}
			if r.tl != nil {
				if end := r.tl.fx.StallEnd(t); end > t {
					t = end
					continue
				}
			}
		}
		return t, false
	}
}

// depth moves the log's done index to the first entry estimated to
// finish after t and returns the outstanding count at t. The index moves
// back as well as forward: nextFree looks ahead past the dispatch clock,
// and a crash inside that look-ahead pulls the clock back, so a query
// can come earlier than the last one.
func (r *replica) depth(t float64) int {
	for r.done > 0 && r.est[r.done-1].finish > t {
		r.done--
	}
	for r.done < len(r.est) && r.est[r.done].finish <= t {
		r.done++
	}
	return r.outstanding()
}

// outstanding is the count of logged dispatches not yet estimated done
// as of the latest depth query.
func (r *replica) outstanding() int { return len(r.est) - r.done }

// take logs the dispatch of tr, which arrived at tr.Arrival, at time t.
// The engine sees the dispatch time as the arrival; the shared-queue
// wait rides in the log and is re-added to the latency after the drain.
func (r *replica) take(tr engine.TimedRequest, t float64) {
	finish := math.Max(r.estFreeAt, t) + r.estService(tr)
	r.estFreeAt = finish
	if r.assigned == nil {
		// Seed the log at a 64-request floor so short runs skip the early
		// append-growth doublings.
		r.assigned = make([]engine.TimedRequest, 0, 64)
		r.est = make([]estimate, 0, 64)
	}
	wait := t - tr.Arrival
	tr.Arrival = t
	r.assigned = append(r.assigned, tr)
	r.est = append(r.est, estimate{finish: finish, wait: wait})
	if r.pendingWipe {
		if r.tl.fx.CrashWipes == nil {
			r.tl.fx.CrashWipes = make(map[string]bool)
		}
		r.tl.fx.CrashWipes[tr.ID] = r.tl.keepHost
		r.pendingWipe = false
	}
	if r.hs != nil {
		r.hs.noteTake(t, finish)
	}
}

// Serve routes the open-loop stream across the fleet and executes every
// replica's sub-stream. Requests must not predate t=0; the input slice
// is not modified. It is a thin collector over ServeSource.
func Serve(cfg Config, reqs []engine.TimedRequest) (Metrics, error) {
	stream := make([]engine.TimedRequest, len(reqs))
	copy(stream, reqs)
	sort.SliceStable(stream, func(i, j int) bool { return stream[i].Arrival < stream[j].Arrival })
	return ServeSource(cfg, engine.NewSliceSource(stream))
}

// ServeSource routes a pull-based stream (non-decreasing Arrival order,
// not predating t=0) across the fleet: the ingress consumes the source
// lazily as the dispatch clock reaches each arrival, so live memory
// scales with the waiting set plus the routed-but-undrained sub-streams,
// not the stream length.
func ServeSource(cfg Config, src engine.Source) (Metrics, error) {
	if len(cfg.Replicas) == 0 {
		return Metrics{}, fmt.Errorf("fleet: no replicas configured")
	}
	// The fleet tracer registers the shared ingress and faults tracks
	// before the replica constructors register theirs, fixing the export
	// layout; nil when tracing is off.
	ft := newFleetTracer(cfg.Trace)
	router := &router{
		replicas: make([]*replica, len(cfg.Replicas)), policy: cfg.Policy,
		tiered: cfg.HostTierBlocks > 0, tmpl: cfg.engineTemplate(), trace: cfg.Trace,
	}
	for i, rc := range cfg.Replicas {
		r, err := newReplica(rc.withDefaults(i), router.tmpl, router.trace)
		if err != nil {
			return Metrics{}, err
		}
		router.replicas[i] = r
	}
	as, err := newAutoscaler(cfg.Autoscale, len(router.replicas))
	if err != nil {
		return Metrics{}, err
	}

	stream := engine.NewPeekable(src)
	if tr, ok := stream.Peek(); ok && tr.Arrival < 0 {
		return Metrics{}, fmt.Errorf("fleet: request %q arrives at negative time %.3f", tr.ID, tr.Arrival)
	}

	var out Metrics
	out.Policy = cfg.Policy
	crashes, err := compileFaults(cfg, router.replicas)
	if err != nil {
		return Metrics{}, err
	}
	if ft != nil {
		ft.faultWindows(router.replicas)
	}
	cx := &chaos{ro: router, health: cfg.Health, events: crashes, out: &out, ft: ft}
	if cfg.Retry != nil {
		if err := cfg.Retry.validate(); err != nil {
			return Metrics{}, err
		}
		p := cfg.Retry.withDefaults()
		cx.retry = &p
	}
	if cfg.Health != nil {
		h := cfg.Health.withDefaults()
		if err := h.validate(); err != nil {
			return Metrics{}, err
		}
		for _, r := range router.replicas {
			r.hs = &healthState{cfg: h}
		}
	}
	if err := dispatch(router, as, cx, ft, cfg.Admission, stream, &out); err != nil {
		return out, err
	}
	replicas := router.replicas // the autoscaler may have grown the pool
	// Fold each surviving dispatch's shared-queue wait back into its
	// end-to-end latency after the drain. One map serves the whole run —
	// request IDs are unique across replicas — and it stays nil while the
	// fleet keeps up.
	var delays map[string]float64
	for _, r := range replicas {
		for i, e := range r.est {
			if e.wait > 0 {
				if delays == nil {
					delays = make(map[string]float64)
				}
				delays[r.assigned[i].ID] = e.wait
			}
		}
	}

	discipline := cfg.Admission.localDiscipline(cfg.Policy)
	busy := make([]float64, 0, len(replicas))
	// The replicas' sub-streams are independent once routed, so their
	// drain phases simulate concurrently; results are folded back in
	// replica order, keeping the output deterministic at any parallelism.
	type drained struct {
		sm  engine.ServeMetrics
		err error
	}
	results := make([]drained, len(replicas))
	var wg sync.WaitGroup
	for i, r := range replicas {
		wg.Add(1)
		go func(i int, r *replica) {
			defer wg.Done()
			// The sub-stream is already in dispatch order (the dispatch
			// clock is monotone), so it feeds the engine directly — no
			// copy, no re-sort.
			r.src.Reset(r.assigned)
			sm, err := r.eng.ServeSource(&r.src,
				r.cfg.MaxBatch, discipline,
				engine.ServeOpts{SizeHint: len(r.assigned), Faults: r.injection()})
			results[i] = drained{sm: sm, err: err}
		}(i, r)
	}
	wg.Wait()
	total := 0
	for i := range results {
		total += results[i].sm.Served
	}
	latencies := make([]float64, 0, total)
	for i, r := range replicas {
		sm, err := results[i].sm, results[i].err
		if err != nil {
			return out, fmt.Errorf("fleet: replica %s: %w", r.cfg.Name, err)
		}
		// Fold the global-queue wait back into end-to-end latency.
		// Requests and Latencies are parallel slices in completion order.
		if len(delays) > 0 {
			for j := range sm.Requests {
				if d := delays[sm.Requests[j].ID]; d > 0 {
					sm.Requests[j].QueueTime += d
					sm.Latencies[j] += d
				}
			}
			if len(sm.Latencies) > 0 {
				sm.MeanLatency = stats.Mean(sm.Latencies)
				sm.P50Latency, sm.P95Latency, sm.P99Latency = stats.Percentiles3(sm.Latencies)
			}
		}
		rm := ReplicaMetrics{
			Name:          r.cfg.Name,
			Device:        r.cfg.Device.Name,
			Model:         string(r.cfg.Spec.ID),
			Assigned:      len(r.assigned),
			ServeMetrics:  sm,
			Crashes:       r.crashes,
			ProvisionedAt: r.provisionedAt,
			RetiredAt:     r.retiredAt,
		}
		for _, m := range sm.Requests {
			rm.BusyTime += m.TotalTime()
		}
		out.Replicas = append(out.Replicas, rm)
		out.Served += sm.Served
		out.Events += sm.Events
		out.DeadlinesMet += sm.DeadlinesMet
		out.DeadlinesTotal += sm.DeadlinesTotal
		out.TotalEnergy += sm.TotalEnergy
		out.PrefixLookups += sm.PrefixLookups
		out.PrefixHits += sm.PrefixHits
		out.PrefixLookupTokens += sm.PrefixLookupTokens
		out.SavedPrefillTokens += sm.SavedPrefillTokens
		out.HostHits += sm.HostHits
		out.RestoreSeconds += sm.RestoreSeconds
		pm := r.eng.PrefixMetrics()
		out.TierDemotions += pm.Demotions
		out.TierPromotions += pm.Promotions
		if r.eng.Clock() > out.WallTime {
			out.WallTime = r.eng.Clock()
		}
		latencies = append(latencies, sm.Latencies...)
		busy = append(busy, rm.BusyTime)
	}
	if len(latencies) > 0 {
		out.MeanLatency = stats.Mean(latencies)
		out.P50Latency, out.P95Latency, out.P99Latency = stats.Percentiles3(latencies)
	}
	out.Imbalance = imbalance(busy)
	if as != nil {
		foldAutoscale(&out, router, as)
	}
	if ft != nil {
		ft.finalize(&out, len(cfg.Replicas))
	}
	return out, nil
}

// afterTake, when non-nil, observes the router right after each dispatch
// at clock t. Tests set it to check the dispatch logs mid-run.
var afterTake func(ro *router, t float64)

// dispatch routes the arrival-ordered stream through the ingress queue:
// requests are pulled from the source and enter the shared queue as the
// clock passes their arrivals, and whenever a replica can accept work
// the admission discipline picks which waiting request goes next. The
// dispatch clock is monotone — a request is never dispatched before an
// earlier decision's time.
func dispatch(ro *router, as *autoscaler, cx *chaos, ft *fleetTracer, admission Admission, stream *engine.Peekable, out *Metrics) error {
	q := &ingress{discipline: admission}
	drop := func(tr engine.TimedRequest) {
		out.Dropped++
		if tr.Deadline > 0 {
			out.DeadlinesTotal++
		}
	}
	shed := func(tr engine.TimedRequest) {
		out.Shed++
		drop(tr)
	}
	// admitUntil moves every stream request arriving at or before t into
	// the shared queue, counting it as offered — and, under fault
	// injection, re-admits crash-aborted requests whose retry time has
	// come (already offered on first arrival, so not re-counted).
	admitUntil := func(t float64) {
		for {
			tr, ok := stream.Peek()
			if !ok || tr.Arrival > t {
				break
			}
			stream.Next()
			out.Offered++
			q.push(tr)
		}
		for {
			tr, ok := cx.popRetryUntil(t)
			if !ok {
				break
			}
			q.push(tr)
		}
	}

	now := 0.0
	for {
		if !(stream.More() || q.len() > 0 || cx.retryPending()) {
			// Nothing left to dispatch. Remaining crash events can still
			// abort already-routed work: processing them may refill the
			// retry queue (looping us back) or drop the aborts for good.
			if !cx.crashPending() {
				break
			}
			if at, _ := cx.nextCrashAt(); at > now {
				now = at
			}
			cx.processUpTo(now)
			continue
		}
		if q.len() == 0 {
			next := math.Inf(1)
			if tr, ok := stream.Peek(); ok {
				next = tr.Arrival
			}
			if at, ok := cx.nextRetryAt(); ok && at < next {
				next = at
			}
			// Never advance past an unprocessed crash: its aborts may spawn
			// retries due before the next arrival.
			if at, ok := cx.nextCrashAt(); ok && at < next {
				next = at
			}
			if next > now {
				now = next
			}
		}
		cx.processUpTo(now)
		admitUntil(now)
		if ft != nil {
			ft.sampleQueue(now, q.len())
		}
		if as != nil {
			if err := as.observe(ro, q, now); err != nil {
				return err
			}
		}
		if q.len() == 0 {
			// The idle advance landed on a crash instant rather than an
			// arrival or retry; the event is processed, nothing is waiting.
			continue
		}
		t, ok := ro.nextFree(now)
		if !ok {
			// Permanent outage: every replica is dead for good, with no
			// warm-ups, restarts, or breaker probes pending. An autoscaler
			// below Max revives the pool with an emergency provision
			// (ignoring cooldown); otherwise nothing can, so drop the rest
			// of the stream in O(1) per request instead of rescanning the
			// replicas for each one.
			if as != nil && ro.liveCount(now) < as.cfg.Max {
				if err := as.provision(ro, now, "outage"); err != nil {
					return err
				}
				continue
			}
			// Remaining crash events can only abort work that nothing can
			// re-serve: account them, then drop the retry queue.
			cx.processUpTo(math.Inf(1))
			cx.drainRetries(func(tr engine.TimedRequest) {
				out.AbortedDropped++
				drop(tr)
			})
			q.drain(drop)
			for {
				tr, ok := stream.Next()
				if !ok {
					break
				}
				out.Offered++
				drop(tr)
			}
			return nil
		}
		// A crash between now and the planned dispatch instant invalidates
		// the plan — it may free capacity (aborts), kill the chosen
		// replica, or open a breaker. Process it and re-route; dispatch
		// never crosses an unprocessed crash.
		if at, ok := cx.nextCrashAt(); ok && at <= t {
			cx.processUpTo(at)
			now = at
			continue
		}
		// Arrivals during the capacity wait join the queue before the
		// discipline picks, so a reordering ingress sees everything that
		// is actually waiting at dispatch time.
		admitUntil(t)
		if admission == Shed {
			q.dropLate(t, shed)
			if q.len() == 0 {
				now = t
				continue
			}
		}
		tr := q.take(q.pick())
		if admission == Shed && tr.Deadline > 0 && t+ro.bestService(tr, t) > tr.Deadline {
			// Even starting immediately on the fastest replica that could
			// take it, the batch-1 service time alone overruns the
			// deadline — a certain miss. Shed it and keep the capacity
			// for work that can still make it, before the routing policy
			// mutates any state for a request that never dispatches. (The
			// serial backlog horizon is deliberately not consulted: it
			// overestimates completion under batched decode and would
			// shed feasible work.)
			shed(tr)
			now = t
			continue
		}
		ro.chooseAt(tr, t).take(tr, t)
		if afterTake != nil {
			afterTake(ro, t)
		}
		if ft != nil {
			ft.dispatched(tr, t)
			ft.sampleQueue(t, q.len())
		}
		now = t
	}
	return nil
}

// foldAutoscale finalizes the elastic-pool accounting: retire remaining
// idle replicas for billing purposes, then fold the event log and
// replica-seconds into the metrics.
func foldAutoscale(out *Metrics, ro *router, as *autoscaler) {
	as.retireIdle(ro, math.Inf(1))
	out.ScaleEvents = as.events
	out.PeakReplicas = as.peak
	for _, ev := range as.events {
		if ev.Up {
			out.ScaleUps++
		} else {
			out.ScaleDowns++
		}
	}
	for i, r := range ro.replicas {
		end := out.WallTime
		switch {
		case r.retired:
			end = r.retiredAt
		default:
			if r.cfg.FailAt > 0 && r.cfg.FailAt < end {
				end = r.cfg.FailAt
			}
			// A permanent crash ends the replica's bill like a failure.
			if r.tl != nil && r.tl.deadAt < end {
				end = r.tl.deadAt
			}
		}
		if end < r.provisionedAt {
			end = r.provisionedAt
		}
		out.ReplicaSeconds += end - r.provisionedAt
		if r.retired {
			out.Replicas[i].RetiredAt = r.retiredAt
		}
	}
}

// imbalance is the population coefficient of variation.
func imbalance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	mean := stats.Mean(xs)
	if mean <= 0 {
		return 0
	}
	ss := 0.0
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return math.Sqrt(ss/float64(len(xs))) / mean
}

// trimLower normalizes a CLI spelling.
func trimLower(s string) string { return strings.ToLower(strings.TrimSpace(s)) }

// router owns the dispatch-time state shared across requests.
type router struct {
	replicas []*replica
	policy   Policy
	// tiered enables warmth-ranked SessionAffinity pinning (set when the
	// fleet's replicas carry a host-DRAM tier); non-tiered fleets keep
	// the legacy least-pinned behavior bit for bit.
	tiered bool
	// tmpl and trace build every replica the pool gains (newReplica), so
	// autoscaler provisions match the initial engines.
	tmpl   engine.Config
	trace  *telemetry.Trace
	rrNext int
	// sticky maps a session ID to the replica index its turns are pinned
	// to (SessionAffinity only; re-pinned on fallback), and pinned counts
	// sessions per replica so new sessions spread instead of piling onto
	// the lowest index while queues are momentarily empty.
	sticky map[string]int
	pinned []int
	// scratch backs the candidate list between dispatches.
	scratch []int
}

// nextFree returns the earliest time >= t at which some replica can
// accept a dispatch (routable with spare capacity), pruning completed
// work as it scans. ok is false when no replica will ever accept again —
// a permanent outage.
func (ro *router) nextFree(t float64) (float64, bool) {
	for {
		for _, r := range ro.replicas {
			if r.routableAt(t) && r.depth(t) < r.cfg.Capacity {
				return t, true
			}
		}
		// Everyone is full, cold, dead, down, blocked, or retired:
		// advance to the next time a replica could accept — when it next
		// becomes available (warm-up end, crash restart, breaker probe),
		// or, if it is available but at capacity, when its earliest
		// outstanding completion frees a slot (provided it is still
		// available then).
		next := math.Inf(1)
		for _, r := range ro.replicas {
			at, never := r.availAt(t)
			if never {
				continue
			}
			if at > t {
				next = math.Min(next, at)
				continue
			}
			if r.outstanding() > 0 {
				free := r.est[r.done].finish
				if at2, never2 := r.availAt(free); !never2 {
					next = math.Min(next, math.Max(free, at2))
				}
			}
		}
		if math.IsInf(next, 1) {
			return 0, false
		}
		t = next
	}
}

// bestService is the fastest batch-1 service estimate among replicas
// that could take the request at t — the certain-miss lower bound the
// Shed discipline tests against. It mutates nothing but the idempotent
// completed-work pruning in depth.
func (ro *router) bestService(tr engine.TimedRequest, t float64) float64 {
	best := math.Inf(1)
	for _, r := range ro.replicas {
		if r.routableAt(t) && r.depth(t) < r.cfg.Capacity {
			if s := r.estFinishFor(tr, t) - t; s < best {
				best = s
			}
		}
	}
	return best
}

// idleReplicas counts replicas that could start a request immediately —
// routable with an empty backlog — at time t.
func (ro *router) idleReplicas(t float64) int {
	n := 0
	for _, r := range ro.replicas {
		if r.routableAt(t) && r.depth(t) == 0 {
			n++
		}
	}
	return n
}

// chooseAt applies the routing policy at time t, when at least one
// replica is known to have capacity (nextFree said so).
func (ro *router) chooseAt(tr engine.TimedRequest, t float64) *replica {
	ro.scratch = ro.scratch[:0]
	for i, r := range ro.replicas {
		if r.routableAt(t) && r.depth(t) < r.cfg.Capacity {
			ro.scratch = append(ro.scratch, i)
		}
	}
	return ro.replicas[ro.choose(ro.scratch, tr, t)]
}

// purge drops sticky-session pins to a replica leaving the pool, so the
// session map cannot accumulate entries for replicas the autoscaler has
// retired. Displaced sessions re-pin on their next turn.
func (ro *router) purge(idx int) {
	if ro.sticky == nil {
		return
	}
	for sid, p := range ro.sticky {
		if p == idx {
			delete(ro.sticky, sid)
		}
	}
	if idx < len(ro.pinned) {
		ro.pinned[idx] = 0
	}
}

// choose applies the routing policy over the candidate indices (which
// are always non-empty and sorted ascending).
func (ro *router) choose(candidates []int, tr engine.TimedRequest, t float64) int {
	switch ro.policy {
	case LeastQueue:
		return leastQueued(ro.replicas, candidates)
	case SessionAffinity:
		// A session's turns chase their prefix KV: stay on the pinned
		// replica while it can take the request. A new (or displaced)
		// session pins to the replica carrying the fewest sessions —
		// least-connections, so concurrent sessions spread even while
		// queues are momentarily empty — with queue depth breaking ties.
		// When the pinned replica is saturated, cold, or failed, the turn
		// falls back the same way and re-pins; the history is rebuilt on
		// the new replica at that turn's cold prefill.
		if tr.SessionID != "" {
			if p, ok := ro.sticky[tr.SessionID]; ok {
				for _, c := range candidates {
					if c == p {
						return p
					}
				}
				ro.pinned[p]--
			}
		}
		if tr.SessionID == "" {
			return leastQueued(ro.replicas, candidates)
		}
		if ro.sticky == nil {
			ro.sticky = make(map[string]int)
		}
		// The autoscaler can have grown the pool since the last pin.
		for len(ro.pinned) < len(ro.replicas) {
			ro.pinned = append(ro.pinned, 0)
		}
		// Tiered fleets rank candidates by where the session's history
		// resides first — a replica still holding the prefix (even demoted
		// to host DRAM) restores it for a restore fee, while a cold one
		// re-prefills everything. Warmth ties (always, when untiered) fall
		// back to least-pinned with queue depth as the final tiebreak.
		best, bestWarm := candidates[0], ro.warmth(candidates[0], tr)
		for _, i := range candidates[1:] {
			w := ro.warmth(i, tr)
			if w > bestWarm ||
				(w == bestWarm && (ro.pinned[i] < ro.pinned[best] ||
					(ro.pinned[i] == ro.pinned[best] && ro.replicas[i].outstanding() < ro.replicas[best].outstanding()))) {
				best, bestWarm = i, w
			}
		}
		ro.sticky[tr.SessionID] = best
		ro.pinned[best]++
		return best
	case LatencyWeighted:
		// Smooth weighted round-robin (nginx-style): deterministic and
		// proportional to replica speed over any window.
		total := 0.0
		for _, i := range candidates {
			w := ro.replicas[i].speed()
			ro.replicas[i].wrrCredit += w
			total += w
		}
		best := candidates[0]
		for _, i := range candidates[1:] {
			if ro.replicas[i].wrrCredit > ro.replicas[best].wrrCredit {
				best = i
			}
		}
		ro.replicas[best].wrrCredit -= total
		return best
	case DeadlineAware:
		// Earliest estimated completion: the replica most likely to get
		// the request in under its deadline.
		best, bestFinish := candidates[0], math.Inf(1)
		for _, i := range candidates {
			r := ro.replicas[i]
			est := r.estFinishFor(tr, math.Max(r.estFreeAt, t))
			if est < bestFinish {
				best, bestFinish = i, est
			}
		}
		return best
	default: // RoundRobin
		n := len(ro.replicas)
		for off := 0; off < n; off++ {
			i := (ro.rrNext + off) % n
			for _, c := range candidates {
				if c == i {
					ro.rrNext = i + 1
					return i
				}
			}
		}
		return candidates[0] // unreachable: candidates is non-empty
	}
}

// warmth ranks a replica for a session turn by where the turn's prefix
// history resides: 2 when its leading blocks sit in the replica's
// device cache, 1 when only in its host tier (restorable for a fee),
// 0 when cold. Untiered fleets always report cold, so legacy routing
// is untouched.
func (ro *router) warmth(i int, tr engine.TimedRequest) int {
	if !ro.tiered || len(tr.PromptSyms) == 0 {
		return 0
	}
	dev, host := ro.replicas[i].eng.PeekPrefix(tr.PromptSyms)
	switch {
	case dev > 0:
		return 2
	case host > 0:
		return 1
	}
	return 0
}

// leastQueued picks the candidate with the fewest outstanding requests,
// breaking ties by index.
func leastQueued(replicas []*replica, candidates []int) int {
	best := candidates[0]
	for _, i := range candidates[1:] {
		if replicas[i].outstanding() < replicas[best].outstanding() {
			best = i
		}
	}
	return best
}
