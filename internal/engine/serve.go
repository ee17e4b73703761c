package engine

import (
	"fmt"
	"math"
	"sort"

	"edgereasoning/internal/stats"
	"edgereasoning/internal/telemetry"
)

// TimedRequest is a request with an arrival time and an optional absolute
// deadline, for open-loop serving studies (QPS sweeps, SLA audits).
// Session-grade workloads additionally carry token identities and a
// session tag; plain open-loop streams leave them zero.
type TimedRequest struct {
	Request
	Arrival  float64 // seconds on the simulated clock
	Deadline float64 // absolute seconds; 0 means no deadline
	// SessionID groups the turns of one multi-turn conversation; routing
	// policies with session affinity key on it ("" means sessionless).
	SessionID string
	// PromptSyms are per-token content identities for the prompt (the
	// simulator's stand-in for token IDs). When the engine has a prefix
	// cache and len(PromptSyms) >= PromptTokens, admission matches the
	// longest cached prefix and prefills only the unmatched suffix.
	PromptSyms []uint64
	// OutputSyms identify the generated tokens (the workload generator
	// decides output lengths ahead of execution, so it knows them). They
	// let a finished sequence's full prompt+output history be retained
	// for the session's next turn.
	OutputSyms []uint64
}

// SchedPolicy selects the ready-queue discipline.
type SchedPolicy int

const (
	// FCFS admits in arrival order.
	FCFS SchedPolicy = iota
	// EDF admits earliest-deadline-first (deadline-less requests last).
	EDF
)

// String names the policy.
func (p SchedPolicy) String() string {
	if p == EDF {
		return "EDF"
	}
	return "FCFS"
}

// ServeMetrics extends BatchMetrics with latency percentiles, deadline
// accounting, and prefix-cache accounting over an open-loop run.
type ServeMetrics struct {
	BatchMetrics
	P50Latency     float64
	P95Latency     float64
	P99Latency     float64
	MeanLatency    float64
	DeadlinesMet   int
	DeadlinesTotal int
	// Served counts completed requests. It equals len(Latencies) and — in
	// full-metrics mode — len(Requests), but survives LeanMetrics.
	Served int
	// Events counts clock-advancing simulation events (prefills and
	// decode chunks) — the unit soak throughput is reported in.
	Events int
	// Latencies holds per-request (finish − arrival), in completion order.
	Latencies []float64
	// PrefixLookups counts admissions that consulted the prefix cache;
	// PrefixHits those that matched at least one block;
	// PrefixLookupTokens sums the prompt tokens of consulted admissions.
	// All stay zero without a prefix cache or without PromptSyms on the
	// requests.
	PrefixLookups      int
	PrefixHits         int
	PrefixLookupTokens int
	// SavedPrefillTokens is the prefill work the prefix cache avoided.
	SavedPrefillTokens int
	// HostHits counts admissions whose matched prefix included
	// host-resident blocks (promoted on acquire); RestoreSeconds is the
	// host-link transfer time those promotions charged. Both stay zero
	// without a host tier.
	HostHits       int
	RestoreSeconds float64
}

// PrefixHitRate is the token-weighted cache hit rate — saved prefill
// tokens over prompt tokens that consulted the cache (the convention
// vLLM and SGLang report) — or 0 when the cache was never consulted.
func (s ServeMetrics) PrefixHitRate() float64 {
	if s.PrefixLookupTokens == 0 {
		return 0
	}
	return float64(s.SavedPrefillTokens) / float64(s.PrefixLookupTokens)
}

// HitRate returns the fraction of deadline-bearing requests that met
// their deadline (1.0 when none carry deadlines).
func (s ServeMetrics) HitRate() float64 {
	if s.DeadlinesTotal == 0 {
		return 1
	}
	return float64(s.DeadlinesMet) / float64(s.DeadlinesTotal)
}

// ServeOpts tunes a streaming serve run.
type ServeOpts struct {
	// LeanMetrics drops per-request Metrics retention (ServeMetrics.
	// Requests stays nil) so a million-request soak holds O(active)
	// request state; latencies are still recorded for percentiles.
	LeanMetrics bool
	// SizeHint, when positive, pre-sizes the result slices for an
	// expected request count (the slice-API wrapper passes len(reqs)).
	SizeHint int
	// Faults injects replica-level fault behavior into this run: stall
	// windows (the device makes no progress) and thermal-throttle windows
	// (decode time stretched by a factor). Nil serves undisturbed — the
	// default path is byte-identical with the field unset.
	Faults *FaultInjection
}

// FaultInjection is the per-run fault timeline a serving layer hands the
// engine: the engine applies the timing effects (stalls, throttling),
// while crashes reach it through Server.Abort from the driver that owns
// the request stream.
type FaultInjection struct {
	// Stalls are no-progress windows: a prefill or decode event that
	// would start inside [From, To) starts at To instead. Events are
	// atomic — one that starts before a window runs to completion.
	Stalls []StallWindow
	// Throttles stretch decode-chunk time by Factor for chunks starting
	// inside the window — a thermal cap. Energy is unchanged: the same
	// tokens cost the same joules, spread over more seconds.
	Throttles []ThrottleWindow
}

// StallWindow is one no-progress interval [From, To).
type StallWindow struct{ From, To float64 }

// ThrottleWindow is one decode-slowdown interval [From, To) with its
// time multiplier (>= 1).
type ThrottleWindow struct {
	From, To float64
	Factor   float64
}

// StallEnd returns when work that would start at t can actually begin:
// past every stall window containing it (windows may chain or overlap).
//
//edgereasoning:hotpath bench=BenchmarkServeHotLoop
func (f *FaultInjection) StallEnd(t float64) float64 {
	for changed := true; changed; {
		changed = false
		for _, w := range f.Stalls {
			if t >= w.From && t < w.To {
				t = w.To
				changed = true
			}
		}
	}
	return t
}

// ThrottleAt returns the decode-time multiplier at t (1 outside all
// windows; overlapping windows compound).
//
//edgereasoning:hotpath bench=BenchmarkServeHotLoop
func (f *FaultInjection) ThrottleAt(t float64) float64 {
	m := 1.0
	for _, w := range f.Throttles {
		if t >= w.From && t < w.To && w.Factor > 1 {
			m *= w.Factor
		}
	}
	return m
}

// queued is a ready-queue entry: the request and the instant it became
// visible to the engine (its arrival under ServeSource, its dispatch
// under a router). pre is its cold prefill time, priced by the first
// Predict that walks past it (0 until then).
type queued struct {
	TimedRequest
	at, pre float64
}

// readyQueue is the admission queue: head-indexed so popping the front is
// O(1) without reslicing-away reusable capacity, compacted amortizedly so
// the dead prefix never exceeds the live region. Popped slots are zeroed
// so a drained queue pins no request payloads (PromptSyms histories are
// the bulk of a session stream's bytes).
type readyQueue struct {
	buf  []queued
	head int
}

func (q *readyQueue) len() int      { return len(q.buf) - q.head }
func (q *readyQueue) front() queued { return q.buf[q.head] }

//edgereasoning:hotpath bench=BenchmarkServeHotLoop
func (q *readyQueue) pushBack(r queued) {
	q.reserve()
	q.buf = append(q.buf, r)
}

// reserve seeds the backing array at a 16-slot floor on first use so a
// short backlog never pays the early append-growth doublings.
//
//edgereasoning:hotpath bench=BenchmarkServeHotLoop
func (q *readyQueue) reserve() {
	if q.buf == nil {
		q.buf = make([]queued, 0, 16) //edgereasoning:allow hotpath -- one-time 16-slot floor, paid once per queue
	}
}

//edgereasoning:hotpath bench=BenchmarkServeHotLoop
func (q *readyQueue) popFront() {
	q.buf[q.head] = queued{}
	q.head++
	if q.head >= 64 && q.head*2 >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf = q.buf[:n]
		q.head = 0
	}
}

// edfKey orders deadlines with 0 (none) last.
//
//edgereasoning:hotpath bench=BenchmarkServeHotLoop
func edfKey(d float64) float64 {
	if d == 0 {
		return math.Inf(1)
	}
	return d
}

// insertEDF places r at its earliest-deadline-first position, after any
// queued request with an equal key — element-for-element what a stable
// sort of the whole queue produces, without re-sorting the sorted part.
//
//edgereasoning:hotpath bench=BenchmarkServeHotLoop
func (q *readyQueue) insertEDF(r queued) {
	key := edfKey(r.Deadline)
	q.reserve()
	q.buf = append(q.buf, r)
	j := len(q.buf) - 1
	for j > q.head && edfKey(q.buf[j-1].Deadline) > key {
		q.buf[j] = q.buf[j-1]
		j--
	}
	q.buf[j] = r
}

// Serve executes an open-loop workload: requests become visible at their
// arrival times, are admitted per the scheduling policy up to maxBatch
// concurrent decoders, and complete under continuous batching. The engine
// clock must be at or before the earliest arrival. It sorts a copy of
// reqs by arrival and hands it to ServeSource.
func (e *Engine) Serve(reqs []TimedRequest, maxBatch int, policy SchedPolicy) (ServeMetrics, error) {
	pending := make([]TimedRequest, len(reqs))
	copy(pending, reqs)
	sort.SliceStable(pending, func(i, j int) bool { return pending[i].Arrival < pending[j].Arrival })
	return e.ServeSource(NewSliceSource(pending), maxBatch, policy, ServeOpts{SizeHint: len(reqs)})
}

// admitGrain caps a decode chunk, in steps, whenever a request is pending
// (queued, or more input may still be pushed). It bounds admission
// latency: the loop reconsiders admission at most admitGrain decode steps
// after a request arrives. The cap also applies at full batch, where it
// admits nothing; it stays there because dropping it would move every
// batched latency.
const admitGrain = 16

// ServeSource serves one stream: requests are pulled from src
// (non-decreasing Arrival order) as simulated time reaches them and
// pushed into a Server, so live memory scales with the in-flight set —
// ready backlog plus maxBatch active decoders — not the stream length.
func (e *Engine) ServeSource(src Source, maxBatch int, policy SchedPolicy, opts ServeOpts) (ServeMetrics, error) {
	s := e.Start(maxBatch, policy, opts)
	for first := true; ; first = false {
		tr, ok := src.Next()
		if !ok {
			break
		}
		if first && e.clock > tr.Arrival {
			return ServeMetrics{}, fmt.Errorf("engine: clock %.3f already past first arrival %.3f", e.clock, tr.Arrival)
		}
		if err := s.AdvanceTo(tr.Arrival); err != nil {
			return s.out, err
		}
		s.Push(tr)
	}
	return s.Finish()
}

// Server is one serve run in progress: the engine's single admission/
// decode loop as a stepping API. A driver pushes requests as they become
// visible (Push), moves the clock to the instants it cares about
// (AdvanceTo), may ask when a request would finish (Predict), and may
// crash the work in flight (Abort); Finish runs the rest to completion.
// ServeSource drives one Server over one stream; the fleet router drives
// one per replica, all on one clock.
//
// Events — a prefill, or a decode chunk — are atomic: AdvanceTo(t) runs
// every event that starts before t, so the clock may pass t by part of
// one event, and a request pushed meanwhile is seen when that event ends.
// Per-run bookkeeping (sequence arena, ready queue, decode scratch) is
// sized by maxBatch and recycled, keeping the steady-state loop
// allocation-free. Prefill is unbatched (the paper's configuration);
// decode advances in closed-form chunks between events, each chunk's
// energy shared equally by its active sequences.
type Server struct {
	e        *Engine
	maxBatch int
	policy   SchedPolicy
	lean     bool
	fx       *FaultInjection
	// Tracing is resolved once per run; every producer site guards on
	// tra, so a nil tracer pays one pointer compare and the run's timing
	// and metrics stay byte-identical with tracing off.
	tra                         telemetry.Tracer
	kvGauge, actGauge, powGauge *telemetry.Series
	ttftHist, rateHist          *stats.Histogram

	ready  readyQueue
	active []*activeSeq
	// done holds the sequences the latest event completed. They are
	// recorded once the clock moves on from that event's end, so a crash
	// landing inside the event can still abort them.
	done []*activeSeq
	// Arena of sequence bookkeeping: maxBatch slots recycled through a
	// free list cover any stream length; slot pointers stay stable.
	arena     []activeSeq
	freeSlots []int
	// futureGrowth is the worst-case block demand of the active set's
	// remaining decode, kept incrementally. Admission reserves against it
	// so a request never exhausts the cache mid-decode (the simulator's
	// stand-in for vLLM's preemption machinery).
	futureGrowth int
	ctxs         []int // scratch, reused every decode event and by Predict
	pctx, prem   []int // Predict's scratch: modeled contexts and remaining tokens
	out          ServeMetrics
	start        float64
	// now is the latest instant the driver advanced to — when a push
	// becomes visible. open reports that more pushes may come; while it
	// holds, decode chunks stop at the admission grain.
	now  float64
	open bool
	// The latest event: its work start (after any stall), its end, its
	// energy, and for a prefill its one sequence (nil for a decode chunk,
	// which runs every in-flight sequence). Abort cuts it at a crash.
	evFrom, evEnd, evEnergy float64
	evSeq                   *activeSeq
	err                     error
}

// Start opens a serve run at the engine's clock. maxBatch bounds
// concurrent decoders; policy orders the ready queue.
func (e *Engine) Start(maxBatch int, policy SchedPolicy, opts ServeOpts) *Server {
	if maxBatch <= 0 {
		maxBatch = 1
	}
	// active and done share one allocation, as do freeSlots, ctxs, pctx
	// and prem: none ever holds more than maxBatch sequences.
	seqs := make([]*activeSeq, 2*maxBatch)
	ints := make([]int, 4*maxBatch)
	s := &Server{
		e: e, maxBatch: maxBatch, policy: policy, lean: opts.LeanMetrics, fx: opts.Faults,
		tra:       e.cfg.Trace,
		active:    seqs[:0:maxBatch],
		done:      seqs[maxBatch:maxBatch],
		arena:     make([]activeSeq, maxBatch),
		freeSlots: ints[:maxBatch:maxBatch],
		ctxs:      ints[maxBatch : maxBatch : 2*maxBatch],
		pctx:      ints[2*maxBatch : 2*maxBatch : 3*maxBatch],
		prem:      ints[3*maxBatch : 3*maxBatch : 4*maxBatch],
		start:     e.clock, now: e.clock, evFrom: e.clock, evEnd: e.clock, open: true,
	}
	for i := range s.freeSlots {
		s.freeSlots[i] = maxBatch - 1 - i
	}
	if !opts.LeanMetrics {
		s.out.Requests = make([]Metrics, 0, opts.SizeHint)
	}
	s.out.Latencies = make([]float64, 0, opts.SizeHint)
	if tra := s.tra; tra != nil {
		s.kvGauge = tra.Gauge("kv_used_blocks")
		s.actGauge = tra.Gauge("active_requests")
		s.powGauge = tra.Gauge("power_watts")
		s.ttftHist = tra.Histogram("ttft_seconds", telemetry.TTFTBuckets)
		s.rateHist = tra.Histogram("decode_tokens_per_sec", telemetry.DecodeRateBuckets)
	}
	return s
}

// Push makes tr visible to the engine at the latest AdvanceTo instant.
// Its latency runs from tr.Arrival, which may precede that instant (time
// spent waiting upstream of the engine).
func (s *Server) Push(tr TimedRequest) {
	if s.policy == EDF {
		s.ready.insertEDF(queued{TimedRequest: tr, at: s.now})
	} else {
		s.ready.pushBack(queued{TimedRequest: tr, at: s.now})
	}
}

// AdvanceTo runs every event that starts before t (within 1e-12) and
// records the completions reached by t; an idle engine's clock jumps to
// t. The first error sticks: later calls return it without running.
func (s *Server) AdvanceTo(t float64) error {
	for s.err == nil && s.e.clock+1e-12 < t {
		if !s.Step() && s.err == nil {
			s.e.clock = t
		}
	}
	s.now = math.Max(s.now, t)
	if s.e.clock <= t {
		s.commit()
	}
	return s.err
}

// OutstandingAt counts the requests the engine holds and has not
// completed by t — ready queue plus active batch — where t is at or after
// the start of its latest event.
func (s *Server) OutstandingAt(t float64) int {
	n := s.ready.len() + len(s.active)
	if s.e.clock > t {
		n += len(s.done)
	}
	return n
}

// Predict returns a lower bound on the instant tr would finish if pushed
// at t, from the engine's real state. Work starts after the event in
// flight and past any stall window. The ready-queue entries the local
// discipline admits before tr (FCFS: all of them; EDF: those whose
// deadline key is at or below tr's) are prefilled one at a time, each as
// a decode slot frees, and a slot frees only when a sequence completes.
// Every prefill and decode is priced at batch 1 by the engine's own
// kernel model — a lockstep decode at its largest context — with no
// throttle stretch.
//
// The bound holds on runs without crashes (Abort) and without
// prefix-cache hits (PrefixCache off, or requests without PromptSyms),
// whatever the discipline, MaxBatch, load, stall and throttle windows or
// KV pressure: batching, throttles, later stalls, KV-pressure deferrals
// and requests pushed after t only delay tr (TestPredictBoundsRealisedFinish
// checks each). A prefix hit shortens a prefill, so with hits the result
// is an estimate, not a bound.
//
//edgereasoning:hotpath bench=BenchmarkAutoscaleServe
func (s *Server) Predict(tr TimedRequest, t float64) float64 {
	e := s.e
	at := math.Max(t, e.clock)
	if s.fx != nil {
		at = s.fx.StallEnd(at)
	}
	ctx, rem := s.pctx[:0], s.prem[:0]
	for _, a := range s.active {
		ctx = append(ctx, a.ctx)
		rem = append(rem, a.remaining)
	}
	key := edfKey(tr.Deadline)
	for i := s.ready.head; i < len(s.ready.buf); i++ {
		q := &s.ready.buf[i]
		if s.policy == EDF && edfKey(q.Deadline) > key {
			break
		}
		if len(ctx) == s.maxBatch {
			at, ctx, rem = s.predictFree(at, ctx, rem)
		}
		if q.pre == 0 {
			q.pre = e.prefill(q.PromptTokens).Time
		}
		at += q.pre
		ctx = append(ctx, q.PromptTokens)
		rem = append(rem, q.OutputTokens)
	}
	if len(ctx) == s.maxBatch {
		at, _, _ = s.predictFree(at, ctx, rem)
	}
	s.ctxs = append(s.ctxs[:0], tr.PromptTokens)
	return at + e.prefill(tr.PromptTokens).Time + e.decodeChunk(s.ctxs, tr.OutputTokens).Time
}

// predictFree advances Predict's active set, given as parallel context
// and remaining-token slices, to its earliest completion: every sequence
// decodes in lockstep, priced at batch 1 and the largest context. It
// returns the instant and the sequences still running.
//
//edgereasoning:hotpath bench=BenchmarkAutoscaleServe
func (s *Server) predictFree(at float64, ctx, rem []int) (float64, []int, []int) {
	m, c := rem[0], ctx[0]
	for i := range rem {
		m, c = min(m, rem[i]), max(c, ctx[i])
	}
	s.ctxs = append(s.ctxs[:0], c)
	at += s.e.decodeChunk(s.ctxs, m).Time
	kept := 0
	for i := range rem {
		if rem[i] > m {
			ctx[kept], rem[kept] = ctx[i]+m, rem[i]-m
			kept++
		}
	}
	return at, ctx[:kept], rem[:kept]
}

// Served counts the requests recorded as completed so far.
func (s *Server) Served() int { return s.out.Served }

// IdleSince is the end of the latest event — when an engine with nothing
// outstanding went idle.
func (s *Server) IdleSince() float64 { return s.evEnd }

// Aborted is a request a crash destroyed: the attempt became visible to
// the engine at Since and had received Device seconds of device time.
type Aborted struct {
	TimedRequest
	Since, Device float64
}

// Abort crashes the run at x; the caller has advanced it to x. Every
// request not completed by x — queued, mid-prefill or mid-decode — is
// dropped with its KV blocks, and the device prefix cache is wiped
// (keepHost preserves the host tier). An event still running at x is cut
// there: its unexecuted part is charged neither as device time nor as
// energy. In-flight requests come back in admission order, then the
// ready queue in its order.
func (s *Server) Abort(x float64, keepHost bool) []Aborted {
	e := s.e
	cut := 0.0
	if e.clock > x {
		cut = e.clock - math.Max(x, s.evFrom)
		if w := e.clock - s.evFrom; w > 0 {
			s.out.TotalEnergy -= s.evEnergy * cut / w
		}
	} else {
		s.commit()
	}
	inflight := append(s.done, s.active...)
	sort.SliceStable(inflight, func(i, j int) bool { return inflight[i].admitAt < inflight[j].admitAt })
	lost := make([]Aborted, 0, len(inflight)+s.ready.len())
	for _, a := range inflight {
		dev := a.metrics.TotalTime()
		if s.evSeq == nil || s.evSeq == a {
			dev -= cut
		}
		if err := e.cache.FreeH(a.handle); err != nil && s.err == nil {
			s.err = err
		}
		lost = append(lost, Aborted{a.tr, a.since, dev})
		s.freeSlots = append(s.freeSlots, a.slot)
		*a = activeSeq{}
	}
	for _, q := range s.ready.buf[s.ready.head:] {
		lost = append(lost, Aborted{TimedRequest: q.TimedRequest, Since: q.at})
	}
	clear(s.ready.buf)
	s.ready.buf, s.ready.head = s.ready.buf[:0], 0
	clear(inflight)
	clear(s.active)
	s.active, s.done = s.active[:0], s.done[:0]
	s.futureGrowth = 0
	if e.prefix != nil {
		e.prefix.CrashReset(keepHost)
	}
	s.evSeq, s.evFrom, s.evEnd, s.evEnergy = nil, e.clock, e.clock, 0
	return lost
}

// Finish closes the input, runs the remaining work to completion, and
// returns the run's metrics.
func (s *Server) Finish() (ServeMetrics, error) {
	s.open = false
	for s.Step() {
	}
	if s.err != nil {
		return s.out, s.err
	}
	out := s.out
	out.WallTime = s.evEnd - s.start
	out.PeakKVBlocks = s.e.cache.PeakUsed()
	if len(out.Latencies) > 0 {
		out.MeanLatency = stats.Mean(out.Latencies)
		out.P50Latency, out.P95Latency, out.P99Latency = stats.Percentiles3(out.Latencies)
	}
	return out, nil
}

// Step runs one event at the current decision point — after recording
// the completions the previous event reached — and reports false when
// there is nothing to run. An error sticks: AdvanceTo and Finish return
// it.
func (s *Server) Step() bool {
	s.commit()
	if s.err != nil {
		return false
	}
	if s.ready.len() > 0 && len(s.active) < s.maxBatch && s.admit() {
		return true
	}
	if s.err != nil || len(s.active) == 0 {
		return false
	}
	s.decode()
	return s.err == nil
}

// commit records every sequence the latest event completed.
func (s *Server) commit() {
	for i, a := range s.done {
		if s.err == nil {
			s.err = s.finish(a)
		}
		s.done[i] = nil
	}
	s.done = s.done[:0]
}

// finish records one completed sequence and recycles its slot.
func (s *Server) finish(a *activeSeq) error {
	e := s.e
	tr := &a.tr
	if e.prefix != nil && len(tr.PromptSyms) >= tr.PromptTokens {
		// Retain the finished history (prompt + known output identities)
		// for the session's next turn instead of dropping the blocks.
		outSyms := tr.OutputSyms
		if len(outSyms) > tr.OutputTokens {
			outSyms = outSyms[:tr.OutputTokens]
		}
		if err := e.prefix.Release(a.handle, tr.PromptSyms[:tr.PromptTokens], outSyms); err != nil {
			return err
		}
	} else if err := e.cache.FreeH(a.handle); err != nil {
		return err
	}
	lat := e.clock - tr.Arrival
	s.out.Latencies = append(s.out.Latencies, lat)
	s.out.Served++
	if tr.Deadline > 0 {
		s.out.DeadlinesTotal++
		if e.clock <= tr.Deadline {
			s.out.DeadlinesMet++
		}
	}
	if !s.lean {
		a.metrics.QueueTime = lat - a.metrics.TotalTime()
		s.out.Requests = append(s.out.Requests, a.metrics)
	}
	if tra := s.tra; tra != nil {
		tra.Record(telemetry.Span{ID: tr.ID, Kind: telemetry.KindRequest,
			Lane: a.slot, Start: a.admitAt, End: e.clock, Session: tr.SessionID,
			Wait:   a.admitAt - a.since,
			Tokens: tr.PromptTokens + tr.OutputTokens,
			Cached: a.metrics.CachedPromptTokens})
		if a.metrics.DecodeTime > 0 {
			s.rateHist.Observe(float64(tr.OutputTokens) / a.metrics.DecodeTime)
		}
	}
	s.out.TotalTokens += tr.PromptTokens + tr.OutputTokens
	a.tr = TimedRequest{}
	s.freeSlots = append(s.freeSlots, a.slot)
	return nil
}

// admit tries to admit the ready queue's front and runs its prefill,
// reporting false when KV pressure defers it behind the active batch.
func (s *Server) admit() bool {
	e := s.e
	q := s.ready.front()
	tr := q.TimedRequest
	if tr.PromptTokens <= 0 {
		s.err = fmt.Errorf("engine: request %q has no prompt", tr.ID)
		return false
	}
	worstCase := e.blocksFor(tr.PromptTokens + tr.OutputTokens)
	// With a prefix cache, retained blocks are reclaimable capacity. Probe
	// first — touching the matched chain makes it MRU, so eviction spares
	// it — then evict cold prefixes until the unmatched demand fits. Under
	// extreme pressure eviction can still trim the probed chain itself
	// (growing the demand), so re-probe and repeat until the demand fits
	// or nothing is left to evict; the final probe is exactly what Acquire
	// finds.
	var syms []uint64
	probedBlocks := 0
	if e.prefix != nil {
		if len(tr.PromptSyms) >= tr.PromptTokens {
			syms = tr.PromptSyms[:tr.PromptTokens]
			probedBlocks = e.prefix.Probe(syms)
		}
		for worstCase-probedBlocks+s.futureGrowth > e.cache.FreeBlocks() {
			// Progress is measured in reclaimed capacity, not eviction
			// counts: EnsureFree stops on a zero-reclaim round (shared
			// leaves), and with a host tier demotions free blocks without
			// bumping Evictions at all.
			before := e.cache.FreeBlocks()
			e.prefix.EnsureFree(worstCase - probedBlocks + s.futureGrowth)
			if e.cache.FreeBlocks() == before {
				break
			}
			if syms != nil {
				probedBlocks = e.prefix.Probe(syms)
			}
		}
	}
	if worstCase-probedBlocks+s.futureGrowth > e.cache.FreeBlocks() {
		if len(s.active) == 0 {
			s.err = fmt.Errorf("engine: request %q exceeds KV capacity even alone", tr.ID)
		}
		return false
	}
	s.ready.popFront()
	matched := 0
	restore := 0.0
	if syms != nil {
		restoreBefore := e.prefix.Metrics().RestoreSeconds
		m, err := e.prefix.Acquire(tr.ID, syms)
		if err != nil {
			s.err = err
			return false
		}
		matched = m
		s.out.PrefixLookups++
		s.out.PrefixLookupTokens += tr.PromptTokens
		if matched > 0 {
			s.out.PrefixHits++
			s.out.SavedPrefillTokens += matched
		}
		// A matched chain segment that had been demoted to host DRAM was
		// just promoted back; its transfer time lands on this request's
		// clock, ahead of prefill (part of TTFT).
		if restore = e.prefix.Metrics().RestoreSeconds - restoreBefore; restore > 0 {
			s.out.HostHits++
			s.out.RestoreSeconds += restore
		}
	} else if err := e.cache.AllocateReserve(tr.ID, tr.PromptTokens,
		tr.PromptTokens+tr.OutputTokens); err != nil {
		s.err = err
		return false
	}
	slot := s.freeSlots[len(s.freeSlots)-1]
	s.freeSlots = s.freeSlots[:len(s.freeSlots)-1]
	a := &s.arena[slot]
	*a = activeSeq{tr: tr, ctx: tr.PromptTokens, remaining: tr.OutputTokens,
		residency: e.meter.Residency(tr.OutputTokens), slot: slot,
		since: q.at, admitAt: e.clock}
	h, err := e.cache.Lookup(tr.ID)
	if err == nil {
		a.handle = h
		err = e.cache.ReserveH(h, tr.PromptTokens+tr.OutputTokens)
	}
	if err == nil && syms != nil {
		// Acquire seeded only the matched blocks; append the suffix the
		// prefill below computes (the whole prompt on a cold start).
		err = e.cache.AppendTokensH(h, tr.PromptTokens-matched)
	}
	if err != nil {
		s.err = err
		return false
	}
	s.futureGrowth += worstCase - e.blocksFor(tr.PromptTokens)
	a.metrics = Metrics{ID: tr.ID, PromptTokens: tr.PromptTokens,
		OutputTokens: tr.OutputTokens, CachedPromptTokens: matched,
		RestoreTime: restore}
	tra := s.tra
	if s.fx != nil {
		// A stalled device starts the restore+prefill at the window's
		// end; the wait lands in this request's TTFT.
		if st := s.fx.StallEnd(e.clock); st > e.clock {
			if tra != nil {
				tra.Record(telemetry.Span{ID: tr.ID, Kind: telemetry.KindStall,
					Lane: slot, Start: e.clock, End: st})
			}
			e.clock = st
		}
	}
	s.evFrom = e.clock
	if tra != nil && restore > 0 {
		tra.Record(telemetry.Span{ID: tr.ID, Kind: telemetry.KindRestore,
			Lane: slot, Start: e.clock, End: e.clock + restore})
	}
	e.clock += restore
	res := e.prefill(tr.PromptTokens - matched)
	if tra != nil {
		tra.Record(telemetry.Span{ID: tr.ID, Kind: telemetry.KindPrefill,
			Lane: slot, Start: e.clock, End: e.clock + res.Time,
			Tokens: tr.PromptTokens - matched, Cached: matched})
		s.ttftHist.Observe(e.clock + res.Time - tr.Arrival)
	}
	e.clock += res.Time
	s.out.Events++
	a.metrics.PrefillTime = res.Time
	a.metrics.PrefillEnergy = e.meter.Energy(res)
	s.out.TotalEnergy += a.metrics.PrefillEnergy
	s.evEnd, s.evEnergy, s.evSeq = e.clock, a.metrics.PrefillEnergy, a
	s.active = append(s.active, a)
	if tra != nil {
		s.kvGauge.Sample(e.clock, float64(e.cache.UsedBlocks()))
		s.actGauge.Sample(e.clock, float64(len(s.active)))
	}
	return true
}

// decode advances the active set to its next event: a completion, or the
// admission grain while anything is pending.
func (s *Server) decode() {
	e := s.e
	chunk := s.active[0].remaining
	for _, a := range s.active {
		if a.remaining < chunk {
			chunk = a.remaining
		}
	}
	if chunk <= 0 {
		s.reap()
		return
	}
	if (s.open || s.ready.len() > 0) && chunk > admitGrain {
		chunk = admitGrain
	}
	s.ctxs = s.ctxs[:0]
	residency := 0.0
	for _, a := range s.active {
		s.ctxs = append(s.ctxs, a.ctx)
		residency += a.residency
	}
	tra := s.tra
	if s.fx != nil {
		// No decode progress inside a stall window.
		if st := s.fx.StallEnd(e.clock); st > e.clock {
			if tra != nil {
				for _, a := range s.active {
					tra.Record(telemetry.Span{ID: a.tr.ID, Kind: telemetry.KindStall,
						Lane: a.slot, Start: e.clock, End: st})
				}
			}
			e.clock = st
		}
	}
	res := e.decodeChunk(s.ctxs, chunk)
	// The chunk runs at the active sequences' mean residency factor, each
	// keyed on its own run length, so splitting a run into more chunks
	// changes neither its time nor its energy.
	energy := e.meter.PowerAt(res, residency/float64(len(s.active))) * res.Time
	throttleF := 1.0
	if s.fx != nil {
		// Thermal throttle: the chunk's tokens take Factor times as long
		// (energy is computed from the unstretched result — the same work,
		// spread over more seconds at lower power).
		if f := s.fx.ThrottleAt(e.clock); f > 1 {
			res.Time *= f
			throttleF = f
		}
	}
	decodeFrom := e.clock
	e.clock += res.Time
	s.out.Events++
	s.out.TotalEnergy += energy
	s.evFrom, s.evEnd, s.evEnergy, s.evSeq = decodeFrom, e.clock, energy, nil
	perSeqEnergy := energy / float64(len(s.active))
	for _, a := range s.active {
		if err := e.cache.AppendTokensH(a.handle, chunk); err != nil {
			s.err = err
			return
		}
		s.futureGrowth -= e.blocksFor(a.ctx+chunk) - e.blocksFor(a.ctx)
		a.ctx += chunk
		a.remaining -= chunk
		a.metrics.DecodeTime += res.Time
		a.metrics.DecodeEnergy += perSeqEnergy
	}
	if tra != nil {
		cause := ""
		if throttleF > 1 {
			cause = "throttle"
		}
		for _, a := range s.active {
			tra.Record(telemetry.Span{ID: a.tr.ID, Kind: telemetry.KindDecode,
				Lane: a.slot, Start: decodeFrom, End: e.clock,
				Tokens: chunk, Cause: cause, Factor: throttleF})
		}
		s.kvGauge.Sample(e.clock, float64(e.cache.UsedBlocks()))
		s.actGauge.Sample(e.clock, float64(len(s.active)))
		if res.Time > 0 {
			s.powGauge.Sample(e.clock, energy/res.Time)
		}
	}
	s.reap()
}
