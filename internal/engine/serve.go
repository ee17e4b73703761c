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
	// windows (the device makes no progress), thermal-throttle windows
	// (decode time stretched by a factor), and crash-boundary prefix
	// wipes keyed by request ID. Nil serves undisturbed — the default
	// path is byte-identical with the field unset.
	Faults *FaultInjection
}

// FaultInjection is the per-run fault timeline a serving layer hands the
// engine: the engine applies the timing effects (stalls, throttling) and
// the crash-boundary cache wipes, while abort/retry decisions stay with
// the dispatcher that owns the request stream.
type FaultInjection struct {
	// Stalls are no-progress windows: a prefill or decode event that
	// would start inside [From, To) starts at To instead. Events are
	// atomic — one that starts before a window runs to completion.
	Stalls []StallWindow
	// Throttles stretch decode-chunk time by Factor for chunks starting
	// inside the window — a thermal cap. Energy is unchanged: the same
	// tokens cost the same joules, spread over more seconds.
	Throttles []ThrottleWindow
	// CrashWipes maps request IDs to host-tier survival: the engine
	// crash-resets its prefix index immediately before admitting that
	// request (the dispatcher marks the first request routed to the
	// replica after each crash restart, so the wipe lands between the
	// pre-crash survivors and the post-restart traffic). Fired markers
	// are deleted from the map.
	CrashWipes map[string]bool
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

// readyQueue is the admission queue: head-indexed so popping the front is
// O(1) without reslicing-away reusable capacity, compacted amortizedly so
// the dead prefix never exceeds the live region. Popped slots are zeroed
// so a drained queue pins no request payloads (PromptSyms histories are
// the bulk of a session stream's bytes).
type readyQueue struct {
	buf  []TimedRequest
	head int
}

func (q *readyQueue) len() int            { return len(q.buf) - q.head }
func (q *readyQueue) front() TimedRequest { return q.buf[q.head] }

//edgereasoning:hotpath bench=BenchmarkServeHotLoop
func (q *readyQueue) pushBack(tr TimedRequest) {
	q.reserve()
	q.buf = append(q.buf, tr)
}

// reserve seeds the backing array at a 16-slot floor on first use so a
// short backlog never pays the early append-growth doublings.
//
//edgereasoning:hotpath bench=BenchmarkServeHotLoop
func (q *readyQueue) reserve() {
	if q.buf == nil {
		q.buf = make([]TimedRequest, 0, 16) //edgereasoning:allow hotpath -- one-time 16-slot floor, paid once per queue
	}
}

//edgereasoning:hotpath bench=BenchmarkServeHotLoop
func (q *readyQueue) popFront() {
	q.buf[q.head] = TimedRequest{}
	q.head++
	if q.head >= 64 && q.head*2 >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		for i := n; i < len(q.buf); i++ {
			q.buf[i] = TimedRequest{}
		}
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

// insertEDF places tr at its earliest-deadline-first position, after any
// queued request with an equal key — element-for-element what a stable
// sort of the whole queue produces, without re-sorting the sorted part.
//
//edgereasoning:hotpath bench=BenchmarkServeHotLoop
func (q *readyQueue) insertEDF(tr TimedRequest) {
	key := edfKey(tr.Deadline)
	q.reserve()
	q.buf = append(q.buf, tr)
	j := len(q.buf) - 1
	for j > q.head && edfKey(q.buf[j-1].Deadline) > key {
		q.buf[j] = q.buf[j-1]
		j--
	}
	q.buf[j] = tr
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
// (queued or not yet arrived). It bounds admission latency: the loop
// reconsiders admission at most admitGrain decode steps after a request
// arrives. The cap also applies at full batch, where it admits nothing;
// it stays there because dropping it would move every batched latency.
const admitGrain = 16

// ServeSource is the engine's one admission/decode loop: requests are
// pulled from src (non-decreasing Arrival order) as simulated time
// reaches them, so live memory scales with the in-flight set — ready
// backlog plus maxBatch active decoders — not the stream length. Per-run
// bookkeeping (sequence arena, ready queue, decode scratch) is sized by
// maxBatch and recycled, keeping the steady-state loop allocation-free.
// Prefill is unbatched (the paper's configuration); decode advances in
// closed-form chunks between events, each chunk's energy shared equally
// by its active sequences.
func (e *Engine) ServeSource(src Source, maxBatch int, policy SchedPolicy, opts ServeOpts) (ServeMetrics, error) {
	if maxBatch <= 0 {
		maxBatch = 1
	}
	in := NewPeekable(src)
	if tr, ok := in.Peek(); ok && e.clock > tr.Arrival {
		return ServeMetrics{}, fmt.Errorf("engine: clock %.3f already past first arrival %.3f", e.clock, tr.Arrival)
	}
	fx := opts.Faults
	// Tracing is resolved once per run; every producer site below guards
	// on tra so a nil tracer pays exactly one pointer compare and the
	// run's timing and metrics stay byte-identical with tracing off.
	tra := e.cfg.Trace
	var (
		kvGauge, actGauge, powGauge *telemetry.Series
		ttftHist, rateHist          *stats.Histogram
	)
	if tra != nil {
		kvGauge = tra.Gauge("kv_used_blocks")
		actGauge = tra.Gauge("active_requests")
		powGauge = tra.Gauge("power_watts")
		ttftHist = tra.Histogram("ttft_seconds", telemetry.TTFTBuckets)
		rateHist = tra.Histogram("decode_tokens_per_sec", telemetry.DecodeRateBuckets)
	}

	var ready readyQueue
	active := make([]*activeSeq, 0, maxBatch)
	// Arena of sequence bookkeeping: at most maxBatch sequences are ever
	// live, so maxBatch slots recycled through a free list cover any
	// stream length. Slot pointers are stable for the run's lifetime.
	arena := make([]activeSeq, maxBatch)
	freeSlots := make([]int, maxBatch)
	for i := range freeSlots {
		freeSlots[i] = maxBatch - 1 - i
	}
	var out ServeMetrics
	if !opts.LeanMetrics {
		out.Requests = make([]Metrics, 0, opts.SizeHint)
	}
	out.Latencies = make([]float64, 0, opts.SizeHint)

	// futureGrowth is the worst-case block demand of the active set's
	// remaining decode. Admission reserves against it so a request can
	// never exhaust the cache mid-decode (the simulator's stand-in for
	// vLLM's preemption machinery). It is maintained incrementally (admit
	// adds, append subtracts) instead of rescanned per admission attempt.
	futureGrowth := 0
	ctxs := make([]int, 0, maxBatch) // scratch, reused every decode event
	promote := func() {
		for {
			tr, ok := in.Peek()
			if !ok || tr.Arrival > e.clock+1e-12 {
				break
			}
			in.Next()
			if policy == EDF {
				ready.insertEDF(tr)
			} else {
				ready.pushBack(tr)
			}
		}
	}
	finish := func(s *activeSeq) error {
		if e.prefix != nil && len(s.promptSyms) >= s.req.PromptTokens {
			// Retain the finished history (prompt + known output identities)
			// for the session's next turn instead of dropping the blocks.
			outSyms := s.outputSyms
			if len(outSyms) > s.req.OutputTokens {
				outSyms = outSyms[:s.req.OutputTokens]
			}
			if err := e.prefix.Release(s.handle, s.promptSyms[:s.req.PromptTokens], outSyms); err != nil {
				return err
			}
		} else if err := e.cache.FreeH(s.handle); err != nil {
			return err
		}
		lat := e.clock - s.arrival
		out.Latencies = append(out.Latencies, lat)
		out.Served++
		if s.deadline > 0 {
			out.DeadlinesTotal++
			if e.clock <= s.deadline {
				out.DeadlinesMet++
			}
		}
		if !opts.LeanMetrics {
			s.metrics.QueueTime = lat - s.metrics.TotalTime()
			out.Requests = append(out.Requests, s.metrics)
		}
		if tra != nil {
			tra.Record(telemetry.Span{ID: s.req.ID, Kind: telemetry.KindRequest,
				Lane: s.slot, Start: s.admitAt, End: e.clock, Session: s.session,
				Wait:   s.admitAt - s.arrival,
				Tokens: s.req.PromptTokens + s.req.OutputTokens,
				Cached: s.metrics.CachedPromptTokens})
			if s.metrics.DecodeTime > 0 {
				rateHist.Observe(float64(s.req.OutputTokens) / s.metrics.DecodeTime)
			}
		}
		out.TotalTokens += s.req.PromptTokens + s.req.OutputTokens
		s.promptSyms, s.outputSyms = nil, nil
		freeSlots = append(freeSlots, s.slot)
		return nil
	}

	start := e.clock
	for in.More() || ready.len() > 0 || len(active) > 0 {
		promote()
		// Idle: jump to the next arrival.
		if len(active) == 0 && ready.len() == 0 {
			tr, ok := in.Peek()
			if !ok {
				break
			}
			e.clock = tr.Arrival
			continue
		}
		// Admit from the ready queue.
		for ready.len() > 0 && len(active) < maxBatch {
			tr := ready.front()
			if tr.PromptTokens <= 0 {
				return out, fmt.Errorf("engine: request %q has no prompt", tr.ID)
			}
			// A crash boundary: the dispatcher marked this request as the
			// first one routed after the replica's crash restart, so the
			// prefix cache is wiped before admission even probes it.
			if fx != nil && e.prefix != nil && len(fx.CrashWipes) > 0 {
				if keep, ok := fx.CrashWipes[tr.ID]; ok {
					e.prefix.CrashReset(keep)
					delete(fx.CrashWipes, tr.ID)
				}
			}
			worstCase := e.blocksFor(tr.PromptTokens + tr.OutputTokens)
			// With a prefix cache, retained blocks are reclaimable
			// capacity. Probe first — touching the matched chain makes it
			// MRU, so eviction spares it — then evict cold prefixes until
			// the unmatched demand fits. Under extreme pressure eviction
			// can still trim the probed chain itself (growing the demand),
			// so re-probe and repeat until the demand fits or nothing is
			// left to evict; the final probe is exactly what Acquire finds.
			var syms []uint64
			probedBlocks := 0
			if e.prefix != nil {
				if len(tr.PromptSyms) >= tr.PromptTokens {
					syms = tr.PromptSyms[:tr.PromptTokens]
					probedBlocks = e.prefix.Probe(syms)
				}
				for worstCase-probedBlocks+futureGrowth > e.cache.FreeBlocks() {
					// Progress is measured in reclaimed capacity, not eviction
					// counts: EnsureFree stops on a zero-reclaim round (shared
					// leaves), and with a host tier demotions free blocks
					// without bumping Evictions at all.
					before := e.cache.FreeBlocks()
					e.prefix.EnsureFree(worstCase - probedBlocks + futureGrowth)
					if e.cache.FreeBlocks() == before {
						break
					}
					if syms != nil {
						probedBlocks = e.prefix.Probe(syms)
					}
				}
			}
			if worstCase-probedBlocks+futureGrowth > e.cache.FreeBlocks() {
				if len(active) > 0 {
					break
				}
				return out, fmt.Errorf("engine: request %q exceeds KV capacity even alone", tr.ID)
			}
			ready.popFront()
			matched := 0
			restore := 0.0
			if syms != nil {
				restoreBefore := e.prefix.Metrics().RestoreSeconds
				m, err := e.prefix.Acquire(tr.ID, syms)
				if err != nil {
					return out, err
				}
				matched = m
				out.PrefixLookups++
				out.PrefixLookupTokens += tr.PromptTokens
				if matched > 0 {
					out.PrefixHits++
					out.SavedPrefillTokens += matched
				}
				// A matched chain segment that had been demoted to host DRAM
				// was just promoted back; its transfer time lands on this
				// request's clock, ahead of prefill (part of TTFT).
				if restore = e.prefix.Metrics().RestoreSeconds - restoreBefore; restore > 0 {
					out.HostHits++
					out.RestoreSeconds += restore
				}
			} else if err := e.cache.AllocateReserve(tr.ID, tr.PromptTokens,
				tr.PromptTokens+tr.OutputTokens); err != nil {
				return out, err
			}
			slot := freeSlots[len(freeSlots)-1]
			freeSlots = freeSlots[:len(freeSlots)-1]
			s := &arena[slot]
			*s = activeSeq{req: tr.Request, ctx: tr.PromptTokens, remaining: tr.OutputTokens,
				arrival: tr.Arrival, deadline: tr.Deadline,
				residency: e.meter.Residency(tr.OutputTokens), slot: slot,
				admitAt: e.clock, session: tr.SessionID}
			if e.prefix != nil {
				s.promptSyms, s.outputSyms = tr.PromptSyms, tr.OutputSyms
			}
			h, err := e.cache.Lookup(tr.ID)
			if err != nil {
				return out, err
			}
			s.handle = h
			if err := e.cache.ReserveH(h, tr.PromptTokens+tr.OutputTokens); err != nil {
				return out, err
			}
			if syms != nil {
				// Acquire seeded only the matched blocks; append the
				// suffix the prefill below computes (the whole prompt on a
				// cold start).
				if err := e.cache.AppendTokensH(h, tr.PromptTokens-matched); err != nil {
					return out, err
				}
			}
			futureGrowth += worstCase - e.blocksFor(tr.PromptTokens)
			s.metrics = Metrics{ID: tr.ID, PromptTokens: tr.PromptTokens,
				OutputTokens: tr.OutputTokens, CachedPromptTokens: matched,
				RestoreTime: restore}
			if fx != nil {
				// A stalled device starts the restore+prefill at the
				// window's end; the wait lands in this request's TTFT.
				if st := fx.StallEnd(e.clock); st > e.clock {
					if tra != nil {
						tra.Record(telemetry.Span{ID: tr.ID, Kind: telemetry.KindStall,
							Lane: slot, Start: e.clock, End: st})
					}
					e.clock = st
				}
			}
			if tra != nil && restore > 0 {
				tra.Record(telemetry.Span{ID: tr.ID, Kind: telemetry.KindRestore,
					Lane: slot, Start: e.clock, End: e.clock + restore})
			}
			e.clock += restore
			res, err := e.prefill(tr.PromptTokens - matched)
			if err != nil {
				return out, err
			}
			if tra != nil {
				tra.Record(telemetry.Span{ID: tr.ID, Kind: telemetry.KindPrefill,
					Lane: slot, Start: e.clock, End: e.clock + res.Time,
					Tokens: tr.PromptTokens - matched, Cached: matched})
				ttftHist.Observe(e.clock + res.Time - tr.Arrival)
			}
			e.clock += res.Time
			out.Events++
			s.metrics.PrefillTime = res.Time
			s.metrics.PrefillEnergy = e.meter.Energy(res)
			out.TotalEnergy += s.metrics.PrefillEnergy
			active = append(active, s)
			if tra != nil {
				kvGauge.Sample(e.clock, float64(e.cache.UsedBlocks()))
				actGauge.Sample(e.clock, float64(len(active)))
			}
			promote()
		}
		if len(active) == 0 {
			continue
		}
		// Decode until the next event: completion, or the admission grain
		// while anything is pending.
		chunk := active[0].remaining
		for _, s := range active {
			if s.remaining < chunk {
				chunk = s.remaining
			}
		}
		if chunk <= 0 {
			var err error
			if active, err = reap(active, finish); err != nil {
				return out, err
			}
			continue
		}
		if (in.More() || ready.len() > 0) && chunk > admitGrain {
			chunk = admitGrain
		}
		ctxs = ctxs[:0]
		residency := 0.0
		for _, s := range active {
			ctxs = append(ctxs, s.ctx)
			residency += s.residency
		}
		if fx != nil {
			// No decode progress inside a stall window.
			if st := fx.StallEnd(e.clock); st > e.clock {
				if tra != nil {
					for _, s := range active {
						tra.Record(telemetry.Span{ID: s.req.ID, Kind: telemetry.KindStall,
							Lane: s.slot, Start: e.clock, End: st})
					}
				}
				e.clock = st
			}
		}
		res := e.decodeChunk(ctxs, chunk)
		// The chunk runs at the active sequences' mean residency factor,
		// each keyed on its own run length, so splitting a run into more
		// chunks changes neither its time nor its energy.
		energy := e.meter.PowerAt(res, residency/float64(len(active))) * res.Time
		throttleF := 1.0
		if fx != nil {
			// Thermal throttle: the chunk's tokens take Factor times as
			// long (energy is computed from the unstretched result — the
			// same work, spread over more seconds at lower power).
			if f := fx.ThrottleAt(e.clock); f > 1 {
				res.Time *= f
				throttleF = f
			}
		}
		decodeFrom := e.clock
		e.clock += res.Time
		out.Events++
		out.TotalEnergy += energy
		perSeqEnergy := energy / float64(len(active))
		for _, s := range active {
			if err := e.cache.AppendTokensH(s.handle, chunk); err != nil {
				return out, err
			}
			futureGrowth -= e.blocksFor(s.ctx+chunk) - e.blocksFor(s.ctx)
			s.ctx += chunk
			s.remaining -= chunk
			s.metrics.DecodeTime += res.Time
			s.metrics.DecodeEnergy += perSeqEnergy
		}
		if tra != nil {
			cause := ""
			if throttleF > 1 {
				cause = "throttle"
			}
			for _, s := range active {
				tra.Record(telemetry.Span{ID: s.req.ID, Kind: telemetry.KindDecode,
					Lane: s.slot, Start: decodeFrom, End: e.clock,
					Tokens: chunk, Cause: cause, Factor: throttleF})
			}
			kvGauge.Sample(e.clock, float64(e.cache.UsedBlocks()))
			actGauge.Sample(e.clock, float64(len(active)))
			if res.Time > 0 {
				powGauge.Sample(e.clock, energy/res.Time)
			}
		}
		var err error
		if active, err = reap(active, finish); err != nil {
			return out, err
		}
	}
	out.WallTime = e.clock - start
	out.PeakKVBlocks = e.cache.PeakUsed()
	if len(out.Latencies) > 0 {
		out.MeanLatency = stats.Mean(out.Latencies)
		out.P50Latency, out.P95Latency, out.P99Latency = stats.Percentiles3(out.Latencies)
	}
	return out, nil
}

// CalibrationRates returns the engine's per-token prefill and decode
// rates at the reference geometry (256-token prompt, 128-step decode at
// context 256) without touching the clock or the cache — the same
// numbers a one-request probe run produces, at zero allocation. The
// fleet's router uses them to estimate service times for shed decisions.
func (e *Engine) CalibrationRates() (prefillPerTok, decodePerTok float64, err error) {
	res, err := e.prefill(256)
	if err != nil {
		return 0, 0, err
	}
	d := e.decodeChunk([]int{256}, 128)
	return res.Time / 256, d.Time / 128, nil
}
