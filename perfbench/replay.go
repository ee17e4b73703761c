package main

import (
	"bytes"
	"fmt"
	"runtime/debug"
	"time"

	"edgereasoning/internal/engine"
	"edgereasoning/internal/fleet"
	"edgereasoning/internal/gpusim"
	"edgereasoning/internal/hw"
	"edgereasoning/internal/kvcache"
	"edgereasoning/internal/model"
	"edgereasoning/internal/power"
	"edgereasoning/internal/session"
	"edgereasoning/internal/telemetry"
	"edgereasoning/internal/workload"
)

// The engine calls gpusim, the power meter and the KV cache internally,
// where the benchmark cannot wrap them. The replay pass rebuilds the
// arguments of those calls from a serve run's telemetry spans, times
// the public calls on them, and the ledger multiplies the time per call
// by the traced run's exact call counts.

// replayMin is the least host time spent timing each kind of call.
const replayMin = 50 * time.Millisecond

// sink keeps timed results live so the calls are not optimized away.
var sink float64

// shapes holds the call arguments one engine (one device and model)
// used in a serve run.
type shapes struct {
	sim      *gpusim.Sim
	meter    *power.Meter
	arch     model.Arch
	dtype    model.DType
	prefills []int         // tokens per prefill (the unmatched suffix)
	decodes  []decodeShape // one per decode chunk
	seqs     []seqShape    // one per completed request
}

type decodeShape struct {
	ctxs []int // per active sequence, its context before the chunk
	n    int   // tokens per sequence in the chunk
}

type seqShape struct {
	id             string
	prompt, output int
	chunks         []int // decode appends, in order
}

func newShapes(d *hw.Device, spec model.Spec) *shapes {
	return &shapes{sim: gpusim.New(d), meter: power.NewMeter(d), arch: spec.Arch, dtype: spec.DType}
}

// harvest rebuilds call arguments from one engine track's spans. A
// decode chunk records one span per active sequence, back to back with
// equal bounds; chunks whose sequences lost their prefill span to ring
// overflow are skipped.
func (sh *shapes) harvest(spans []telemetry.Span) {
	open := make(map[string]*seqShape)
	ctx := make(map[string]int)
	for i := 0; i < len(spans); {
		s := spans[i]
		switch s.Kind {
		case telemetry.KindPrefill:
			sh.prefills = append(sh.prefills, s.Tokens)
			open[s.ID] = &seqShape{id: s.ID, prompt: s.Tokens + s.Cached}
			ctx[s.ID] = s.Tokens + s.Cached
		case telemetry.KindDecode:
			j := i
			for j < len(spans) && spans[j].Kind == telemetry.KindDecode && spans[j].Start == s.Start && spans[j].End == s.End {
				j++
			}
			d := decodeShape{n: s.Tokens}
			for _, b := range spans[i:j] {
				c, ok := ctx[b.ID]
				if !ok {
					d.ctxs = nil
					break
				}
				d.ctxs = append(d.ctxs, c)
			}
			if d.ctxs != nil {
				sh.decodes = append(sh.decodes, d)
				for _, b := range spans[i:j] {
					ctx[b.ID] += b.Tokens
					open[b.ID].chunks = append(open[b.ID].chunks, b.Tokens)
				}
			}
			i = j
			continue
		case telemetry.KindRequest:
			if q, ok := open[s.ID]; ok {
				q.output = s.Tokens - q.prompt
				sh.seqs = append(sh.seqs, *q)
				delete(open, s.ID)
				delete(ctx, s.ID)
			}
		}
		i++
	}
}

// nsPerCall runs pass (which returns its call count) until replayMin
// has elapsed and returns the mean host nanoseconds per call.
//
//edgereasoning:wallclock -- the benchmark times host work; simulated time is an output it checks
func nsPerCall(pass func() (int, error)) (float64, error) {
	calls := 0
	t0 := time.Now()
	for calls == 0 || time.Since(t0) < replayMin {
		n, err := pass()
		if err != nil || n == 0 {
			return 0, err
		}
		calls += n
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(calls), nil
}

// callCosts is host nanoseconds per public call.
type callCosts struct {
	prefill, decode, energy float64
}

func timeKernels(groups []*shapes) (callCosts, error) {
	var c callCosts
	var results [][]gpusim.Result
	for _, g := range groups {
		var rs []gpusim.Result
		for _, t := range g.prefills {
			rs = append(rs, g.sim.Prefill(g.arch, g.dtype, t, 1))
		}
		for _, d := range g.decodes {
			rs = append(rs, g.sim.DecodeChunk(g.arch, g.dtype, d.ctxs, d.n))
		}
		results = append(results, rs)
	}
	var err error
	if c.prefill, err = nsPerCall(func() (int, error) {
		n := 0
		for _, g := range groups {
			for _, t := range g.prefills {
				sink += g.sim.Prefill(g.arch, g.dtype, t, 1).Time
			}
			n += len(g.prefills)
		}
		return n, nil
	}); err != nil {
		return c, err
	}
	if c.decode, err = nsPerCall(func() (int, error) {
		n := 0
		for _, g := range groups {
			for _, d := range g.decodes {
				sink += g.sim.DecodeChunk(g.arch, g.dtype, d.ctxs, d.n).Time
			}
			n += len(g.decodes)
		}
		return n, nil
	}); err != nil {
		return c, err
	}
	c.energy, err = nsPerCall(func() (int, error) {
		n := 0
		for i, g := range groups {
			for _, r := range results[i] {
				sink += g.meter.Energy(r)
			}
			n += len(results[i])
		}
		return n, nil
	})
	return c, err
}

// timeSeqLifecycles replays the engine's cache path for requests
// without a prefix cache: AllocateReserve, Lookup, ReserveH, one
// AppendTokensH per decode chunk, FreeH. It returns ns per lifecycle.
func timeSeqLifecycles(cfg kvcache.Config, seqs []seqShape) (float64, error) {
	cache, err := kvcache.New(cfg)
	if err != nil {
		return 0, err
	}
	return nsPerCall(func() (int, error) {
		for _, q := range seqs {
			if err := cache.AllocateReserve(q.id, q.prompt, q.prompt+q.output); err != nil {
				return 0, err
			}
			h, err := cache.Lookup(q.id)
			if err != nil {
				return 0, err
			}
			if err := cache.ReserveH(h, q.prompt+q.output); err != nil {
				return 0, err
			}
			for _, c := range q.chunks {
				if err := cache.AppendTokensH(h, c); err != nil {
					return 0, err
				}
			}
			if err := cache.FreeH(h); err != nil {
				return 0, err
			}
		}
		return len(seqs), nil
	})
}

// soakHarvestRequests is how many requests of the soak's stream the
// replay pass serves with engine tracing on to collect call shapes.
const soakHarvestRequests = 20_000

func (j *soakJob) ledger(rec *recorder, wall float64, m map[string]float64) error {
	sm := j.m
	if sm.Served == 0 {
		return fmt.Errorf("assistant-soak: nothing served")
	}
	// Shapes from the first requests of the same seeded stream.
	src, err := workload.NewSource(workload.InteractiveAssistant(soakQPS, j.requests), j.seed)
	if err != nil {
		return err
	}
	cfg := soakEngineConfig()
	track := telemetry.New(telemetry.Config{SpanCap: 1 << 18}).Track("harvest")
	cfg.Trace = track
	eng, err := engine.New(cfg)
	if err != nil {
		return err
	}
	if _, err := eng.ServeSource(&limitSource{src: src, n: soakHarvestRequests}, soakBatch, engine.FCFS, engine.ServeOpts{LeanMetrics: true}); err != nil {
		return err
	}
	if track.Dropped() > 0 {
		return fmt.Errorf("assistant-soak: harvest dropped %d spans", track.Dropped())
	}
	sh := newShapes(cfg.Device, cfg.Spec)
	sh.harvest(track.Spans())
	cost, err := timeKernels([]*shapes{sh})
	if err != nil {
		return err
	}
	stats := eng.CacheStats()
	seqNs, err := timeSeqLifecycles(kvcache.Config{BlockSize: 16, NumBlocks: stats.TotalBlocks,
		BytesPerToken: cfg.Spec.Arch.KVBytesPerToken()}, sh.seqs)
	if err != nil {
		return err
	}
	shares(m, wall, engineLayers(m, sm.Served, sm.Events, cost, seqNs), "engine")
	return nil
}

// engineLayers fills the engine's counts and the replayed cost per call,
// and returns the seconds of the layers the engine calls. The counts
// follow from the serve loop: one prefill, one energy reading and one
// sequence lifecycle per admitted (served) request, one energy reading
// per decode chunk, and every event is a prefill or a decode chunk.
func engineLayers(m map[string]float64, served, events int, cost callCosts, seqNs float64) []layer {
	m["engine.served"] = float64(served)
	m["engine.events"] = float64(events)
	m["engine.events_per_req"] = float64(events) / float64(served)
	m["gpusim.prefill_calls"] = float64(served)
	m["gpusim.prefill_ns"] = cost.prefill
	m["gpusim.decode_chunk_calls"] = float64(events - served)
	m["gpusim.decode_chunk_ns"] = cost.decode
	m["power.energy_calls"] = float64(events)
	m["power.energy_ns"] = cost.energy
	m["kvcache.seq_lifecycles"] = float64(served)
	m["kvcache.seq_ns"] = seqNs
	return []layer{
		{"gpusim.share", 1e-9 * (float64(served)*cost.prefill + float64(events-served)*cost.decode)},
		{"power.share", 1e-9 * float64(events) * cost.energy},
		{"kvcache.share", 1e-9 * float64(served) * seqNs},
	}
}

// limitSource passes on the first n requests of src.
type limitSource struct {
	src engine.Source
	n   int
}

func (l *limitSource) Next() (engine.TimedRequest, bool) {
	if l.n <= 0 {
		return engine.TimedRequest{}, false
	}
	l.n--
	return l.src.Next()
}

// fleetReplayRequests is how many requests of the fleet's session
// stream the prefix replay admits.
const fleetReplayRequests = 12_000

// plainReruns is how many times the fleet ledger serves the stream with
// tracing off to find the recording overhead.
const plainReruns = 3

func (j *fleetJob) ledger(rec *recorder, wall float64, m map[string]float64) error {
	fm := j.m
	if fm.Served == 0 {
		return fmt.Errorf("agent-fleet: nothing served")
	}
	m["prefix.lookups"] = float64(fm.PrefixLookups)
	m["prefix.hits"] = float64(fm.PrefixHits)
	m["prefix.hit_token_frac"] = fm.PrefixHitRate()
	m["prefix.saved_prefill_tokens"] = float64(fm.SavedPrefillTokens)
	m["tier.demotions"] = float64(fm.TierDemotions)
	m["tier.promotions"] = float64(fm.TierPromotions)
	m["tier.host_hits"] = float64(fm.HostHits)
	m["tier.restore_sim_s"] = fm.RestoreSeconds
	m["fleet.offered"] = float64(fm.Offered)
	m["fleet.dropped"] = float64(fm.Dropped)
	m["fleet.shed"] = float64(fm.Shed)
	m["fleet.aborted"] = float64(fm.Aborted)
	m["fleet.aborted_dropped"] = float64(fm.AbortedDropped)
	m["fleet.retried"] = float64(fm.Retried)
	m["fleet.crashes"] = float64(fm.Crashes)
	m["fleet.breaker_opens"] = float64(fm.BreakerOpens)
	m["fleet.lost_work_sim_s"] = fm.LostWorkSeconds

	// Kernel and meter shapes from each replica's own track.
	var groups []*shapes
	for _, tr := range j.cfg.Trace.Tracks() {
		m["telemetry.spans"] += float64(len(tr.Spans()) + tr.Dropped())
		m["telemetry.spans_dropped"] += float64(tr.Dropped())
		for _, rc := range j.cfg.Replicas {
			if rc.Name == tr.Name() {
				sh := newShapes(rc.Device, rc.Spec)
				sh.harvest(tr.Spans())
				groups = append(groups, sh)
			}
		}
	}
	cost, err := timeKernels(groups)
	if err != nil {
		return err
	}
	seqNs, prefixNs, err := replayPrefix(j.sessions, j.seed, j.cfg.Replicas)
	if err != nil {
		return err
	}
	m["prefix.acquire_release_ns"] = prefixNs

	// Telemetry: the exports, plus the serve run's recording cost, found
	// by serving the same stream with tracing off. Tracing must not
	// change a simulated number.
	m["telemetry.export_s"] = rec.seconds("telemetry.WriteChromeTrace") + rec.seconds("telemetry.WritePrometheus")
	// Drop this operation's trace and exports, so the reruns start from
	// the same live heap the traced serve did.
	j.cfg.Trace, j.chrome, j.prom = nil, bytes.Buffer{}, bytes.Buffer{}
	var plainServe []float64
	for i := 0; i < plainReruns; i++ {
		plain, err := newFleetJob(j.sessions, j.seed)
		if err != nil {
			return err
		}
		plain.cfg.Trace = nil
		debug.FreeOSMemory()
		prec := newRecorder()
		sp := prec.begin("fleet.ServeSource", -1)
		pm, err := fleet.ServeSource(plain.cfg, wrap(plain.src, prec))
		prec.end(sp)
		if err != nil {
			return fmt.Errorf("agent-fleet with tracing off: %w", err)
		}
		if a, b := fleetStats(pm), fleetStats(fm); a != b {
			return fmt.Errorf("agent-fleet: telemetry changed the simulation:\n  off: %s\n  on:  %s", a, b)
		}
		plainServe = append(plainServe, prec.seconds("fleet.ServeSource"))
	}
	m["telemetry.overhead_s"] = rec.seconds("fleet.ServeSource") - median(plainServe)

	layers := append(engineLayers(m, fm.Served, fm.Events, cost, seqNs),
		layer{"prefix.share", 1e-9 * float64(fm.PrefixLookups) * prefixNs},
		layer{"", m["telemetry.export_s"] + m["telemetry.overhead_s"]})
	shares(m, wall, layers, "fleet")
	return nil
}

// replayPrefix admits the first requests of the fleet's session stream,
// one at a time, into one prefix-cached KV cache per replica (sized like
// the fleet's, host tier attached), following the engine's admission
// path. Sessions stick to the replica they first landed on, as under
// session affinity. It returns host ns per sequence for the cache calls
// (Lookup, ReserveH, AppendTokensH) and per lookup for the prefix-index
// calls (Probe, EnsureFree, Acquire, Release).
//
//edgereasoning:wallclock -- the benchmark times host work; simulated time is an output it checks
func replayPrefix(sessions int, seed uint64, replicas []fleet.ReplicaConfig) (seqNs, prefixNs float64, err error) {
	src, err := session.NewSource(fleetProfile(sessions), seed)
	if err != nil {
		return 0, 0, err
	}
	type shard struct {
		cache *kvcache.Cache
		ix    *kvcache.PrefixIndex
	}
	shards := make([]shard, len(replicas))
	for i, rc := range replicas {
		c, err := kvcache.New(kvcache.Config{BlockSize: 16, NumBlocks: fleetDeviceBlocks, BytesPerToken: rc.Spec.Arch.KVBytesPerToken()})
		if err != nil {
			return 0, 0, err
		}
		ix := kvcache.NewPrefixIndex(c)
		if err := ix.AttachHostTier(kvcache.HostTierConfig{Blocks: fleetHostBlocks}); err != nil {
			return 0, 0, err
		}
		shards[i] = shard{c, ix}
	}
	home := make(map[string]int)
	blocks := func(tokens int) int { return (tokens + 15) / 16 }
	var kvTime, ixTime time.Duration
	admitted := 0
	for n := 0; n < fleetReplayRequests; n++ {
		tr, ok := src.Next()
		if !ok {
			break
		}
		r, ok := home[tr.SessionID]
		if !ok {
			r = len(home) % len(shards)
			home[tr.SessionID] = r
		}
		c, ix := shards[r].cache, shards[r].ix
		syms := tr.PromptSyms[:tr.PromptTokens]
		need := blocks(tr.PromptTokens + tr.OutputTokens)

		t0 := time.Now()
		probed := ix.Probe(syms)
		for need-probed > c.FreeBlocks() {
			before := c.FreeBlocks()
			ix.EnsureFree(need - probed)
			if c.FreeBlocks() == before {
				break
			}
			probed = ix.Probe(syms)
		}
		if need-probed > c.FreeBlocks() {
			continue // would wait for capacity in the engine
		}
		matched, err := ix.Acquire(tr.ID, syms)
		if err != nil {
			return 0, 0, err
		}
		t1 := time.Now()
		h, err := c.Lookup(tr.ID)
		if err != nil {
			return 0, 0, err
		}
		if err := c.ReserveH(h, tr.PromptTokens+tr.OutputTokens); err != nil {
			return 0, 0, err
		}
		if err := c.AppendTokensH(h, tr.PromptTokens-matched); err != nil {
			return 0, 0, err
		}
		if err := c.AppendTokensH(h, tr.OutputTokens); err != nil {
			return 0, 0, err
		}
		t2 := time.Now()
		out := tr.OutputSyms
		if len(out) > tr.OutputTokens {
			out = out[:tr.OutputTokens]
		}
		if err := ix.Release(h, syms, out); err != nil {
			return 0, 0, err
		}
		t3 := time.Now()
		ixTime += t1.Sub(t0) + t3.Sub(t2)
		kvTime += t2.Sub(t1)
		admitted++
	}
	if admitted == 0 {
		return 0, 0, fmt.Errorf("agent-fleet: prefix replay admitted nothing")
	}
	return float64(kvTime.Nanoseconds()) / float64(admitted), float64(ixTime.Nanoseconds()) / float64(admitted), nil
}

func (j *suiteJob) ledger(rec *recorder, wall float64, m map[string]float64) error {
	named := map[string]float64{
		"suite.fig9_s":        rec.seconds("fig9"),
		"suite.table12_s":     rec.seconds("table12"),
		"suite.naturalplan_s": rec.seconds("naturalplan"),
		// The verify driver and the Scorecard call compute the same anchors.
		"suite.verify_s": rec.seconds("verify") + rec.seconds("experiments.Scorecard"),
	}
	other := wall
	for k, v := range named {
		m[k] = v
		other -= v
	}
	m["suite.other_s"] = other
	o := j.check()
	tables := 0
	for _, r := range j.results {
		tables += len(r.Tables)
		if r.Err != nil {
			m["suite.drivers_failed"]++
		}
	}
	m["suite.tables"] = float64(tables)
	for _, a := range j.anchors {
		if !a.Pass() {
			m["suite.anchors_failed"]++
		}
	}
	m["suite.anchor_dev_pct"] = o.anchorDevPct
	return nil
}
