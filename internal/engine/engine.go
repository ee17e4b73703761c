// Package engine is the simulated serving engine: a vLLM-style runtime
// that admits requests, prefills prompts, decodes with continuous
// batching over a paged KV cache, and accounts wall time, power, and
// energy through the GPU simulator. It is the substrate every
// latency/energy experiment in the paper runs on.
//
// Server is the engine's one admission/decode loop, as a stepping API
// (push, advance, predict, abort). ServeSource drives it over one
// stream; Serve, Run and Generate are wrappers over ServeSource: an
// open-loop slice, a closed batch with every arrival at the current
// clock, and a batch of one.
package engine

import (
	"fmt"

	"edgereasoning/internal/gpusim"
	"edgereasoning/internal/hw"
	"edgereasoning/internal/kvcache"
	"edgereasoning/internal/model"
	"edgereasoning/internal/power"
	"edgereasoning/internal/telemetry"
)

// Overhead models a host-side inference framework's cost on top of the
// raw kernels: the Table IX comparison (HF Transformers vs vLLM vs
// TRT-LLM) reduces to these terms.
type Overhead struct {
	Name          string
	PrefillFactor float64 // multiplies prefill time (graph build, tokenizer)
	StepFactor    float64 // multiplies per-step decode kernel time
	PerStepHost   float64 // seconds of host work added per decode step
}

// normalized returns the profile with zero fields defaulted to identity.
func (o Overhead) normalized() Overhead {
	if o.PrefillFactor == 0 {
		o.PrefillFactor = 1
	}
	if o.StepFactor == 0 {
		o.StepFactor = 1
	}
	if o.Name == "" {
		o.Name = "vLLM"
	}
	return o
}

// Config assembles an engine.
type Config struct {
	Spec   model.Spec
	Device *hw.Device
	// BlockSize is the KV page size in tokens (default 16).
	BlockSize int
	// Framework is the host-side overhead profile (default vLLM).
	Framework Overhead
	// PrefixCache attaches a cross-request prefix index to the KV cache:
	// completed sequences retain their blocks content-addressed, and a
	// later request whose PromptSyms share a prefix only prefills the
	// unmatched suffix (vLLM automatic-prefix-caching style). Off by
	// default; requests without PromptSyms are unaffected either way.
	PrefixCache bool
	// DeviceBlocks caps the KV cache at this many blocks when positive
	// and below the DRAM-derived size — the device-memory sweep knob for
	// tiering studies. Values at or above the derived size are ignored.
	DeviceBlocks int
	// HostTierBlocks, when positive, attaches a host-DRAM second tier of
	// that many blocks behind the prefix index: on device pressure, cold
	// prefix entries demote to host instead of dropping, and a later
	// matching request promotes them back, paying the restore cost.
	// Requires PrefixCache.
	HostTierBlocks int
	// HostLinkBandwidth is the host<->device link rate in bytes/second
	// used to price promotions (default kvcache.DefaultHostLinkBandwidth).
	HostLinkBandwidth float64
	// Trace, when non-nil, records per-request phase spans and sampled
	// gauges (KV occupancy, active batch, power) from every serve run
	// into the given telemetry track. Nil is the default and costs
	// nothing: every producer site is a nil check, the serve loop's
	// timing and metrics are byte-identical either way.
	Trace telemetry.Tracer
}

// Request is one generation job. OutputTokens is decided ahead of
// execution by the model twin (the engine transports tokens; it does not
// decide how many the model emits).
type Request struct {
	ID           string
	PromptTokens int
	OutputTokens int
}

// Metrics reports one completed request.
type Metrics struct {
	ID           string
	PromptTokens int
	OutputTokens int
	QueueTime    float64 // seconds waiting for admission
	PrefillTime  float64
	DecodeTime   float64
	// RestoreTime is the host-link transfer time spent promoting this
	// request's host-resident prefix blocks back to the device (0 without
	// a host tier or on a device-only hit). It lands before prefill, so
	// it is part of the request's TTFT.
	RestoreTime   float64
	PrefillEnergy float64 // joules
	DecodeEnergy  float64
	// CachedPromptTokens counts prompt tokens served from the prefix
	// cache instead of being prefilled (0 without a prefix cache).
	CachedPromptTokens int
}

// TotalTime is the request's service latency (restore + prefill +
// decode).
func (m Metrics) TotalTime() float64 { return m.RestoreTime + m.PrefillTime + m.DecodeTime }

// Energy is the request's total energy in joules.
func (m Metrics) Energy() float64 { return m.PrefillEnergy + m.DecodeEnergy }

// BatchMetrics reports a whole workload run.
type BatchMetrics struct {
	Requests    []Metrics
	WallTime    float64 // seconds from first admission to last completion
	TotalEnergy float64 // joules
	// TotalTokens counts prompt + generated tokens (the unit the cost
	// study bills).
	TotalTokens int
	// PeakKVBlocks is the cache high-water mark.
	PeakKVBlocks int
}

// AvgPower returns mean power over the busy window.
func (b BatchMetrics) AvgPower() float64 {
	if b.WallTime <= 0 {
		return 0
	}
	return b.TotalEnergy / b.WallTime
}

// OutputTokens sums generated tokens.
func (b BatchMetrics) OutputTokens() int {
	n := 0
	for _, m := range b.Requests {
		n += m.OutputTokens
	}
	return n
}

// UserTPS is the mean per-request decode throughput (the "User TPS" row
// of Table III).
func (b BatchMetrics) UserTPS() float64 {
	if len(b.Requests) == 0 {
		return 0
	}
	sum := 0.0
	for _, m := range b.Requests {
		if m.DecodeTime > 0 {
			sum += float64(m.OutputTokens) / m.DecodeTime
		}
	}
	return sum / float64(len(b.Requests))
}

// Engine executes requests on the simulated device.
type Engine struct {
	cfg   Config
	sim   *gpusim.Sim
	meter *power.Meter
	cache *kvcache.Cache
	// prefix is the cross-request prefix index (nil unless
	// Config.PrefixCache is set).
	prefix *kvcache.PrefixIndex
	clock  float64
}

// New builds an engine, verifying the model fits the device and sizing
// the KV cache from leftover DRAM.
func New(cfg Config) (*Engine, error) {
	if cfg.Device == nil {
		return nil, fmt.Errorf("engine: nil device")
	}
	if err := cfg.Device.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Spec.Arch.Validate(); err != nil {
		return nil, err
	}
	if cfg.BlockSize <= 0 {
		cfg.BlockSize = 16
	}
	cfg.Framework = cfg.Framework.normalized()
	if cfg.HostTierBlocks > 0 && !cfg.PrefixCache {
		return nil, fmt.Errorf("engine: HostTierBlocks requires PrefixCache (the tier holds prefix entries)")
	}

	cache, prefix, err := buildCache(cfg)
	if err != nil {
		return nil, err
	}
	return &Engine{
		cfg:    cfg,
		sim:    gpusim.New(cfg.Device),
		meter:  power.NewMeter(cfg.Device),
		cache:  cache,
		prefix: prefix,
	}, nil
}

// memReserve is the fraction of DRAM withheld from the KV cache for
// activations and runtime overheads.
const memReserve = 0.10

// buildCache sizes the KV cache from the DRAM left after weights and
// memReserve (capped by DeviceBlocks when set) and attaches the prefix
// index and host tier per cfg.
func buildCache(cfg Config) (*kvcache.Cache, *kvcache.PrefixIndex, error) {
	weights := cfg.Spec.Arch.WeightBytes(cfg.Spec.DType)
	reserve := int64(float64(cfg.Device.MemCapacity) * memReserve)
	kvBudget := cfg.Device.MemCapacity - weights - reserve
	if kvBudget <= 0 {
		return nil, nil, fmt.Errorf("engine: %s (%0.1f GB weights) does not fit %s",
			cfg.Spec.ID, float64(weights)/1e9, cfg.Device.Name)
	}
	cacheCfg := kvcache.ConfigForMemory(kvBudget, cfg.BlockSize, cfg.Spec.Arch.KVBytesPerToken())
	if cfg.DeviceBlocks > 0 && cfg.DeviceBlocks < cacheCfg.NumBlocks {
		cacheCfg.NumBlocks = cfg.DeviceBlocks
	}
	cache, err := kvcache.New(cacheCfg)
	if err != nil {
		return nil, nil, err
	}
	var prefix *kvcache.PrefixIndex
	if cfg.PrefixCache {
		prefix = kvcache.NewPrefixIndex(cache)
		if cfg.HostTierBlocks > 0 {
			err := prefix.AttachHostTier(kvcache.HostTierConfig{
				Blocks:        cfg.HostTierBlocks,
				LinkBandwidth: cfg.HostLinkBandwidth,
			})
			if err != nil {
				return nil, nil, err
			}
		}
	}
	return cache, prefix, nil
}

// Clock returns the simulated time in seconds.
func (e *Engine) Clock() float64 { return e.clock }

// prefill runs a prompt through the simulator and charges framework
// overhead.
//
//edgereasoning:hotpath bench=BenchmarkServeHotLoop
func (e *Engine) prefill(tokens int) gpusim.Result {
	res := e.sim.Prefill(e.cfg.Spec.Arch, e.cfg.Spec.DType, tokens, 1)
	res.Time *= e.cfg.Framework.PrefillFactor
	return res
}

// decodeChunk advances the active contexts n steps and charges framework
// overhead.
//
//edgereasoning:hotpath bench=BenchmarkServeHotLoop
func (e *Engine) decodeChunk(ctxs []int, n int) gpusim.Result {
	res := e.sim.DecodeChunk(e.cfg.Spec.Arch, e.cfg.Spec.DType, ctxs, n)
	res.Time = res.Time*e.cfg.Framework.StepFactor + float64(n)*e.cfg.Framework.PerStepHost
	return res
}

// blocksFor mirrors the cache's page arithmetic for admission control:
// the KV blocks a sequence of the given length occupies.
//
//edgereasoning:hotpath bench=BenchmarkServeHotLoop
func (e *Engine) blocksFor(tokens int) int {
	if tokens <= 0 {
		return 0
	}
	return (tokens + e.cfg.BlockSize - 1) / e.cfg.BlockSize
}

// Generate executes one request in isolation: Run of that one request at
// batch 1.
func (e *Engine) Generate(req Request) (Metrics, error) {
	b, err := e.Run([]Request{req}, 1)
	if err != nil {
		return Metrics{}, err
	}
	return b.Requests[0], nil
}

// activeSeq is a request mid-decode. The KV handle is resolved once at
// admission so the decode loop never touches the cache's sequence map;
// the request itself rides along (arrival, deadline, session, and token
// identities) instead of in side maps.
type activeSeq struct {
	tr        TimedRequest
	handle    kvcache.Handle
	ctx       int // prompt + generated so far
	remaining int
	metrics   Metrics
	// residency is the request's DVFS residency factor, keyed on its own
	// run length (OutputTokens) once at admission, so decode energy does
	// not depend on how the loop happens to chunk the run.
	residency float64
	// slot is the arena index this sequence occupies, so the serve loop
	// can return it to the free list on completion.
	slot int
	// since is when the request became visible to the engine and admitAt
	// the clock at its admission decision: the request span starts at
	// admitAt and its replica-local wait is admitAt - since.
	since   float64
	admitAt float64
}

// reap moves every completed sequence (remaining <= 0) to done — in
// descending index order, matching the historical deletion loop so
// completion-ordered outputs are unchanged — then compacts the active
// set in one order-preserving, allocation-free pass.
//
//edgereasoning:hotpath bench=BenchmarkServeHotLoop
func (s *Server) reap() {
	for i := len(s.active) - 1; i >= 0; i-- {
		if s.active[i].remaining <= 0 {
			s.done = append(s.done, s.active[i])
		}
	}
	if len(s.done) == 0 {
		return
	}
	kept := s.active[:0]
	for _, a := range s.active {
		if a.remaining > 0 {
			kept = append(kept, a)
		}
	}
	clear(s.active[len(kept):]) // no stale pointers past the compacted tail
	s.active = kept
}

// Run executes reqs FCFS with continuous batching up to maxBatch
// concurrent decoders. It is ServeSource over the requests with every
// arrival at the current clock, so a closed batch and an open-loop stream
// share one admission/decode loop and one energy accounting. Requests are
// reported in completion order.
func (e *Engine) Run(reqs []Request, maxBatch int) (BatchMetrics, error) {
	timed := make([]TimedRequest, len(reqs))
	for i, r := range reqs {
		timed[i] = TimedRequest{Request: r, Arrival: e.clock}
	}
	sm, err := e.ServeSource(NewSliceSource(timed), maxBatch, FCFS, ServeOpts{SizeHint: len(reqs)})
	return sm.BatchMetrics, err
}

// CacheStats exposes KV occupancy for tests and examples.
func (e *Engine) CacheStats() kvcache.Stats { return e.cache.Stats() }

// PrefixMetrics exposes the engine-lifetime prefix-cache counters (zero
// value when the engine was built without Config.PrefixCache).
func (e *Engine) PrefixMetrics() kvcache.PrefixMetrics {
	if e.prefix == nil {
		return kvcache.PrefixMetrics{}
	}
	return e.prefix.Metrics()
}

// PeekPrefix reports how many leading blocks of syms are resident on
// the device and host tiers, without perturbing recency (both zero
// without a prefix cache). Routing layers use it to rank replicas by
// session warmth.
func (e *Engine) PeekPrefix(syms []uint64) (deviceBlocks, hostBlocks int) {
	if e.prefix == nil {
		return 0, 0
	}
	return e.prefix.Peek(syms)
}
