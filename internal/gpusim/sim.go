package gpusim

import (
	"edgereasoning/internal/hw"
	"edgereasoning/internal/model"
	"edgereasoning/internal/stats"
)

// Phase tags a simulated result as prompt processing or token generation.
type Phase int

const (
	// PhasePrefill processes the prompt in parallel.
	PhasePrefill Phase = iota
	// PhaseDecode generates tokens autoregressively.
	PhaseDecode
)

// Result is the outcome of simulating a phase (or a slice of one): wall
// time plus the utilization signals the power model consumes.
type Result struct {
	Phase Phase
	Time  float64 // seconds
	FLOPs float64 // arithmetic performed (padded work included)
	Bytes float64 // DRAM traffic
	// ComputeUtil is achieved FLOP/s over the device peak; BWUtil is
	// achieved bytes/s over peak bandwidth; Occupancy is the time-weighted
	// fraction of SMs kept busy.
	ComputeUtil float64
	BWUtil      float64
	Occupancy   float64
	Kernels     int // launches charged
	Tokens      int // tokens processed (prompt tokens or generated tokens)
}

// Sim times transformer phases on a device.
type Sim struct {
	Device *hw.Device
	// JitterFrac is the amplitude of the deterministic CUTLASS
	// kernel-variant noise (keyed by GEMM shape, reproducible run to run).
	// Zero disables it.
	JitterFrac float64
	// HostOverlap is the fraction of per-launch host overhead hidden by
	// offloading lightweight kernels (tokenization, norms, softmax,
	// embedding lookups) to the idle CPU complex and overlapping them with
	// GPU matmuls — the §VI heterogeneous-computing opportunity. 0 (the
	// default) models the paper's measured configuration; 1 hides all of
	// it.
	HostOverlap float64
}

// New returns a simulator for the device with the default kernel-variant
// jitter the paper observes on Orin.
func New(d *hw.Device) *Sim {
	return &Sim{Device: d, JitterFrac: 0.04}
}

// computePeak returns the effective matmul peak for a weight format:
// FP16 runs on tensor cores; W4A16 dequantizes into the INT8 path (Orin's
// Ampere GPU has no INT4 tensor cores, §V-F); FP32 runs on CUDA cores.
func (s *Sim) computePeak(dt model.DType) float64 {
	d := s.Device
	switch dt {
	case model.W4A16:
		return d.PeakINT8OPS * d.ComputeEff
	case model.FP32:
		return d.PeakFP32FLOPS * d.ComputeEff
	default:
		return d.PeakFP16FLOPS * d.ComputeEff
	}
}

// kernelTime rooflines one kernel: max(compute, memory) + launch overhead,
// with shape-keyed jitter to model CUTLASS variant selection.
func (s *Sim) kernelTime(k Kernel, dt model.DType) (time, occ float64) {
	d := s.Device
	peak := s.computePeak(dt) * mfu(d, k.M, k.N, k.K)
	tc := 0.0
	if k.FLOPs > 0 && peak > 0 {
		tc = k.FLOPs / peak
	}
	tm := k.Bytes / d.EffectiveBandwidth()
	t := tc
	if tm > t {
		t = tm
	}
	if s.JitterFrac > 0 && k.Kind == GEMM {
		key := uint64(k.M)<<40 ^ uint64(k.N)<<20 ^ uint64(k.K)
		t = stats.HashJitter(t, s.JitterFrac, key)
	}
	t += d.KernelOverhead
	return t, occupancy(d, k.M, k.N)
}

// prefillKernels builds the per-layer kernel walk for prefilling m tokens
// (already tile-padded). Weights bytes come from the architecture so the
// full walk streams exactly one weight read plus activation traffic. The
// walk is a fixed-size array so the per-prefill call stays heap-free on
// the engine's admission path.
func prefillKernels(a model.Arch, dt model.DType, mPad, mReal int) [8]Kernel {
	bpp := dt.BytesPerParam()
	h := float64(a.Hidden)
	qW := a.Heads * a.HeadDim
	kvW := a.KVHeads * a.HeadDim
	mf := float64(mPad)
	act := 2.0 // fp16 activations
	kvLayerBytes := float64(a.KVBytesPerToken()) / float64(a.Layers)

	kernels := [8]Kernel{
		{
			Name: "qkv_proj", Kind: GEMM, Repeat: a.Layers,
			M: mPad, N: qW + 2*kvW, K: a.Hidden,
			FLOPs: 2 * mf * float64(qW+2*kvW) * h,
			Bytes: float64(qW+2*kvW)*h*bpp + mf*(h+float64(qW+2*kvW))*act,
		},
		{
			Name: "attention", Kind: Attention, Repeat: a.Layers,
			FLOPs: 4 * mf * mf * float64(qW),
			Bytes: float64(mReal)*kvLayerBytes*2 + mf*float64(qW)*act*2,
		},
		{
			Name: "o_proj", Kind: GEMM, Repeat: a.Layers,
			M: mPad, N: a.Hidden, K: qW,
			FLOPs: 2 * mf * h * float64(qW),
			Bytes: h*float64(qW)*bpp + mf*(float64(qW)+h)*act,
		},
		{
			Name: "mlp_up_gate", Kind: GEMM, Repeat: a.Layers,
			M: mPad, N: 2 * a.Inter, K: a.Hidden,
			FLOPs: 2 * mf * float64(2*a.Inter) * h,
			Bytes: float64(2*a.Inter)*h*bpp + mf*(h+float64(2*a.Inter))*act,
		},
		{
			Name: "mlp_down", Kind: GEMM, Repeat: a.Layers,
			M: mPad, N: a.Hidden, K: a.Inter,
			FLOPs: 2 * mf * h * float64(a.Inter),
			Bytes: h*float64(a.Inter)*bpp + mf*(float64(a.Inter)+h)*act,
		},
		{
			Name: "norms_rotary", Kind: Elementwise, Repeat: a.Layers,
			Bytes: mf * h * act * 6,
		},
		// Logits for the last position only (vLLM computes the LM head on
		// the final token during prefill).
		{
			Name: "lm_head", Kind: GEMM,
			M: 1, N: a.Vocab, K: a.Hidden,
			FLOPs: 2 * float64(a.Vocab) * h,
			Bytes: float64(a.Vocab) * h * bpp,
		},
		{Name: "sampling", Kind: Sampling, Bytes: float64(a.Vocab) * 4},
	}
	return kernels
}

// Prefill times prompt processing for n tokens at the given batch size
// (the paper prefills at batch 1; batched prefill concatenates prompts).
func (s *Sim) Prefill(a model.Arch, dt model.DType, n, batch int) Result {
	if n <= 0 || batch <= 0 {
		return Result{Phase: PhasePrefill}
	}
	total := n * batch
	mPad := s.Device.PadM(total)
	res := Result{Phase: PhasePrefill, Tokens: total}
	var occTime float64
	kernels := prefillKernels(a, dt, mPad, total)
	for i := range kernels {
		k := kernels[i]
		t, occ := s.kernelTime(k, dt)
		reps := k.reps()
		elapsed := t * float64(reps)
		res.Time += elapsed
		res.FLOPs += k.TotalFLOPs()
		res.Bytes += k.TotalBytes()
		res.Kernels += reps
		occTime += occ * elapsed
	}
	d := s.Device
	if res.Time > 0 {
		res.ComputeUtil = res.FLOPs / res.Time / d.PeakFP16FLOPS
		res.BWUtil = res.Bytes / res.Time / d.MemBandwidth
		res.Occupancy = occTime / res.Time
	}
	return res
}

// decodeKernelsPerStep is the launch count charged per decode iteration
// per layer (QKV, attention, O, up/gate, down, norms, plus amortized
// head/sampling). This fixed cost is what separates the measured TBT from
// the pure bandwidth bound — on Orin it is the dominant non-memory term.
const decodeKernelsPerStep = 7

// DecodeStep times one decode iteration for a batch of sequences with the
// given context lengths (prompt + generated so far, per sequence).
func (s *Sim) DecodeStep(a model.Arch, dt model.DType, ctxs []int) Result {
	if len(ctxs) == 0 {
		return Result{Phase: PhaseDecode}
	}
	batch := len(ctxs)
	sumCtx := 0
	for _, c := range ctxs {
		if c < 0 {
			c = 0
		}
		sumCtx += c
	}
	return s.decodeAggregate(a, dt, batch, 1, float64(sumCtx))
}

// DecodeRun times n consecutive decode steps for a batch whose members all
// start at startCtx and grow by one token per step. It is the closed-form
// equivalent of calling DecodeStep n times (the sum over the arithmetic
// context series), used by the engine for long generations.
func (s *Sim) DecodeRun(a model.Arch, dt model.DType, startCtx, n, batch int) Result {
	if n <= 0 || batch <= 0 {
		return Result{Phase: PhaseDecode}
	}
	// Σ_{t=0}^{n-1} Σ_batch (startCtx + t) = batch · (n·startCtx + n(n−1)/2)
	sumCtx := float64(batch) * (float64(n)*float64(startCtx) + float64(n)*float64(n-1)/2)
	return s.decodeAggregate(a, dt, batch, n, sumCtx)
}

// DecodeChunk times n consecutive decode steps for a batch whose members
// start at the given (possibly unequal) context lengths, each growing by
// one token per step. The engine uses it to advance a continuous batch
// between admission/completion events in one closed form.
func (s *Sim) DecodeChunk(a model.Arch, dt model.DType, ctxs []int, n int) Result {
	if n <= 0 || len(ctxs) == 0 {
		return Result{Phase: PhaseDecode}
	}
	// Σ_{t=0}^{n-1} Σ_b (ctx_b + t) = n·Σctx_b + B·n(n−1)/2
	sum := 0.0
	for _, c := range ctxs {
		if c < 0 {
			c = 0
		}
		sum += float64(c)
	}
	sumCtx := float64(n)*sum + float64(len(ctxs))*float64(n)*float64(n-1)/2
	return s.decodeAggregate(a, dt, len(ctxs), n, sumCtx)
}

// decodeAggregate is the shared closed form: batch sequences, n steps,
// with sumCtx the total context-token count summed over all (step, seq)
// pairs.
func (s *Sim) decodeAggregate(a model.Arch, dt model.DType, batch, n int, sumCtx float64) Result {
	d := s.Device
	nf := float64(n)
	bf := float64(batch)

	// Memory: weights once per step, KV history per (step, sequence),
	// activations and logits per sequence per step.
	weightBytes := float64(a.WeightBytes(dt))
	kvPerTok := float64(a.KVBytesPerToken())
	actBytes := float64(a.Hidden)*float64(a.Layers)*24 + float64(a.Vocab)*4
	bytes := nf*weightBytes + sumCtx*kvPerTok + nf*bf*actBytes

	// Compute: dense GEMV/GEMM work per (step, sequence) plus linear
	// attention. Small batches cannot feed the tensor cores; efficiency
	// saturates with batch size.
	densePerTok := a.DecodeFLOPs(0)
	attnFLOPs := 4 * float64(a.Layers) * float64(a.KVHeads) * float64(a.HeadDim) * sumCtx
	flops := nf*bf*densePerTok + attnFLOPs
	// Small decode batches cannot feed the tensor cores; efficiency
	// saturates with batch size. CPU SIMD has no such tile penalty.
	batchSat := 1.0
	if d.TileM > 1 {
		batchSat = bf / (bf + 24)
	}
	peak := s.computePeak(dt) * batchSat

	tm := bytes / d.EffectiveBandwidth()
	tc := flops / peak
	t := tm
	if tc > t {
		t = tc
	}
	launches := n * (a.Layers*decodeKernelsPerStep + 2)
	overlap := s.HostOverlap
	if overlap < 0 {
		overlap = 0
	}
	if overlap > 1 {
		overlap = 1
	}
	t += float64(launches) * d.KernelOverhead * (1 - overlap)

	res := Result{
		Phase:   PhaseDecode,
		Time:    t,
		FLOPs:   flops,
		Bytes:   bytes,
		Kernels: launches,
		Tokens:  n * batch,
	}
	if t > 0 {
		res.ComputeUtil = flops / t / d.PeakFP16FLOPS
		res.BWUtil = bytes / t / d.MemBandwidth
	}
	// Decode occupancy: GEMV row-parallel blocks over the hidden width,
	// widened by batching.
	occ := float64(a.Hidden) / 128 / float64(d.SMCount)
	occ *= 1 + 0.15*log2(bf)
	if occ > 1 {
		occ = 1
	}
	res.Occupancy = occ
	return res
}

// TBT returns the marginal time-between-tokens at a context length for
// batch-1 decoding — the quantity Fig 3b plots.
func (s *Sim) TBT(a model.Arch, dt model.DType, ctx int) float64 {
	return s.DecodeStep(a, dt, []int{ctx}).Time
}

func log2(x float64) float64 {
	if x <= 1 {
		return 0
	}
	n := 0.0
	for x > 1 {
		x /= 2
		n++
	}
	return n
}
