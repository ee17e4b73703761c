package gpusim

import (
	"math"
	"testing"
	"testing/quick"

	"edgereasoning/internal/hw"
	"edgereasoning/internal/model"
)

func orinSim() *Sim { return New(hw.JetsonAGXOrin64GB()) }

func withinFrac(got, want, frac float64) bool {
	if want == 0 {
		return got == 0
	}
	return math.Abs(got-want)/math.Abs(want) <= frac
}

// Calibration anchor: the paper's measured time-between-tokens at short
// context (§IV-A: 0.024 s for 1.5B, 0.092–0.10 s for 8B, 0.186–0.187 s
// for 14B). The simulator must land within 15%.
func TestDecodeTBTMatchesPaper(t *testing.T) {
	s := orinSim()
	cases := []struct {
		id   model.ID
		want float64
	}{
		{model.DSR1Qwen1_5B, 0.024},
		{model.DSR1Llama8B, 0.096},
		{model.DSR1Qwen14B, 0.187},
	}
	for _, c := range cases {
		spec := model.MustLookup(c.id)
		got := s.TBT(spec.Arch, model.FP16, 512)
		if !withinFrac(got, c.want, 0.15) {
			t.Errorf("%s: TBT = %.4fs, want %.3fs ±15%%", c.id, got, c.want)
		}
	}
}

// Fig 3b: TBT grows only slightly with context (the paper measures +3.1%
// from 1 to 4k on the 8B model).
func TestTBTNearlyFlatInContext(t *testing.T) {
	s := orinSim()
	a := model.MustLookup(model.DSR1Llama8B).Arch
	t1 := s.TBT(a, model.FP16, 1)
	t4k := s.TBT(a, model.FP16, 4096)
	growth := (t4k - t1) / t1
	if growth <= 0 {
		t.Errorf("TBT must grow with context, got %.4f", growth)
	}
	if growth > 0.10 {
		t.Errorf("TBT grew %.1f%% over 4k context, paper measures ~3%%", growth*100)
	}
}

// Fig 2: prefill latency is stepped — constant within a 128-token tile,
// jumping at tile boundaries.
func TestPrefillSteppedPattern(t *testing.T) {
	s := orinSim()
	a := model.MustLookup(model.DSR1Llama8B).Arch
	inTile1 := s.Prefill(a, model.FP16, 129, 1).Time
	inTile2 := s.Prefill(a, model.FP16, 255, 1).Time
	nextTile := s.Prefill(a, model.FP16, 257, 1).Time
	if math.Abs(inTile1-inTile2) > 1e-4 {
		t.Errorf("within-tile latencies differ: %.4f vs %.4f", inTile1, inTile2)
	}
	if nextTile <= inTile2 {
		t.Errorf("crossing a tile boundary must increase latency: %.4f -> %.4f", inTile2, nextTile)
	}
}

// Table XVI GPU column: prefill at 512 tokens ≈ 0.095 / 0.554 / 0.764 s.
// The effective throughput implied (15–19 TFLOPs) is the key shape; allow
// a generous ±40% on absolute values.
func TestPrefillLatencyBallpark(t *testing.T) {
	s := orinSim()
	cases := []struct {
		id   model.ID
		want float64
	}{
		{model.DSR1Qwen1_5B, 0.095},
		{model.DSR1Llama8B, 0.554},
		{model.DSR1Qwen14B, 0.764},
	}
	for _, c := range cases {
		a := model.MustLookup(c.id).Arch
		got := s.Prefill(a, model.FP16, 512, 1).Time
		if !withinFrac(got, c.want, 0.40) {
			t.Errorf("%s prefill@512 = %.3fs, want %.3fs ±40%%", c.id, got, c.want)
		}
	}
}

// Table VII: with reasoning workloads, decode dominates >99% of latency.
func TestDecodeDominatesReasoningWorkload(t *testing.T) {
	s := orinSim()
	a := model.MustLookup(model.DSR1Llama8B).Arch
	prefill := s.Prefill(a, model.FP16, 256, 1)
	decode := s.DecodeRun(a, model.FP16, 256, 811, 1)
	share := decode.Time / (decode.Time + prefill.Time)
	if share < 0.98 {
		t.Errorf("decode share = %.3f, paper reports >0.995", share)
	}
}

// DecodeRun must equal the sum of individual DecodeSteps (closed form vs
// step loop).
func TestDecodeRunEqualsStepSum(t *testing.T) {
	s := orinSim()
	s.JitterFrac = 0
	a := model.MustLookup(model.DSR1Qwen1_5B).Arch
	const start, n, batch = 100, 50, 4
	run := s.DecodeRun(a, model.FP16, start, n, batch)
	var total float64
	ctxs := make([]int, batch)
	for step := 0; step < n; step++ {
		for b := range ctxs {
			ctxs[b] = start + step
		}
		total += s.DecodeStep(a, model.FP16, ctxs).Time
	}
	if !withinFrac(run.Time, total, 1e-9) {
		t.Errorf("DecodeRun = %.6fs, step sum = %.6fs", run.Time, total)
	}
}

// Parallel scaling (Fig 10a): decode latency grows sublinearly in batch —
// roughly 2× from SF=1 to SF=64.
func TestDecodeBatchSublinear(t *testing.T) {
	s := orinSim()
	a := model.MustLookup(model.DSR1Llama8B).Arch
	t1 := s.DecodeRun(a, model.FP16, 512, 128, 1).Time
	t64 := s.DecodeRun(a, model.FP16, 512, 128, 64).Time
	ratio := t64 / t1
	if ratio < 1.05 {
		t.Errorf("batch-64 decode should cost more than batch-1 (ratio %.2f)", ratio)
	}
	if ratio > 3.0 {
		t.Errorf("batch-64 decode ratio = %.2f, paper reports ~2x", ratio)
	}
}

// W4A16 decode speedup: the paper measures 2.0× (1.5B), 2.9× (8B),
// 3.1× (14B) on the decode sweep (Table XIX).
func TestQuantizedDecodeSpeedup(t *testing.T) {
	s := orinSim()
	cases := []struct {
		id      model.ID
		minWant float64
		maxWant float64
	}{
		{model.DSR1Qwen1_5B, 1.4, 2.8},
		{model.DSR1Llama8B, 2.2, 3.8},
		{model.DSR1Qwen14B, 2.4, 4.0},
	}
	for _, c := range cases {
		a := model.MustLookup(c.id).Arch
		base := s.DecodeRun(a, model.FP16, 512, 256, 1).Time
		w4 := s.DecodeRun(a, model.W4A16, 512, 256, 1).Time
		speedup := base / w4
		if speedup < c.minWant || speedup > c.maxWant {
			t.Errorf("%s: W4 decode speedup = %.2fx, want in [%.1f, %.1f]", c.id, speedup, c.minWant, c.maxWant)
		}
	}
}

// CPU substrate: Table XVII implies GPU decode is ~4–6× faster than CPU.
func TestCPUDecodeSlower(t *testing.T) {
	gpu := orinSim()
	cpu := New(hw.OrinCortexA78AE())
	a := model.MustLookup(model.DSR1Llama8B).Arch
	tg := gpu.DecodeRun(a, model.FP16, 512, 128, 1).Time
	tc := cpu.DecodeRun(a, model.FP16, 512, 128, 1).Time
	ratio := tc / tg
	if ratio < 3 || ratio > 8 {
		t.Errorf("CPU/GPU decode ratio = %.1f, Table XVII implies ~5x", ratio)
	}
}

func TestPrefillZeroAndNegative(t *testing.T) {
	s := orinSim()
	a := model.MustLookup(model.DSR1Qwen1_5B).Arch
	if s.Prefill(a, model.FP16, 0, 1).Time != 0 {
		t.Error("zero-token prefill must cost nothing")
	}
	if s.DecodeRun(a, model.FP16, 10, 0, 1).Time != 0 {
		t.Error("zero-step decode must cost nothing")
	}
	if s.DecodeStep(a, model.FP16, nil).Time != 0 {
		t.Error("empty-batch step must cost nothing")
	}
}

func TestUtilizationSignalsBounded(t *testing.T) {
	s := orinSim()
	a := model.MustLookup(model.DSR1Qwen14B).Arch
	for _, res := range []Result{
		s.Prefill(a, model.FP16, 1024, 1),
		s.DecodeRun(a, model.FP16, 512, 64, 8),
	} {
		if res.BWUtil < 0 || res.BWUtil > 1.001 {
			t.Errorf("BWUtil out of range: %v", res.BWUtil)
		}
		if res.ComputeUtil < 0 || res.ComputeUtil > 1.001 {
			t.Errorf("ComputeUtil out of range: %v", res.ComputeUtil)
		}
		if res.Occupancy < 0 || res.Occupancy > 1.001 {
			t.Errorf("Occupancy out of range: %v", res.Occupancy)
		}
	}
}

// Property: prefill latency is non-decreasing in input length.
func TestPrefillMonotoneProperty(t *testing.T) {
	s := orinSim()
	s.JitterFrac = 0
	a := model.MustLookup(model.DSR1Llama8B).Arch
	f := func(x, y uint16) bool {
		i, j := int(x%4096)+1, int(y%4096)+1
		if i > j {
			i, j = j, i
		}
		return s.Prefill(a, model.FP16, i, 1).Time <= s.Prefill(a, model.FP16, j, 1).Time+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: decode time is additive-monotone in steps and batch.
func TestDecodeMonotoneProperty(t *testing.T) {
	s := orinSim()
	a := model.MustLookup(model.DSR1Qwen1_5B).Arch
	f := func(n1, n2, b uint8) bool {
		steps1 := int(n1%100) + 1
		steps2 := steps1 + int(n2%100)
		batch := int(b%16) + 1
		t1 := s.DecodeRun(a, model.FP16, 64, steps1, batch).Time
		t2 := s.DecodeRun(a, model.FP16, 64, steps2, batch).Time
		tb := s.DecodeRun(a, model.FP16, 64, steps1, batch+1).Time
		return t2 >= t1 && tb >= t1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestKernelKindString(t *testing.T) {
	if GEMM.String() != "gemm" || Attention.String() != "attention" {
		t.Error("KernelKind String wrong")
	}
}
