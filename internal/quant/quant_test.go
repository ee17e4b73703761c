package quant

import (
	"testing"

	"edgereasoning/internal/data"
	"edgereasoning/internal/gpusim"
	"edgereasoning/internal/hw"
	"edgereasoning/internal/model"
	"edgereasoning/internal/power"
)

func setup() (*gpusim.Sim, *power.Meter) {
	d := hw.JetsonAGXOrin64GB()
	return gpusim.New(d), power.NewMeter(d)
}

// Tables XVIII/XIX: quantization speeds up both phases, more for larger
// models (Takeaway #11: decode gains of 2.0x / 2.9x / 3.1x).
func TestCompareSpeedups(t *testing.T) {
	sim, meter := setup()
	var prevDecode float64
	for _, id := range []model.ID{model.DSR1Qwen1_5B, model.DSR1Llama8B, model.DSR1Qwen14B} {
		c, err := Compare(sim, meter, model.MustLookup(id), data.MMLURedux)
		if err != nil {
			t.Fatal(err)
		}
		if s := c.DecodeSpeedup(); s < 1.5 || s > 4.0 {
			t.Errorf("%s: decode speedup = %.2fx, paper reports 2.0-3.1x", id, s)
		}
		if s := c.BasePrefill.MeanTime / c.QuantPrefill.MeanTime; s < 1.2 || s > 5.0 {
			t.Errorf("%s: prefill speedup = %.2fx out of range", id, s)
		}
		if c.DecodeSpeedup() < prevDecode-0.3 {
			t.Errorf("%s: decode speedup should grow with model size", id)
		}
		prevDecode = c.DecodeSpeedup()
	}
}

// Fig 14: accuracy deltas are small — 1.04% (1.5B), 6.16% (8B), 0.62%
// (14B) relative loss.
func TestCompareAccuracyDeltas(t *testing.T) {
	sim, meter := setup()
	cases := []struct {
		id   model.ID
		want float64 // percent relative loss
		tol  float64
	}{
		{model.DSR1Qwen1_5B, 1.04, 1.0},
		{model.DSR1Llama8B, 6.16, 1.0},
		{model.DSR1Qwen14B, 0.62, 0.5},
	}
	for _, cse := range cases {
		c, err := Compare(sim, meter, model.MustLookup(cse.id), data.MMLURedux)
		if err != nil {
			t.Fatal(err)
		}
		if !c.HaveAccuracy {
			t.Fatalf("%s: no accuracy calibration", cse.id)
		}
		got := (c.BaseAccuracy - c.QuantAccuracy) / c.BaseAccuracy * 100
		if got < cse.want-cse.tol || got > cse.want+cse.tol {
			t.Errorf("%s: accuracy drop = %.2f%%, paper %.2f%%", cse.id, got, cse.want)
		}
	}
}

// Fig 14a: quantized models emit fewer tokens than FP16.
func TestQuantizedGeneratesFewerTokens(t *testing.T) {
	sim, meter := setup()
	for _, id := range []model.ID{model.DSR1Qwen1_5B, model.DSR1Llama8B, model.DSR1Qwen14B} {
		c, err := Compare(sim, meter, model.MustLookup(id), data.MMLURedux)
		if err != nil {
			t.Fatal(err)
		}
		if c.QuantTokens >= c.BaseTokens {
			t.Errorf("%s: W4 tokens (%.0f) should undercut FP16 (%.0f)", id, c.QuantTokens, c.BaseTokens)
		}
	}
}

// Figs 12/13: quantized models use less energy per token.
func TestQuantizedEnergyPerTokenLower(t *testing.T) {
	sim, meter := setup()
	c, err := Compare(sim, meter, model.MustLookup(model.DSR1Qwen14B), data.MMLURedux)
	if err != nil {
		t.Fatal(err)
	}
	if c.QuantDecode.MeanEnergy >= c.BaseDecode.MeanEnergy {
		t.Errorf("W4 decode energy/token (%.3f J) should undercut FP16 (%.3f J)",
			c.QuantDecode.MeanEnergy, c.BaseDecode.MeanEnergy)
	}
}

func TestCompareRejectsQuantizedInput(t *testing.T) {
	sim, meter := setup()
	q := model.MustLookup(model.DSR1Llama8B).Quantized()
	if _, err := Compare(sim, meter, q, data.MMLURedux); err == nil {
		t.Error("Compare must reject already-quantized specs")
	}
}

func TestSweepStatsSanity(t *testing.T) {
	sim, meter := setup()
	a := model.MustLookup(model.DSR1Llama8B).Arch
	s := DecodeSweep(sim, meter, a, model.FP16)
	if s.MeanTime <= 0 || s.TokPerSec <= 0 || s.MeanPower <= 0 || s.MeanEnergy <= 0 {
		t.Errorf("sweep stats must be positive: %+v", s)
	}
	// Decode throughput at batch 1 is bounded by TBT: ~9-10 tok/s for 8B.
	if s.TokPerSec < 5 || s.TokPerSec > 15 {
		t.Errorf("8B decode throughput = %.1f tok/s, paper reports ~9", s.TokPerSec)
	}
}
