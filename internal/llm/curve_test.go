package llm

import (
	"testing"

	"edgereasoning/internal/data"
	"edgereasoning/internal/model"
)

func TestNaturalCurveBuilds(t *testing.T) {
	c, ok := NaturalCurve(model.DSR1Qwen14B, data.MMLURedux)
	if !ok {
		t.Fatal("14B should have a natural curve on MMLU-Redux")
	}
	if len(c.Points) < 4 {
		t.Fatalf("want >= 4 points (nr, soft-128, soft-256, base), got %d", len(c.Points))
	}
	for i := 1; i < len(c.Points); i++ {
		if c.Points[i].Tokens < c.Points[i-1].Tokens {
			t.Error("curve points must be sorted by tokens")
		}
	}
}

func TestNaturalCurveMissing(t *testing.T) {
	if _, ok := NaturalCurve(model.Gemma7Bit, data.AIME2024); ok {
		t.Error("Gemma has no AIME calibration; curve must not build")
	}
}

func TestCurveAtInterpolatesAndClamps(t *testing.T) {
	c, _ := NaturalCurve(model.DSR1Qwen14B, data.MMLURedux)
	lo := c.Points[0]
	hi := c.Points[len(c.Points)-1]
	if got := c.At(lo.Tokens - 50); got != lo.Accuracy {
		t.Errorf("below range must clamp to first point: %v", got)
	}
	if got := c.At(hi.Tokens + 500); got != hi.Accuracy {
		t.Errorf("above range must clamp to last point: %v", got)
	}
	mid := (c.Points[0].Tokens + c.Points[1].Tokens) / 2
	got := c.At(mid)
	a, b := c.Points[0].Accuracy, c.Points[1].Accuracy
	if (got < a && got < b) || (got > a && got > b) {
		t.Errorf("interpolation at %v out of segment range: %v (%v..%v)", mid, got, a, b)
	}
}

// §V-C: sequential scaling saturates around a few hundred tokens.
func TestSaturationTokens(t *testing.T) {
	for _, id := range []model.ID{model.DSR1Llama8B, model.DSR1Qwen14B} {
		c, ok := NaturalCurve(id, data.MMLURedux)
		if !ok {
			t.Fatalf("%s: no curve", id)
		}
		sat := c.SaturationTokens(0.05)
		if sat < 100 || sat > 1400 {
			t.Errorf("%s: saturation at %.0f tokens, want a few hundred", id, sat)
		}
	}
}

func TestInterpolateHardBudgetBetweenAnchors(t *testing.T) {
	// Budget 192 sits between the 128 and 256 cells.
	beh, ok := InterpolateHardBudget(model.DSR1Qwen14B, data.MMLURedux, 192)
	if !ok {
		t.Fatal("interpolation failed")
	}
	lo := MustCalibrated(model.DSR1Qwen14B, data.MMLURedux, "hard-128")
	hi := MustCalibrated(model.DSR1Qwen14B, data.MMLURedux, "hard-256")
	if beh.Accuracy < lo.Accuracy || beh.Accuracy > hi.Accuracy {
		t.Errorf("interpolated accuracy %v outside [%v, %v]", beh.Accuracy, lo.Accuracy, hi.Accuracy)
	}
	if !beh.Interpolated {
		t.Error("interpolated cells must be flagged")
	}
}

func TestInterpolateHardBudgetExtremes(t *testing.T) {
	// Tiny budget: accuracy collapses toward chance-ish levels.
	small, ok := InterpolateHardBudget(model.DSR1Qwen14B, data.MMLURedux, 32)
	if !ok {
		t.Fatal("small-budget interpolation failed")
	}
	h128 := MustCalibrated(model.DSR1Qwen14B, data.MMLURedux, "hard-128")
	if small.Accuracy >= h128.Accuracy {
		t.Errorf("32-token budget (%.3f) should underperform 128 (%.3f)", small.Accuracy, h128.Accuracy)
	}
	// Huge budget: converges on Base behaviour.
	big, ok := InterpolateHardBudget(model.DSR1Qwen14B, data.MMLURedux, 100000)
	if !ok {
		t.Fatal("big-budget interpolation failed")
	}
	base := MustCalibrated(model.DSR1Qwen14B, data.MMLURedux, "base")
	if big.Accuracy != base.Accuracy {
		t.Errorf("unbounded budget accuracy %v, want base %v", big.Accuracy, base.Accuracy)
	}
	if _, ok := InterpolateHardBudget(model.DSR1Qwen14B, data.MMLURedux, 0); ok {
		t.Error("zero budget must fail")
	}
}

// Monotone-ish sanity: bigger hard budgets never hurt by much on the
// interpolated curve (the underlying data is mildly noisy; allow a small
// dip).
func TestInterpolateHardBudgetTrend(t *testing.T) {
	prev := 0.0
	for _, budget := range []int{64, 128, 256, 512, 1024, 2048} {
		beh, ok := InterpolateHardBudget(model.DSR1Llama8B, data.MMLURedux, budget)
		if !ok {
			t.Fatalf("budget %d failed", budget)
		}
		if beh.Accuracy < prev-0.05 {
			t.Errorf("budget %d: accuracy %.3f fell >5 points below previous %.3f", budget, beh.Accuracy, prev)
		}
		if beh.Accuracy > prev {
			prev = beh.Accuracy
		}
	}
}

func TestCalibratedConfigsList(t *testing.T) {
	keys := CalibratedConfigs(model.DSR1Llama8B, data.MMLURedux)
	want := map[string]bool{"base": true, "soft-128": true, "soft-256": true, "nr": true, "hard-128": true, "hard-256": true, "hard-512": true}
	if len(keys) != len(want) {
		t.Fatalf("got %d configs %v, want %d", len(keys), keys, len(want))
	}
	for _, k := range keys {
		if !want[k] {
			t.Errorf("unexpected config %q", k)
		}
	}
}
