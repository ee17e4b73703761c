package llm

import (
	"sort"

	"edgereasoning/internal/data"
	"edgereasoning/internal/model"
)

// CurvePoint is one (mean output tokens, accuracy) measurement.
type CurvePoint struct {
	Tokens   float64
	Accuracy float64
	Config   string
}

// AccuracyCurve is the model's sequential-scaling response on a benchmark:
// accuracy as a function of average generated tokens (§V-C). It is built
// from the natural-completion calibration cells (base, soft limits, NR)
// and interpolated linearly between them.
type AccuracyCurve struct {
	Model  model.ID
	Bench  data.Benchmark
	Points []CurvePoint // sorted by Tokens ascending
}

// NaturalCurve assembles the sequential-scaling curve for a model. It
// returns false when fewer than two natural-completion cells exist.
func NaturalCurve(m model.ID, b data.Benchmark) (AccuracyCurve, bool) {
	keys := []string{"nr", "soft-128", "soft-256", "base", "direct"}
	var pts []CurvePoint
	for _, k := range keys {
		if beh, ok := Calibrated(m, b, k); ok {
			pts = append(pts, CurvePoint{Tokens: beh.MeanTokens, Accuracy: beh.Accuracy, Config: k})
		}
	}
	if len(pts) < 2 {
		return AccuracyCurve{}, false
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].Tokens < pts[j].Tokens })
	return AccuracyCurve{Model: m, Bench: b, Points: pts}, true
}

// At interpolates accuracy at a mean token count, clamping outside the
// measured range.
func (c AccuracyCurve) At(tokens float64) float64 {
	if len(c.Points) == 0 {
		return 0
	}
	if tokens <= c.Points[0].Tokens {
		return c.Points[0].Accuracy
	}
	last := c.Points[len(c.Points)-1]
	if tokens >= last.Tokens {
		return last.Accuracy
	}
	for i := 1; i < len(c.Points); i++ {
		if tokens <= c.Points[i].Tokens {
			a, b := c.Points[i-1], c.Points[i]
			f := (tokens - a.Tokens) / (b.Tokens - a.Tokens)
			return a.Accuracy + f*(b.Accuracy-a.Accuracy)
		}
	}
	return last.Accuracy
}

// SaturationTokens estimates where sequential scaling stops paying: the
// smallest measured token count achieving at least (1-slack) of the
// curve's maximum accuracy. The paper reports ~300 tokens for the 1.5B
// and ~400 for the 8B/14B models (§V-C).
func (c AccuracyCurve) SaturationTokens(slack float64) float64 {
	if len(c.Points) == 0 {
		return 0
	}
	maxAcc := 0.0
	for _, p := range c.Points {
		if p.Accuracy > maxAcc {
			maxAcc = p.Accuracy
		}
	}
	threshold := maxAcc * (1 - slack)
	// Scan interpolated curve left to right at 16-token resolution.
	lo := c.Points[0].Tokens
	hi := c.Points[len(c.Points)-1].Tokens
	for t := lo; t <= hi; t += 16 {
		if c.At(t) >= threshold {
			return t
		}
	}
	return hi
}

// InterpolateHardBudget synthesizes a Behavior for an arbitrary hard
// budget from the model's calibrated hard cells (and the Base cell as the
// unconstrained limit). Accuracy and the utilization ratio
// (mean tokens / budget) interpolate piecewise-linearly in budget space.
func InterpolateHardBudget(m model.ID, b data.Benchmark, budget int) (Behavior, bool) {
	type anchor struct {
		budget float64
		beh    Behavior
	}
	var anchors []anchor
	for _, k := range []struct {
		key    string
		budget float64
	}{{"hard-128", 128}, {"hard-256", 256}, {"hard-512", 512}} {
		if beh, ok := Calibrated(m, b, k.key); ok {
			anchors = append(anchors, anchor{k.budget, beh})
		}
	}
	base, haveBase := Calibrated(m, b, "base")
	if haveBase {
		// Beyond ~1.5x the base mean output, a hard cap no longer binds.
		anchors = append(anchors, anchor{base.MeanTokens * 1.5, base})
	}
	if len(anchors) < 2 || budget <= 0 {
		return Behavior{}, false
	}
	sort.Slice(anchors, func(i, j int) bool { return anchors[i].budget < anchors[j].budget })

	bf := float64(budget)
	out := Behavior{Sigma: anchors[0].beh.Sigma, Dispersion: anchors[0].beh.Dispersion, Interpolated: true}
	switch {
	case bf <= anchors[0].budget:
		// Scale below the smallest anchor: utilization ratio held, accuracy
		// shrunk proportionally toward chance.
		a := anchors[0]
		frac := bf / a.budget
		out.MeanTokens = a.beh.MeanTokens * frac
		out.Accuracy = a.beh.Accuracy * (0.5 + 0.5*frac)
	case bf >= anchors[len(anchors)-1].budget:
		last := anchors[len(anchors)-1]
		out.MeanTokens = last.beh.MeanTokens
		out.Accuracy = last.beh.Accuracy
	default:
		for i := 1; i < len(anchors); i++ {
			if bf <= anchors[i].budget {
				a, c := anchors[i-1], anchors[i]
				f := (bf - a.budget) / (c.budget - a.budget)
				out.MeanTokens = a.beh.MeanTokens + f*(c.beh.MeanTokens-a.beh.MeanTokens)
				out.Accuracy = a.beh.Accuracy + f*(c.beh.Accuracy-a.beh.Accuracy)
				break
			}
		}
	}
	if out.MeanTokens > bf {
		out.MeanTokens = bf
	}
	return out, true
}
