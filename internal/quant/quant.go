// Package quant analyzes W4A16 (LLM-Compressor AWQ) quantization on the
// simulated platform (§V-F): the sweep aggregates behind Tables XVIII and
// XIX, and the accuracy/latency deltas of Fig 14. The mechanical effects
// (4-bit weight streaming, INT8 compute fallback) live in model.DType and
// gpusim; the behavioural effects (small accuracy loss, shorter outputs)
// live in the llm calibration cells. This package composes both into the
// paper's comparison artifacts.
package quant

import (
	"fmt"

	"edgereasoning/internal/data"
	"edgereasoning/internal/gpusim"
	"edgereasoning/internal/llm"
	"edgereasoning/internal/model"
	"edgereasoning/internal/power"
)

// SweepStats aggregates one phase across a sequence-length sweep, the way
// Tables XVIII/XIX report it.
type SweepStats struct {
	MeanTime   float64 // seconds per phase invocation, averaged over sweep
	TokPerSec  float64 // throughput over the whole sweep
	MeanPower  float64 // watts, time-weighted
	MeanEnergy float64 // joules per token
}

// PrefillSweep averages prefill behaviour over input lengths
// [128, 4096] (Table XVIII's protocol).
func PrefillSweep(sim *gpusim.Sim, meter *power.Meter, a model.Arch, dt model.DType) SweepStats {
	lengths := []int{128, 256, 512, 1024, 2048, 4096}
	return aggregate(meter, func(yield func(gpusim.Result)) {
		for _, n := range lengths {
			yield(sim.Prefill(a, dt, n, 1))
		}
	})
}

// DecodeSweep averages decode behaviour at 512-token input over output
// lengths [128, 2048] (Table XIX's protocol).
func DecodeSweep(sim *gpusim.Sim, meter *power.Meter, a model.Arch, dt model.DType) SweepStats {
	lengths := []int{128, 256, 512, 1024, 2048}
	return aggregate(meter, func(yield func(gpusim.Result)) {
		for _, n := range lengths {
			yield(sim.DecodeRun(a, dt, 512, n, 1))
		}
	})
}

func aggregate(meter *power.Meter, sweep func(func(gpusim.Result))) SweepStats {
	var n int
	var time, tokens, energy float64
	sweep(func(r gpusim.Result) {
		n++
		time += r.Time
		tokens += float64(r.Tokens)
		energy += meter.Energy(r)
	})
	if n == 0 || time <= 0 {
		return SweepStats{}
	}
	return SweepStats{
		MeanTime:   time / float64(n),
		TokPerSec:  tokens / time,
		MeanPower:  energy / time,
		MeanEnergy: energy / tokens,
	}
}

// Comparison is one model's base-vs-quantized report (Fig 14).
type Comparison struct {
	Model model.ID

	BasePrefill, QuantPrefill SweepStats
	BaseDecode, QuantDecode   SweepStats

	// Accuracy and mean output tokens on a benchmark (from calibration).
	BaseAccuracy, QuantAccuracy float64
	BaseTokens, QuantTokens     float64
	HaveAccuracy                bool
}

// DecodeSpeedup returns base/quant mean decode time.
func (c Comparison) DecodeSpeedup() float64 {
	if c.QuantDecode.MeanTime <= 0 {
		return 0
	}
	return c.BaseDecode.MeanTime / c.QuantDecode.MeanTime
}

// Compare builds the full base-vs-W4 comparison for a spec, pulling
// accuracy from the benchmark's calibration cells when available.
func Compare(sim *gpusim.Sim, meter *power.Meter, spec model.Spec, bench data.Benchmark) (Comparison, error) {
	if spec.IsQuantized() {
		return Comparison{}, fmt.Errorf("quant: pass the base spec, not %s", spec.ID)
	}
	q := spec.Quantized()
	c := Comparison{
		Model:        spec.ID,
		BasePrefill:  PrefillSweep(sim, meter, spec.Arch, spec.DType),
		QuantPrefill: PrefillSweep(sim, meter, q.Arch, q.DType),
		BaseDecode:   DecodeSweep(sim, meter, spec.Arch, spec.DType),
		QuantDecode:  DecodeSweep(sim, meter, q.Arch, q.DType),
	}
	if base, ok := llm.Calibrated(spec.ID, bench, "base"); ok {
		if quant, ok2 := llm.Calibrated(q.ID, bench, "base"); ok2 {
			c.BaseAccuracy, c.QuantAccuracy = base.Accuracy, quant.Accuracy
			c.BaseTokens, c.QuantTokens = base.MeanTokens, quant.MeanTokens
			c.HaveAccuracy = true
		}
	}
	return c, nil
}
