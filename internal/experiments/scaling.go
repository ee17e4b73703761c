package experiments

import (
	"fmt"

	"edgereasoning/internal/control"
	"edgereasoning/internal/data"
	"edgereasoning/internal/gpusim"
	"edgereasoning/internal/hw"
	"edgereasoning/internal/llm"
	"edgereasoning/internal/model"
	"edgereasoning/internal/power"
	"edgereasoning/internal/tts"
)

func init() {
	register("fig9", fig9ParallelAccuracy)
	register("fig10", fig10ParallelCost)
}

// fig9Models is the Fig 9 lineup: the DSR1 trio plus the budget-aware L1.
func fig9Models() []model.ID {
	return []model.ID{model.DSR1Qwen1_5B, model.DSR1Llama8B, model.DSR1Qwen14B, model.L1Max}
}

// fig9ParallelAccuracy reproduces Fig 9: accuracy vs parallel scaling
// factor at output budgets 128 (panel a) and 512 (panel b), full
// MMLU-Redux with majority voting.
func fig9ParallelAccuracy(opts Options) ([]Table, error) {
	bank := data.MustLoad(data.MMLURedux, opts.Seed)
	sub := bank.Subsample(opts.sample(bank.Size()))
	var out []Table
	for _, panel := range []struct {
		suffix string
		budget int
	}{{"a", 128}, {"b", 512}} {
		t := Table{
			ID:      "fig9" + panel.suffix,
			Title:   fmt.Sprintf("Accuracy vs parallel scaling factor (output budget %d)", panel.budget),
			Columns: []string{"model", "sf", "accuracy_pct", "mean_agreement"},
		}
		for _, id := range fig9Models() {
			tw := llm.NewTwin(model.MustLookup(id), bank, opts.Seed)
			rs, err := tts.Sweep(tw, sub, control.HardLimit(panel.budget), tts.PaperScalingFactors())
			if err != nil {
				return nil, err
			}
			for _, r := range rs {
				t.AddRow(string(id), di(r.SF), pct(r.Accuracy), f2(r.MeanAgreement))
			}
		}
		out = append(out, t)
	}
	return out, nil
}

// fig10ParallelCost reproduces Fig 10: decode latency, energy per
// question, and power/GPU-utilization across parallel scaling factors at
// a fixed 128-token output budget (prefill once at batch 1, decode at
// batch SF — the §V-E protocol). Every branch decodes the same budget
// from the shared prompt, so the whole fan-out is one prefill plus one
// batch-SF decode run.
func fig10ParallelCost(opts Options) ([]Table, error) {
	d := hw.JetsonAGXOrin64GB()
	sim := gpusim.New(d)
	meter := power.NewMeter(d)
	t := Table{
		ID: "fig10", Title: "Parallel scaling on Orin: decode latency, energy/question, power, GPU utilization (128-token budget)",
		Columns: []string{"model", "sf", "decode_latency_s", "energy_j_per_q", "power_w", "gpu_util_pct"},
	}
	const prompt, budget = 512, 128
	for _, spec := range model.DSR1Family() {
		pre := sim.Prefill(spec.Arch, spec.DType, prompt, 1)
		for _, sf := range tts.PaperScalingFactors() {
			dec := sim.DecodeRun(spec.Arch, spec.DType, prompt, budget, sf)
			// Energy per question: the whole SF fan-out answers one question.
			energy := meter.Energy(pre) + meter.Energy(dec)
			avgPower := energy / (pre.Time + dec.Time)
			t.AddRow(string(spec.ID), di(sf), f2(dec.Time), f1(energy), f1(avgPower), f1(meter.GPUUtilization(dec)))
		}
	}
	return []Table{t}, nil
}
