// Benchmark harness: one testing.B target per table and figure in the
// paper (go test -bench=. -benchmem). Each bench regenerates the artifact
// through its experiment driver and reports the paper-relevant headline
// number as a custom metric, so `go test -bench` output doubles as a
// reproduction summary. Micro-benchmarks of the substrates follow at the
// end.
package edgereasoning

import (
	"context"
	"runtime"
	"strconv"
	"testing"
	"time"

	"edgereasoning/internal/control"
	"edgereasoning/internal/data"
	"edgereasoning/internal/experiments"
	"edgereasoning/internal/gpusim"
	"edgereasoning/internal/hw"
	"edgereasoning/internal/kvcache"
	"edgereasoning/internal/llm"
	"edgereasoning/internal/model"
	"edgereasoning/internal/tts"
)

// runExperiment executes a driver once per bench iteration.
func runExperiment(b *testing.B, id string, quick bool) []experiments.Table {
	b.Helper()
	var tables []experiments.Table
	var err error
	opts := experiments.Options{Seed: 7, Quick: quick}
	for i := 0; i < b.N; i++ {
		tables, err = experiments.Run(id, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	return tables
}

// cell parses a numeric table cell inside a bench.
func cell(b *testing.B, t experiments.Table, row, col int) float64 {
	b.Helper()
	v, err := strconv.ParseFloat(t.Rows[row][col], 64)
	if err != nil {
		b.Fatalf("cell (%d,%d) = %q: %v", row, col, t.Rows[row][col], err)
	}
	return v
}

func find(b *testing.B, tables []experiments.Table, id string) experiments.Table {
	b.Helper()
	for _, t := range tables {
		if t.ID == id {
			return t
		}
	}
	b.Fatalf("table %s missing", id)
	return experiments.Table{}
}

// ---------------------------------------------------------------- figures

func BenchmarkFig1Tradeoff(b *testing.B) {
	tables := runExperiment(b, "fig1", false)
	b.ReportMetric(float64(len(tables[0].Rows)), "configs")
}

func BenchmarkFig2PrefillLatency(b *testing.B) {
	tables := runExperiment(b, "fig2", false)
	t4 := find(b, tables, "table4")
	// Fitted 8B prefill constant c (paper: 0.104 s).
	b.ReportMetric(cell(b, t4, 1, 3), "fitted_c_8b_s")
}

func BenchmarkFig3DecodeLatency(b *testing.B) {
	tables := runExperiment(b, "fig3", false)
	t5 := find(b, tables, "table5")
	// Fitted TBT n for the three models (paper: 0.024 / ~0.096 / 0.187).
	b.ReportMetric(cell(b, t5, 0, 2), "tbt_1.5b_s")
	b.ReportMetric(cell(b, t5, 1, 2), "tbt_8b_s")
	b.ReportMetric(cell(b, t5, 2, 2), "tbt_14b_s")
}

func BenchmarkFig4PrefillPower(b *testing.B) {
	tables := runExperiment(b, "fig4", false)
	b.ReportMetric(float64(len(tables[0].Rows)), "points")
}

func BenchmarkFig5DecodePower(b *testing.B) {
	tables := runExperiment(b, "fig5", false)
	b.ReportMetric(float64(len(tables[0].Rows)), "points")
}

func BenchmarkFig6AccuracyVsTokens(b *testing.B) {
	tables := runExperiment(b, "fig6", false)
	b.ReportMetric(float64(len(tables)), "panels")
}

func BenchmarkFig7AccuracyVsLatency(b *testing.B) {
	tables := runExperiment(b, "fig7", false)
	b.ReportMetric(float64(len(tables)), "panels")
}

func BenchmarkFig8AccuracyVsCost(b *testing.B) {
	tables := runExperiment(b, "fig8", false)
	b.ReportMetric(float64(len(tables)), "panels")
}

func BenchmarkFig9ParallelAccuracy(b *testing.B) {
	tables := runExperiment(b, "fig9", true)
	t9a := find(b, tables, "fig9a")
	// First and last row of the 14B sweep at the 128 budget.
	var sf1, sf32 float64
	for i, row := range t9a.Rows {
		if row[0] == string(model.DSR1Qwen14B) {
			if row[1] == "1" {
				sf1 = cell(b, t9a, i, 2)
			}
			if row[1] == "32" {
				sf32 = cell(b, t9a, i, 2)
			}
		}
	}
	b.ReportMetric(sf32/sf1, "gain_14b_sf32_vs_sf1")
}

func BenchmarkFig10ParallelCost(b *testing.B) {
	tables := runExperiment(b, "fig10", false)
	b.ReportMetric(float64(len(tables[0].Rows)), "points")
}

// ----------------------------------------------------------------- tables

func BenchmarkTable2ModelComparison(b *testing.B) {
	tables := runExperiment(b, "table2", false)
	t2 := tables[0]
	// Reasoning-over-direct latency blowup (paper: >20x).
	var direct8b, reasoning8b float64
	for i, row := range t2.Rows {
		if row[0] == "Llama3.1-8B-it" {
			direct8b = cell(b, t2, i, 2)
		}
		if row[0] == "DSR1-Llama-8B" {
			reasoning8b = cell(b, t2, i, 2)
		}
	}
	b.ReportMetric(reasoning8b/direct8b, "reasoning_latency_blowup")
}

func BenchmarkTable3EdgeVsCloud(b *testing.B) {
	tables := runExperiment(b, "table3", false)
	t3 := tables[0]
	for i, row := range t3.Rows {
		if row[0] == "price_output_per_1M" {
			b.ReportMetric(cell(b, t3, i, 2), "edge_b1_usd_per_1M")
			b.ReportMetric(cell(b, t3, i, 3), "edge_b30_usd_per_1M")
		}
	}
}

func BenchmarkTable6LatencyMAPE(b *testing.B) {
	tables := runExperiment(b, "table6", false)
	t6 := tables[0]
	b.ReportMetric(cell(b, t6, 1, 3), "total_mape_8b_pct")
}

func BenchmarkTable7PrefillDecodeRatio(b *testing.B) {
	tables := runExperiment(b, "table7", true)
	t7 := tables[0]
	b.ReportMetric(cell(b, t7, 0, 5), "decode_share_1.5b_pct")
}

func BenchmarkTable8EnergyMAPE(b *testing.B) {
	tables := runExperiment(b, "table8", false)
	t8 := find(b, tables, "table8")
	b.ReportMetric(cell(b, t8, 1, 1), "total_mape_8b_pct")
}

func BenchmarkTable9Frameworks(b *testing.B) {
	tables := runExperiment(b, "table9", false)
	t9 := tables[0]
	b.ReportMetric(cell(b, t9, 2, 5), "vllm_speedup_vs_hft")
}

func BenchmarkTable10Table11Grid(b *testing.B) {
	t10 := runExperiment(b, "table10", false)
	t11 := runExperiment(b, "table11", false)
	b.ReportMetric(float64(len(t10[0].Rows)+len(t11[0].Rows)), "grid_rows")
}

func BenchmarkTable12MMLU15k(b *testing.B) {
	tables := runExperiment(b, "table12", true)
	b.ReportMetric(float64(len(tables[0].Rows)), "cells")
}

func BenchmarkNaturalPlan(b *testing.B) {
	tables := runExperiment(b, "naturalplan", true)
	b.ReportMetric(float64(len(tables)), "tables")
}

func BenchmarkCPUvsGPU(b *testing.B) {
	tables := runExperiment(b, "cpu", false)
	t17 := find(b, tables, "table17")
	b.ReportMetric(cell(b, t17, 0, 4), "gpu_speedup_8b_64tok")
}

func BenchmarkQuantizationSuite(b *testing.B) {
	tables := runExperiment(b, "quant", false)
	t19 := find(b, tables, "table19")
	// Decode speedup for the 14B (paper: ~3.1x).
	base := cell(b, t19, 4, 2)
	w4 := cell(b, t19, 5, 2)
	b.ReportMetric(base/w4, "decode_speedup_14b")
}

func BenchmarkParetoFrontier(b *testing.B) {
	tables := runExperiment(b, "pareto", false)
	front := find(b, tables, "pareto")
	b.ReportMetric(float64(len(front.Rows)), "frontier_size")
}

// ------------------------------------------------- extension ablations (§VI)

func BenchmarkAblationSpeculative(b *testing.B) {
	tables := runExperiment(b, "specdec", false)
	t := tables[0]
	best := 0.0
	for i := range t.Rows {
		if s := cell(b, t, i, 5); s > best {
			best = s
		}
	}
	b.ReportMetric(best, "best_speedup")
}

func BenchmarkAblationHostOffload(b *testing.B) {
	tables := runExperiment(b, "offload", false)
	t := tables[0]
	best := 0.0
	for i := range t.Rows {
		if r := cell(b, t, i, 3); r > best {
			best = r
		}
	}
	b.ReportMetric(best, "max_tbt_reduction_pct")
}

func BenchmarkAblationPowerModes(b *testing.B) {
	tables := runExperiment(b, "powermodes", false)
	b.ReportMetric(float64(len(tables[0].Rows)), "cells")
}

func BenchmarkAblationBatchSweep(b *testing.B) {
	tables := runExperiment(b, "batchsweep", false)
	t := tables[0]
	// Cost at the largest batch (the sweep's floor).
	b.ReportMetric(cell(b, t, len(t.Rows)-1, 5), "floor_usd_per_1M")
}

func BenchmarkSequentialSaturation(b *testing.B) {
	tables := runExperiment(b, "saturation", false)
	t := tables[0]
	b.ReportMetric(cell(b, t, 2, 1), "saturation_tokens_14b")
}

func BenchmarkRooflineAnalysis(b *testing.B) {
	tables := runExperiment(b, "roofline", false)
	t := find(b, tables, "roofline_machine")
	b.ReportMetric(cell(b, t, 2, 1), "machine_balance_flop_per_byte")
}

func BenchmarkQPSSweep(b *testing.B) {
	tables := runExperiment(b, "qps", true)
	t := tables[0]
	b.ReportMetric(cell(b, t, len(t.Rows)-1, 3), "p99_at_peak_qps_s")
}

func BenchmarkSchedulerComparison(b *testing.B) {
	tables := runExperiment(b, "sched", true)
	t := tables[0]
	// EDF hit rate at the higher load (last row).
	b.ReportMetric(cell(b, t, len(t.Rows)-1, 2), "edf_hit_rate_pct")
}

func BenchmarkReproductionScorecard(b *testing.B) {
	tables := runExperiment(b, "verify", true)
	t := tables[0]
	pass := 0
	for _, row := range t.Rows {
		if row[4] == "ok" {
			pass++
		}
	}
	b.ReportMetric(float64(pass), "anchors_passed")
	b.ReportMetric(float64(len(t.Rows)), "anchors_total")
}

// ------------------------------------------------------- suite scheduling

// benchSuite runs every registered driver through the concurrent runner
// at the given parallelism and fails on any driver error, so the
// sequential and parallel variants measure identical work.
func benchSuite(b *testing.B, parallelism int, quick bool) {
	b.Helper()
	ids := experiments.IDs()
	opts := experiments.Options{Seed: 7, Quick: quick}
	cfg := experiments.RunnerOptions{Parallelism: parallelism}
	for i := 0; i < b.N; i++ {
		results := experiments.RunAll(context.Background(), ids, opts, cfg)
		for _, r := range results {
			if r.Err != nil {
				b.Fatalf("%s: %v", r.ID, r.Err)
			}
		}
	}
}

// Full-suite wall clock, sequential vs. worker pool — the headline
// speedup of the concurrent runner on the complete paper reproduction.
func BenchmarkSuiteFullSequential(b *testing.B) { benchSuite(b, 1, false) }
func BenchmarkSuiteFullParallel(b *testing.B)   { benchSuite(b, runtime.GOMAXPROCS(0), false) }

// Quick-bank variants for fast comparisons on constrained machines.
func BenchmarkSuiteQuickSequential(b *testing.B) { benchSuite(b, 1, true) }
func BenchmarkSuiteQuickParallel(b *testing.B)   { benchSuite(b, runtime.GOMAXPROCS(0), true) }

// --------------------------------------------------- substrate micro-benches

func BenchmarkSimPrefill512(b *testing.B) {
	sim := gpusim.New(hw.JetsonAGXOrin64GB())
	a := model.MustLookup(model.DSR1Llama8B).Arch
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sim.Prefill(a, model.FP16, 512, 1)
	}
}

func BenchmarkSimDecodeRun(b *testing.B) {
	sim := gpusim.New(hw.JetsonAGXOrin64GB())
	a := model.MustLookup(model.DSR1Llama8B).Arch
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sim.DecodeRun(a, model.FP16, 512, 1024, 1)
	}
}

func BenchmarkKVCacheAppend(b *testing.B) {
	c, err := kvcache.New(kvcache.Config{BlockSize: 16, NumBlocks: 1 << 20, BytesPerToken: 131072})
	if err != nil {
		b.Fatal(err)
	}
	if err := c.Allocate("s", 1); err != nil {
		b.Fatal(err)
	}
	// Recycle the sequence before the cache fills (1M-block cache holds
	// ~16.7M tokens; restart every 8M appends).
	const recycleAt = 8 << 20
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%recycleAt == recycleAt-1 {
			if err := c.Free("s"); err != nil {
				b.Fatal(err)
			}
			if err := c.Allocate("s", 1); err != nil {
				b.Fatal(err)
			}
		}
		if err := c.AppendToken("s"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTwinGenerate(b *testing.B) {
	bank := data.MustLoad(data.MMLURedux, 7)
	tw := llm.NewTwin(model.MustLookup(model.DSR1Qwen14B), bank, 7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := tw.Generate(bank.Questions[i%bank.Size()], control.BasePolicy()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMajorityVote32(b *testing.B) {
	bank := data.MustLoad(data.MMLURedux, 7)
	tw := llm.NewTwin(model.MustLookup(model.DSR1Qwen14B), bank, 7)
	b.ReportAllocs()
	b.ResetTimer() // keep the bank load out of allocs/op at -benchtime 1x
	for i := 0; i < b.N; i++ {
		gens, err := tw.GenerateVotes(bank.Questions[i%bank.Size()], control.HardLimit(128), 32)
		if err != nil {
			b.Fatal(err)
		}
		tts.MajorityVote(gens)
	}
}

// BenchmarkTwinFig9Sweep is Fig 9's access pattern on the llm twin: one
// fresh twin per op sweeps SF 1…32 over the first 100 MMLU-Redux
// questions under a 128-token hard budget, so every question is asked at
// six scaling factors. A fresh twin per op keeps allocs/op independent
// of b.N.
func BenchmarkTwinFig9Sweep(b *testing.B) {
	bank := data.MustLoad(data.MMLURedux, 7)
	sub := bank.Subsample(100)
	spec := model.MustLookup(model.DSR1Qwen14B)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tw := llm.NewTwin(spec, bank, 7)
		if _, err := tts.Sweep(tw, sub, control.HardLimit(128), tts.PaperScalingFactors()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeployAndPlan(b *testing.B) {
	for i := 0; i < b.N; i++ {
		platform := NewOrinPlatform()
		if _, _, err := platform.PlanRecipe(MMLURedux, 20*time.Second); err != nil {
			b.Fatal(err)
		}
	}
}
