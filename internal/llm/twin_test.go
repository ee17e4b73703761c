package llm

import (
	"math"
	"testing"

	"edgereasoning/internal/control"
	"edgereasoning/internal/data"
	"edgereasoning/internal/model"
)

const testSeed = 7

// evaluate runs a twin over a bank at SF=1 and returns (accuracy, mean
// output tokens).
func evaluate(t *testing.T, id model.ID, bench data.Benchmark, pol control.Policy) (float64, float64) {
	t.Helper()
	bank := data.MustLoad(bench, testSeed)
	tw := NewTwin(model.MustLookup(id), bank, testSeed)
	correct, tokens := 0, 0
	for _, q := range bank.Questions {
		g, err := tw.Generate(q, pol)
		if err != nil {
			t.Fatalf("%s/%s/%s: %v", id, bench, pol.Key(), err)
		}
		if g.Correct {
			correct++
		}
		tokens += g.OutputTokens
	}
	n := float64(bank.Size())
	return float64(correct) / n, float64(tokens) / n
}

// The twins must reproduce the paper's appendix tables. Accuracy within
// ±2.5 points and mean tokens within ±8% at 3k questions.
func TestTwinReproducesTableXAndXI(t *testing.T) {
	cases := []struct {
		id       model.ID
		pol      control.Policy
		wantAcc  float64 // percent
		wantToks float64
	}{
		{model.DSR1Qwen1_5B, control.BasePolicy(), 38.3, 740.2},
		{model.DSR1Llama8B, control.BasePolicy(), 61.7, 811.1},
		{model.DSR1Qwen14B, control.BasePolicy(), 80.6, 1317.8},
		{model.L1Max, control.BasePolicy(), 43.8, 312.6},
		{model.DSR1Llama8B, control.SoftLimit(128), 60.4, 437.0},
		{model.DSR1Llama8B, control.HardLimit(128), 37.9, 76.3},
		{model.DSR1Qwen1_5B, control.HardLimit(128), 15.9, 91.5},
		{model.DSR1Qwen14B, control.HardLimit(256), 58.6, 112.9},
		{model.DSR1Qwen14B, control.NoReasoning(), 69.0, 180.7},
		{model.Qwen25_7Bit, control.DirectAnswer(), 60.9, 40.2},
		{model.Llama31_8Bit, control.DirectAnswer(), 58.3, 63.5},
	}
	for _, c := range cases {
		acc, toks := evaluate(t, c.id, data.MMLURedux, c.pol)
		if math.Abs(acc*100-c.wantAcc) > 2.5 {
			t.Errorf("%s %s: accuracy = %.1f%%, want %.1f ±2.5", c.id, c.pol.Key(), acc*100, c.wantAcc)
		}
		if math.Abs(toks-c.wantToks)/c.wantToks > 0.08 {
			t.Errorf("%s %s: mean tokens = %.1f, want %.1f ±8%%", c.id, c.pol.Key(), toks, c.wantToks)
		}
	}
}

func TestHardLimitNeverExceedsCap(t *testing.T) {
	bank := data.MustLoad(data.MMLURedux, testSeed)
	tw := NewTwin(model.MustLookup(model.DSR1Qwen14B), bank, testSeed)
	for _, q := range bank.Questions[:500] {
		g, err := tw.Generate(q, control.HardLimit(128))
		if err != nil {
			t.Fatal(err)
		}
		if g.OutputTokens > 128 {
			t.Fatalf("hard-128 emitted %d tokens", g.OutputTokens)
		}
		if g.OutputTokens == 128 && !g.Truncated {
			t.Error("cap-length generation should be marked truncated")
		}
	}
}

func TestTwinDeterministic(t *testing.T) {
	bank := data.MustLoad(data.MMLURedux, testSeed)
	q := bank.Questions[42]
	spec := model.MustLookup(model.DSR1Llama8B)
	a, err := NewTwin(spec, bank, testSeed).Generate(q, control.BasePolicy())
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTwin(spec, bank, testSeed).Generate(q, control.BasePolicy())
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same seed must reproduce: %+v vs %+v", a, b)
	}
}

func TestQuantizedTwinCells(t *testing.T) {
	// Table X quantized rows resolve through -w4 specs.
	acc, toks := evaluate(t, "dsr1-llama-8b-w4", data.MMLURedux, control.BasePolicy())
	if math.Abs(acc*100-57.9) > 2.5 {
		t.Errorf("8B-W4 accuracy = %.1f%%, want 57.9", acc*100)
	}
	if math.Abs(toks-549.1)/549.1 > 0.08 {
		t.Errorf("8B-W4 tokens = %.1f, want 549.1", toks)
	}
}

func TestMMLU15kCells(t *testing.T) {
	acc, toks := evaluate(t, model.DSR1Qwen14B, data.MMLU, control.BasePolicy())
	if math.Abs(acc*100-86.59) > 2.0 {
		t.Errorf("14B MMLU accuracy = %.2f%%, want 86.59", acc*100)
	}
	if math.Abs(toks-1145.4)/1145.4 > 0.08 {
		t.Errorf("14B MMLU tokens = %.1f, want 1145.4", toks)
	}
}

func TestNaturalPlanCells(t *testing.T) {
	acc, toks := evaluate(t, model.DSR1Qwen14B, data.NaturalPlanMeeting, control.BasePolicy())
	if math.Abs(acc*100-19.3) > 2.5 {
		t.Errorf("14B meeting accuracy = %.1f%%, want 19.3", acc*100)
	}
	if math.Abs(toks-1494)/1494 > 0.08 {
		t.Errorf("14B meeting tokens = %.0f, want 1494", toks)
	}
}

func TestUncalibratedCombinationErrors(t *testing.T) {
	bank := data.MustLoad(data.AIME2024, testSeed)
	tw := NewTwin(model.MustLookup(model.Gemma7Bit), bank, testSeed)
	if _, err := tw.Generate(bank.Questions[0], control.BasePolicy()); err == nil {
		t.Error("expected error for uncalibrated model/benchmark pair")
	}
}

func TestGenerateVotesShareQuestionState(t *testing.T) {
	bank := data.MustLoad(data.MMLURedux, testSeed)
	tw := NewTwin(model.MustLookup(model.DSR1Qwen14B), bank, testSeed)
	gens, err := tw.GenerateVotes(bank.Questions[7], control.HardLimit(128), 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 32 {
		t.Fatalf("want 32 votes, got %d", len(gens))
	}
	// Votes must vary (not all identical answers across a hard question)
	// over the bank; check globally that at least some questions split.
	split := 0
	for _, q := range bank.Questions[:200] {
		gs, err := tw.GenerateVotes(q, control.HardLimit(128), 8)
		if err != nil {
			t.Fatal(err)
		}
		first := gs[0].Answer
		for _, g := range gs[1:] {
			if g.Answer != first {
				split++
				break
			}
		}
	}
	if split < 50 {
		t.Errorf("only %d/200 questions produced split votes; voting would be vacuous", split)
	}
}

func TestVotesInvalidCount(t *testing.T) {
	bank := data.MustLoad(data.MMLURedux, testSeed)
	tw := NewTwin(model.MustLookup(model.DSR1Qwen14B), bank, testSeed)
	if _, err := tw.GenerateVotes(bank.Questions[0], control.BasePolicy(), 0); err == nil {
		t.Error("k=0 must error")
	}
}

func TestThinkAnswerSplit(t *testing.T) {
	bank := data.MustLoad(data.MMLURedux, testSeed)
	// Reasoning model: mostly thinking.
	tw := NewTwin(model.MustLookup(model.DSR1Llama8B), bank, testSeed)
	g, err := tw.Generate(bank.Questions[0], control.BasePolicy())
	if err != nil {
		t.Fatal(err)
	}
	if g.ThinkTokens <= g.AnswerTokens {
		t.Errorf("reasoning model should think more than it answers: %+v", g)
	}
	if g.ThinkTokens+g.AnswerTokens != g.OutputTokens {
		t.Error("split must conserve tokens")
	}
	// Direct model: no thinking.
	twd := NewTwin(model.MustLookup(model.Qwen25_7Bit), bank, testSeed)
	gd, err := twd.Generate(bank.Questions[0], control.DirectAnswer())
	if err != nil {
		t.Fatal(err)
	}
	if gd.ThinkTokens != 0 {
		t.Errorf("direct model must not think: %+v", gd)
	}
	// NR: stub think block.
	gnr, err := tw.Generate(bank.Questions[1], control.NoReasoning())
	if err != nil {
		t.Fatal(err)
	}
	if gnr.ThinkTokens == 0 || gnr.ThinkTokens > 16 {
		t.Errorf("NR think stub should be small and nonzero: %+v", gnr)
	}
}

func TestCensoredMeanMath(t *testing.T) {
	// With a cap far above the mean, the censored mean approaches the
	// uncensored one.
	mu, sigma := 5.0, 0.4
	uncensored := math.Exp(mu + sigma*sigma/2)
	if got := censoredMeanLog(mu, sigma, 1e9, math.Log(1e9)); math.Abs(got-uncensored)/uncensored > 1e-9 {
		t.Errorf("censored mean with huge cap = %v, want %v", got, uncensored)
	}
	// With the cap at the median, the mean must fall strictly below cap
	// and below the uncensored mean.
	capAt := math.Exp(mu)
	got := censoredMeanLog(mu, sigma, capAt, math.Log(capAt))
	if got >= capAt || got >= uncensored {
		t.Errorf("censored mean at median = %v, cap %v, uncensored %v", got, capAt, uncensored)
	}
}

func TestSolveCensoredMuRoundTrip(t *testing.T) {
	target, sigma, c := 91.5, 0.45, 128.0
	mu := solveCensoredMu(target, sigma, c)
	if got := censoredMeanLog(mu, sigma, c, math.Log(c)); math.Abs(got-target)/target > 0.001 {
		t.Errorf("round trip: censored mean at solve(%v) = %v", target, got)
	}
}

// solveCensoredMuReference is the original solver: all 60 bisection
// steps, with log(c) recomputed on every step. The production solver
// must return the same bits.
func solveCensoredMuReference(target, sigma, c float64) float64 {
	lo := math.Log(target) - sigma*sigma/2 - 2 // censored mean < uncensored
	hi := math.Log(c) + 4*sigma                // pushes censored mean -> c
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if censoredMeanLog(mid, sigma, c, math.Log(c)) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// The early exit and the hoisted log must not change a single bit of the
// root anywhere the twin can ask for one: every calibrated sigma (plus a
// few off-table spreads), hard caps from 128 to 4096 tokens, and targets
// from 1 token up to the 0.995·cap solve threshold.
func TestSolveCensoredMuBitIdentical(t *testing.T) {
	sigmaSet := map[float64]bool{0.2: true, 0.3: true, 0.6: true, 0.8: true}
	for _, beh := range calibration {
		sigmaSet[beh.Sigma] = true
	}
	sigmas := make([]float64, 0, len(sigmaSet))
	for s := range sigmaSet {
		sigmas = append(sigmas, s)
	}
	caps := []float64{128, 200, 256, 384, 512, 1000, 1024, 2048, 3000, 4096}
	checked := 0
	for _, sigma := range sigmas {
		for _, c := range caps {
			limit := c * 0.995
			targets := []float64{1, 1.5, math.Nextafter(limit, 0)}
			for i := 1; i < 200; i++ {
				targets = append(targets, limit*float64(i)/200)
			}
			for _, target := range targets {
				if target < 1 || target >= limit {
					continue
				}
				got := solveCensoredMu(target, sigma, c)
				want := solveCensoredMuReference(target, sigma, c)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("solveCensoredMu(%v, %v, %v) = %v (%#x), reference %v (%#x)",
						target, sigma, c, got, math.Float64bits(got), want, math.Float64bits(want))
				}
				checked++
			}
		}
	}
	if checked < 10000 {
		t.Fatalf("grid checked only %d roots", checked)
	}
}

// Memoizing the root per Twin must not make a question's generations
// depend on what the Twin was asked before: a fresh Twin, a warm one
// asked the same thing again, and one that first sampled the question at
// SF 1 all produce identical SF-32 branches.
func TestGenerateVotesIndependentOfCache(t *testing.T) {
	bank := data.MustLoad(data.MMLURedux, testSeed)
	spec := model.MustLookup(model.DSR1Qwen14B)
	pol := control.HardLimit(128)
	warm := NewTwin(spec, bank, testSeed)
	primed := NewTwin(spec, bank, testSeed)
	for _, q := range bank.Questions[:20] {
		fresh, err := NewTwin(spec, bank, testSeed).GenerateVotes(q, pol, 32)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := warm.GenerateVotes(q, pol, 32); err != nil {
			t.Fatal(err)
		}
		again, err := warm.GenerateVotes(q, pol, 32)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := primed.GenerateVotes(q, pol, 1); err != nil {
			t.Fatal(err)
		}
		afterSF1, err := primed.GenerateVotes(q, pol, 32)
		if err != nil {
			t.Fatal(err)
		}
		for i := range fresh {
			if again[i] != fresh[i] || afterSF1[i] != fresh[i] {
				t.Fatalf("q%d branch %d: fresh %+v, warm %+v, after SF 1 %+v",
					q.Index, i, fresh[i], again[i], afterSF1[i])
			}
		}
	}
	// Every sampled question fell below the solve threshold, so each
	// cached one root, and the cached value is the reference solve's.
	if len(warm.muCache) != 20 {
		t.Fatalf("warm twin cached %d roots for 20 questions", len(warm.muCache))
	}
	for key, mu := range warm.muCache {
		if want := solveCensoredMuReference(key[0], key[1], key[2]); math.Float64bits(mu) != math.Float64bits(want) {
			t.Errorf("cached root for %v = %v, reference %v", key, mu, want)
		}
	}
}
