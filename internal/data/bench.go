// Package data synthesizes the benchmark question banks the paper
// evaluates on: MMLU-Redux (3,000 multiple-choice questions), full MMLU
// (15k), the three Natural-Plan tasks (exact-match planning), AIME2024,
// and MATH500. The real datasets are not shipped here; each bank is a
// statistical stand-in carrying what the simulation needs — per-question
// difficulty, prompt length, and (for multiple choice) a distractor
// -attractiveness profile that makes majority voting behave like it does
// on the real data (some questions have a seductive wrong answer that
// parallel scaling locks onto; see Fig 9).
package data

import (
	"fmt"

	"edgereasoning/internal/stats"
)

// Benchmark identifies a question bank.
type Benchmark string

// The paper's benchmarks.
const (
	MMLURedux           Benchmark = "mmlu-redux"
	MMLU                Benchmark = "mmlu"
	NaturalPlanCalendar Benchmark = "naturalplan-calendar"
	NaturalPlanMeeting  Benchmark = "naturalplan-meeting"
	NaturalPlanTrip     Benchmark = "naturalplan-trip"
	AIME2024            Benchmark = "aime2024"
	Math500             Benchmark = "math500"
)

// NaturalPlanTasks lists the three Natural-Plan sub-benchmarks.
func NaturalPlanTasks() []Benchmark {
	return []Benchmark{NaturalPlanCalendar, NaturalPlanMeeting, NaturalPlanTrip}
}

// Question is one synthetic benchmark item.
type Question struct {
	Index int
	// Difficulty in [0,1]; harder questions depress per-question accuracy
	// and lengthen reasoning.
	Difficulty float64
	// Choices is the option count for multiple choice, 0 for exact-match
	// (open answer) tasks.
	Choices int
	// PromptTokens is the tokenized prompt length fed to prefill.
	PromptTokens int
	// DistractorBias weights the wrong options (length Choices-1). A
	// dominant entry models a seductive wrong answer. Empty for
	// exact-match questions.
	DistractorBias []float64
	// WrongAttractor, for exact-match questions, is the probability that
	// two independent wrong samples produce the same wrong answer (answer
	// collision under voting).
	WrongAttractor float64
}

// Bank is a loaded benchmark.
type Bank struct {
	Benchmark Benchmark
	Questions []Question
}

// Size returns the question count.
func (b *Bank) Size() int { return len(b.Questions) }

// MeanPromptTokens is the bank's mean prompt length, truncated to whole
// tokens. An empty bank reports 1: every prompt costs at least one
// prefill token, so callers never plan around a zero-length prompt.
func (b *Bank) MeanPromptTokens() int {
	if b.Size() == 0 {
		return 1
	}
	sum := 0
	for _, q := range b.Questions {
		sum += q.PromptTokens
	}
	return sum / b.Size()
}

// profile captures how a benchmark's questions are synthesized.
type profile struct {
	n            int
	choices      int
	diffA, diffB float64 // Beta shape of the difficulty distribution
	promptMean   float64
	promptSigma  float64
	dominantProb float64 // probability a question has a dominant distractor
	wrongAttract float64 // exact-match wrong-answer collision rate
}

var profiles = map[Benchmark]profile{
	// 3,000 four-choice questions spanning elementary to graduate level.
	MMLURedux: {n: 3000, choices: 4, diffA: 2.0, diffB: 2.4, promptMean: 180, promptSigma: 0.35, dominantProb: 0.22},
	// The full 15k-question MMLU (Table XII).
	MMLU: {n: 15000, choices: 4, diffA: 2.0, diffB: 2.4, promptMean: 180, promptSigma: 0.35, dominantProb: 0.22},
	// Natural-Plan: long constraint-laden prompts, exact-match answers,
	// brutally hard for small models (Tables XIII–XV).
	NaturalPlanCalendar: {n: 1000, choices: 0, diffA: 4.5, diffB: 1.6, promptMean: 750, promptSigma: 0.25, wrongAttract: 0.05},
	NaturalPlanMeeting:  {n: 1000, choices: 0, diffA: 4.2, diffB: 1.8, promptMean: 820, promptSigma: 0.25, wrongAttract: 0.05},
	NaturalPlanTrip:     {n: 1600, choices: 0, diffA: 4.6, diffB: 1.5, promptMean: 780, promptSigma: 0.25, wrongAttract: 0.05},
	// AIME 2024: 30 competition problems, very long reasoning chains.
	AIME2024: {n: 30, choices: 0, diffA: 5.0, diffB: 2.0, promptMean: 150, promptSigma: 0.20, wrongAttract: 0.08},
	// MATH500.
	Math500: {n: 500, choices: 0, diffA: 2.6, diffB: 2.6, promptMean: 140, promptSigma: 0.25, wrongAttract: 0.08},
}

// Load synthesizes a benchmark bank. Generation is deterministic in
// (benchmark, seed): every run sees the identical question population.
func Load(b Benchmark, seed uint64) (*Bank, error) {
	p, ok := profiles[b]
	if !ok {
		return nil, fmt.Errorf("data: unknown benchmark %q", b)
	}
	rng := stats.NewRNG(seed, "data/"+string(b))
	bank := &Bank{Benchmark: b, Questions: make([]Question, p.n)}
	for i := range bank.Questions {
		q := Question{
			Index:      i,
			Difficulty: rng.Beta(p.diffA, p.diffB),
			Choices:    p.choices,
		}
		q.PromptTokens = int(rng.LogNormalMean(p.promptMean, p.promptSigma))
		if q.PromptTokens < 16 {
			q.PromptTokens = 16
		}
		if p.choices > 1 {
			q.DistractorBias = make([]float64, p.choices-1)
			if rng.Bernoulli(p.dominantProb) {
				// One seductive wrong answer taking most wrong-mass.
				dom := rng.IntN(p.choices - 1)
				for j := range q.DistractorBias {
					q.DistractorBias[j] = 0.5 + rng.Float64()*0.5
				}
				q.DistractorBias[dom] = 3 + rng.Float64()*5
			} else {
				for j := range q.DistractorBias {
					q.DistractorBias[j] = 0.8 + rng.Float64()*0.4
				}
			}
		} else {
			q.WrongAttractor = p.wrongAttract
		}
		bank.Questions[i] = q
	}
	return bank, nil
}

// MustLoad is Load for known-good benchmarks.
func MustLoad(b Benchmark, seed uint64) *Bank {
	bank, err := Load(b, seed)
	if err != nil {
		panic(err)
	}
	return bank
}

// Subsample returns the first n questions (the paper uses 150- and
// 50-question subsets for Table II and Table VI).
func (b *Bank) Subsample(n int) *Bank {
	if n > len(b.Questions) {
		n = len(b.Questions)
	}
	return &Bank{Benchmark: b.Benchmark, Questions: b.Questions[:n]}
}
