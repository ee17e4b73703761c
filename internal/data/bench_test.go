package data

import (
	"math"
	"testing"
)

func TestLoadSizes(t *testing.T) {
	cases := []struct {
		b    Benchmark
		want int
	}{
		{MMLURedux, 3000},
		{MMLU, 15000},
		{AIME2024, 30},
		{Math500, 500},
	}
	for _, c := range cases {
		bank := MustLoad(c.b, 1)
		if bank.Size() != c.want {
			t.Errorf("%s: size = %d, want %d", c.b, bank.Size(), c.want)
		}
	}
}

func TestLoadUnknown(t *testing.T) {
	if _, err := Load("nope", 1); err == nil {
		t.Error("unknown benchmark must fail")
	}
}

func TestLoadDeterministic(t *testing.T) {
	a := MustLoad(MMLURedux, 42)
	b := MustLoad(MMLURedux, 42)
	for i := range a.Questions {
		if a.Questions[i].Difficulty != b.Questions[i].Difficulty ||
			a.Questions[i].PromptTokens != b.Questions[i].PromptTokens {
			t.Fatal("same seed must reproduce the identical bank")
		}
	}
	c := MustLoad(MMLURedux, 43)
	if a.Questions[0].Difficulty == c.Questions[0].Difficulty {
		t.Error("different seeds should differ (almost surely)")
	}
}

func TestQuestionShape(t *testing.T) {
	bank := MustLoad(MMLURedux, 1)
	for _, q := range bank.Questions {
		if q.Difficulty < 0 || q.Difficulty > 1 {
			t.Fatalf("difficulty out of range: %v", q.Difficulty)
		}
		if q.Choices != 4 {
			t.Fatalf("MMLU questions must have 4 choices, got %d", q.Choices)
		}
		if len(q.DistractorBias) != 3 {
			t.Fatalf("want 3 distractor weights, got %d", len(q.DistractorBias))
		}
		if q.PromptTokens < 16 {
			t.Fatalf("prompt too short: %d", q.PromptTokens)
		}
	}
}

func TestExactMatchQuestions(t *testing.T) {
	bank := MustLoad(NaturalPlanCalendar, 1)
	for _, q := range bank.Questions[:50] {
		if q.Choices != 0 {
			t.Fatal("Natural-Plan must be exact-match (Choices == 0)")
		}
		if len(q.DistractorBias) != 0 {
			t.Fatal("exact-match questions carry no distractor profile")
		}
		if q.WrongAttractor <= 0 {
			t.Fatal("exact-match questions need a wrong-answer collision rate")
		}
	}
}

func TestPromptLengths(t *testing.T) {
	mmlu := MustLoad(MMLURedux, 1)
	np := MustLoad(NaturalPlanTrip, 1)
	mean := func(b *Bank) float64 {
		s := 0.0
		for _, q := range b.Questions {
			s += float64(q.PromptTokens)
		}
		return s / float64(b.Size())
	}
	mMMLU, mNP := mean(mmlu), mean(np)
	if math.Abs(mMMLU-180)/180 > 0.10 {
		t.Errorf("MMLU mean prompt = %.0f, want ~180", mMMLU)
	}
	if mNP < 2*mMMLU {
		t.Errorf("Natural-Plan prompts (%.0f) should be much longer than MMLU (%.0f)", mNP, mMMLU)
	}
}

func TestDominantDistractorRate(t *testing.T) {
	bank := MustLoad(MMLURedux, 1)
	dominant := 0
	for _, q := range bank.Questions {
		maxW, sumW := 0.0, 0.0
		for _, w := range q.DistractorBias {
			sumW += w
			if w > maxW {
				maxW = w
			}
		}
		if maxW/sumW > 0.6 {
			dominant++
		}
	}
	rate := float64(dominant) / float64(bank.Size())
	if rate < 0.15 || rate > 0.30 {
		t.Errorf("dominant-distractor rate = %.2f, want ~0.22", rate)
	}
}

func TestSubsample(t *testing.T) {
	bank := MustLoad(MMLURedux, 1)
	sub := bank.Subsample(150)
	if sub.Size() != 150 {
		t.Errorf("subsample size = %d, want 150", sub.Size())
	}
	if sub.Questions[0].Index != bank.Questions[0].Index {
		t.Error("subsample must take the first questions")
	}
	if bank.Subsample(1<<30).Size() != bank.Size() {
		t.Error("oversized subsample must clamp")
	}
}

func TestNaturalPlanTasksAndAll(t *testing.T) {
	if len(NaturalPlanTasks()) != 3 {
		t.Error("want 3 Natural-Plan tasks")
	}
	all := []Benchmark{MMLURedux, MMLU, NaturalPlanCalendar, NaturalPlanMeeting, NaturalPlanTrip, AIME2024, Math500}
	for _, b := range all {
		if _, err := Load(b, 1); err != nil {
			t.Errorf("benchmark %s is unloadable: %v", b, err)
		}
	}
}

func TestDifficultyDistributionByBenchmark(t *testing.T) {
	// Natural-Plan should skew much harder than MMLU.
	mean := func(b Benchmark) float64 {
		bank := MustLoad(b, 1)
		s := 0.0
		for _, q := range bank.Questions {
			s += q.Difficulty
		}
		return s / float64(bank.Size())
	}
	if mean(NaturalPlanTrip) <= mean(MMLURedux) {
		t.Error("Natural-Plan must be harder than MMLU on average")
	}
}

// TestMeanPromptTokens pins the one mean-prompt helper the planner, the
// platform API and the experiments share, including its empty-bank
// floor of one token.
func TestMeanPromptTokens(t *testing.T) {
	q := func(tokens ...int) []Question {
		out := make([]Question, len(tokens))
		for i, n := range tokens {
			out[i].PromptTokens = n
		}
		return out
	}
	cases := []struct {
		name string
		bank Bank
		want int
	}{
		{"empty bank", Bank{}, 1},
		{"one question", Bank{Questions: q(120)}, 120},
		{"exact mean", Bank{Questions: q(100, 200, 300)}, 200},
		{"truncated mean", Bank{Questions: q(100, 101)}, 100},
	}
	for _, c := range cases {
		if got := c.bank.MeanPromptTokens(); got != c.want {
			t.Errorf("%s: MeanPromptTokens() = %d, want %d", c.name, got, c.want)
		}
	}
}
