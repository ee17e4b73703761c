package core

import (
	"testing"
	"testing/quick"

	"edgereasoning/internal/control"
	"edgereasoning/internal/data"
	"edgereasoning/internal/hw"
	"edgereasoning/internal/model"
)

func newTestPlanner(t *testing.T) *Planner {
	t.Helper()
	p, err := NewPlanner(hw.JetsonAGXOrin64GB(), data.MMLURedux, 7)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCandidatesEnumerateCatalog(t *testing.T) {
	p := newTestPlanner(t)
	cands, err := p.Candidates()
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) < 20 {
		t.Fatalf("only %d candidates; expected the full config grid", len(cands))
	}
	seenModels := map[model.ID]bool{}
	for i, c := range cands {
		seenModels[c.Model] = true
		if c.Latency <= 0 || c.Accuracy <= 0 || c.Accuracy > 1 {
			t.Errorf("candidate %s has implausible point (%.2fs, %.3f)", c.Label(), c.Latency, c.Accuracy)
		}
		if c.EnergyPerQ <= 0 || c.CostPerM <= 0 {
			t.Errorf("candidate %s has non-positive energy/cost", c.Label())
		}
		if i > 0 && cands[i].Latency < cands[i-1].Latency {
			t.Error("candidates must be sorted by latency")
		}
	}
	for _, id := range []model.ID{model.DSR1Qwen1_5B, model.DSR1Llama8B, model.DSR1Qwen14B, model.L1Max, model.Qwen25_7Bit} {
		if !seenModels[id] {
			t.Errorf("catalog model %s missing from candidates", id)
		}
	}
}

// Table X cross-check: the Base candidates' modeled latency lands near
// the measured per-question averages (18.92 / 87.16 / 259.02 s).
func TestCandidateLatenciesNearTableX(t *testing.T) {
	p := newTestPlanner(t)
	cands, err := p.Candidates()
	if err != nil {
		t.Fatal(err)
	}
	want := map[model.ID]float64{
		model.DSR1Qwen1_5B: 18.92,
		model.DSR1Llama8B:  87.16,
		model.DSR1Qwen14B:  259.02,
	}
	for _, c := range cands {
		if c.Policy.Kind != control.Base || c.SF != 1 {
			continue
		}
		w, ok := want[c.Model]
		if !ok {
			continue
		}
		if c.Latency < w*0.6 || c.Latency > w*1.45 {
			t.Errorf("%s Base latency = %.1fs, paper %.1fs (±40%%)", c.Model, c.Latency, w)
		}
	}
}

func TestPlanRespectsBudget(t *testing.T) {
	p := newTestPlanner(t)
	for _, budget := range []float64{2, 8, 25, 100, 400} {
		c, ok, err := p.Plan(budget)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("budget %.0fs: no recipe found", budget)
			continue
		}
		if c.Latency > budget {
			t.Errorf("budget %.0fs: plan %s exceeds it (%.1fs)", budget, c.Label(), c.Latency)
		}
	}
}

// Larger budgets can only improve the achievable accuracy.
func TestPlanMonotoneInBudget(t *testing.T) {
	p := newTestPlanner(t)
	cands, err := p.Candidates()
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for _, budget := range []float64{1, 5, 10, 20, 40, 80, 160, 320} {
		c, ok, err := PickWithinBudget(cands, budget)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			continue
		}
		if c.Accuracy < prev {
			t.Errorf("budget %.0fs: accuracy %.3f regressed below %.3f", budget, c.Accuracy, prev)
		}
		prev = c.Accuracy
	}
}

// §V-A regimes: tiny budgets are served by 1.5B-class models; generous
// budgets by DSR1-Qwen-14B.
func TestPlanRegimeEndpoints(t *testing.T) {
	p := newTestPlanner(t)
	cands, err := p.Candidates()
	if err != nil {
		t.Fatal(err)
	}
	fast, ok, _ := PickWithinBudget(cands, 3)
	if !ok {
		t.Fatal("no recipe within 3s")
	}
	fastSpec := model.MustLookup(fast.Model)
	if fastSpec.Arch.ParamCount() > 3e9 {
		t.Errorf("3s budget picked %s (%.1fB params); paper: only 1.5B-class fits",
			fast.Label(), float64(fastSpec.Arch.ParamCount())/1e9)
	}
	slow, ok, _ := PickWithinBudget(cands, 400)
	if !ok {
		t.Fatal("no recipe within 400s")
	}
	if slow.Model != model.DSR1Qwen14B && slow.Model != "dsr1-qwen-14b-w4" {
		t.Errorf("400s budget picked %s; paper: 14B dominates open budgets", slow.Label())
	}
}

// The energy budget binds: with a tight joule cap the planner must trade
// accuracy away relative to the unconstrained plan.
func TestPlanWithEnergyBudget(t *testing.T) {
	p := newTestPlanner(t)
	unconstrained, ok, err := p.PlanWithEnergy(300, 0)
	if err != nil || !ok {
		t.Fatalf("unconstrained: ok=%v err=%v", ok, err)
	}
	tight, ok, err := p.PlanWithEnergy(300, 100) // 100 J per question
	if err != nil || !ok {
		t.Fatalf("tight: ok=%v err=%v", ok, err)
	}
	if tight.EnergyPerQ > 100 {
		t.Errorf("energy cap violated: %.0f J", tight.EnergyPerQ)
	}
	if tight.Accuracy > unconstrained.Accuracy {
		t.Error("a binding energy cap cannot improve accuracy")
	}
	if unconstrained.EnergyPerQ <= 100 {
		t.Skip("cap did not bind at this calibration")
	}
	if tight.Accuracy == unconstrained.Accuracy {
		t.Error("cap should have changed the pick")
	}
}

func TestMaxTokensWithinPlanner(t *testing.T) {
	p := newTestPlanner(t)
	spec := model.MustLookup(model.DSR1Qwen14B)
	lm, err := p.latencyModel(spec)
	if err != nil {
		t.Fatal(err)
	}
	prompt := p.bank.MeanPromptTokens()
	n20, n60 := lm.MaxTokensWithin(prompt, 20), lm.MaxTokensWithin(prompt, 60)
	if n20 <= 0 || n60 <= n20 {
		t.Errorf("token budgets not increasing: %d @20s, %d @60s", n20, n60)
	}
}

func TestParetoFrontierProperties(t *testing.T) {
	p := newTestPlanner(t)
	cands, err := p.Candidates()
	if err != nil {
		t.Fatal(err)
	}
	front := ParetoFrontier(cands)
	if len(front) == 0 || len(front) > len(cands) {
		t.Fatalf("frontier size %d of %d", len(front), len(cands))
	}
	// Strictly increasing in both axes.
	for i := 1; i < len(front); i++ {
		if front[i].Latency <= front[i-1].Latency || front[i].Accuracy <= front[i-1].Accuracy {
			t.Error("frontier must strictly improve accuracy as latency grows")
		}
	}
	// No frontier member is dominated by any candidate.
	for _, f := range front {
		for _, c := range cands {
			if dominates(c, f) {
				t.Errorf("frontier member %s dominated by %s", f.Label(), c.Label())
			}
		}
	}
}

// dominates reports whether a dominates b: no worse on both axes and
// strictly better on at least one.
func dominates(a, b Candidate) bool {
	if a.Latency > b.Latency || a.Accuracy < b.Accuracy {
		return false
	}
	return a.Latency < b.Latency || a.Accuracy > b.Accuracy
}

func TestRegimesOf(t *testing.T) {
	p := newTestPlanner(t)
	cands, err := p.Candidates()
	if err != nil {
		t.Fatal(err)
	}
	regimes := RegimesOf(cands, []float64{5, 30})
	if len(regimes) != 3 {
		t.Fatalf("want 3 regimes, got %d", len(regimes))
	}
	if !regimes[0].Found || !regimes[2].Found {
		t.Error("sub-5s and >30s regimes must both be populated")
	}
	// The open-ended regime holds the highest accuracy.
	if regimes[2].Best.Accuracy <= regimes[0].Best.Accuracy {
		t.Error(">30s regime should beat sub-5s accuracy")
	}
	for _, r := range regimes {
		if r.String() == "" {
			t.Error("regime must render")
		}
	}
}

// Property: the frontier of a frontier is itself.
func TestFrontierIdempotentProperty(t *testing.T) {
	f := func(seed uint8) bool {
		cands := []Candidate{}
		x := float64(seed) + 1
		for i := 0; i < 20; i++ {
			x = x * 1.7
			if x > 1000 {
				x -= 997
			}
			cands = append(cands, Candidate{Latency: 1 + x/10, Accuracy: 0.2 + x/2000})
		}
		f1 := ParetoFrontier(cands)
		f2 := ParetoFrontier(f1)
		if len(f1) != len(f2) {
			return false
		}
		for i := range f1 {
			if f1[i] != f2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
