package engine

import (
	"fmt"
	"math"
	"testing"

	"edgereasoning/internal/hw"
	"edgereasoning/internal/model"
)

func newOrinEngine(t *testing.T, id model.ID) *Engine {
	t.Helper()
	e, err := New(Config{Spec: model.MustLookup(id), Device: hw.JetsonAGXOrin64GB()})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestGenerateSingleRequest(t *testing.T) {
	e := newOrinEngine(t, model.DSR1Llama8B)
	m, err := e.Generate(Request{ID: "q1", PromptTokens: 256, OutputTokens: 811})
	if err != nil {
		t.Fatal(err)
	}
	if m.PrefillTime <= 0 || m.DecodeTime <= 0 {
		t.Fatalf("non-positive phase times: %+v", m)
	}
	// Table X: DSR1-Llama-8B Base averages 87.16 s for ~811 tokens.
	if m.TotalTime() < 50 || m.TotalTime() > 130 {
		t.Errorf("8B/811-token latency = %.1fs, paper reports ~87s", m.TotalTime())
	}
	// Takeaway #2: decode dominates.
	if m.DecodeTime/m.TotalTime() < 0.98 {
		t.Errorf("decode share = %.3f, want > 0.98", m.DecodeTime/m.TotalTime())
	}
	if m.Energy() <= 0 {
		t.Error("energy must be positive")
	}
	// All KV freed afterwards.
	if st := e.CacheStats(); st.UsedBlocks != 0 {
		t.Errorf("leaked KV blocks: %+v", st)
	}
}

func TestGenerateTPSMatchesPaperOrder(t *testing.T) {
	// Table II TPS column ordering: 1.5B ≈ 9.3 > 8B ≈ 7.8 > 14B ≈ 4.7.
	// Our simulator reproduces the ordering 1.5B > 8B > 14B.
	var tps []float64
	for _, id := range []model.ID{model.DSR1Qwen1_5B, model.DSR1Llama8B, model.DSR1Qwen14B} {
		e := newOrinEngine(t, id)
		m, err := e.Generate(Request{ID: "q", PromptTokens: 128, OutputTokens: 512})
		if err != nil {
			t.Fatal(err)
		}
		tps = append(tps, m.TPS())
	}
	if !(tps[0] > tps[1] && tps[1] > tps[2]) {
		t.Errorf("TPS ordering wrong: %v", tps)
	}
}

func TestModelTooLargeRejected(t *testing.T) {
	// A fictitious 80B model cannot fit Orin's 64 GB in FP16.
	spec := model.MustLookup(model.DSR1Qwen14B)
	spec.Arch.Layers *= 6
	if _, err := New(Config{Spec: spec, Device: hw.JetsonAGXOrin64GB()}); err == nil {
		t.Error("oversized model must be rejected")
	}
}

func TestRunContinuousBatching(t *testing.T) {
	e := newOrinEngine(t, model.DSR1Qwen1_5B)
	var reqs []Request
	for i := 0; i < 8; i++ {
		reqs = append(reqs, Request{ID: fmt.Sprintf("q%d", i), PromptTokens: 64, OutputTokens: 100 + 20*i})
	}
	b, err := e.Run(reqs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Requests) != 8 {
		t.Fatalf("completed %d of 8 requests", len(b.Requests))
	}
	if b.WallTime <= 0 || b.TotalEnergy <= 0 {
		t.Error("wall time and energy must be positive")
	}
	wantTokens := 0
	for _, r := range reqs {
		wantTokens += r.PromptTokens + r.OutputTokens
	}
	if b.TotalTokens != wantTokens {
		t.Errorf("token accounting: got %d, want %d", b.TotalTokens, wantTokens)
	}
	if st := e.CacheStats(); st.UsedBlocks != 0 {
		t.Errorf("leaked KV blocks: %+v", st)
	}
}

// Table III headline: batching amortizes weight reads — batch 30 completes
// the same workload far faster than batch 1.
func TestBatchingSpeedsUpThroughput(t *testing.T) {
	mkReqs := func() []Request {
		var reqs []Request
		for i := 0; i < 30; i++ {
			reqs = append(reqs, Request{ID: fmt.Sprintf("q%d", i), PromptTokens: 100, OutputTokens: 800})
		}
		return reqs
	}
	e1 := newOrinEngine(t, model.DSR1Qwen1_5B)
	b1, err := e1.Run(mkReqs(), 1)
	if err != nil {
		t.Fatal(err)
	}
	e30 := newOrinEngine(t, model.DSR1Qwen1_5B)
	b30, err := e30.Run(mkReqs(), 30)
	if err != nil {
		t.Fatal(err)
	}
	speedup := b1.WallTime / b30.WallTime
	if speedup < 5 {
		t.Errorf("batch-30 speedup = %.1fx, paper reports ~11x", speedup)
	}
	if speedup > 30 {
		t.Errorf("batch-30 speedup = %.1fx is superlinear", speedup)
	}
	// Per-user TPS drops under batching (44 -> 21.2 in Table III).
	if b30.UserTPS() >= b1.UserTPS() {
		t.Errorf("user TPS should drop under batching: %.1f vs %.1f", b30.UserTPS(), b1.UserTPS())
	}
	// Total energy drops because wall time collapses.
	if b30.TotalEnergy >= b1.TotalEnergy {
		t.Errorf("batch-30 energy %.0f J should undercut batch-1 %.0f J", b30.TotalEnergy, b1.TotalEnergy)
	}
}

func TestRunRejectsEmptyPrompt(t *testing.T) {
	e := newOrinEngine(t, model.DSR1Qwen1_5B)
	if _, err := e.Run([]Request{{ID: "bad", PromptTokens: 0, OutputTokens: 5}}, 1); err == nil {
		t.Error("empty prompt must error")
	}
}

func TestFrameworkOverheadSlowsDecode(t *testing.T) {
	base, err := New(Config{Spec: model.MustLookup(model.DSR1Llama8B), Device: hw.JetsonAGXOrin64GB()})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := New(Config{
		Spec: model.MustLookup(model.DSR1Llama8B), Device: hw.JetsonAGXOrin64GB(),
		Framework: Overhead{Name: "HFT", PrefillFactor: 1.1, StepFactor: 1.0, PerStepHost: 0.012},
	})
	if err != nil {
		t.Fatal(err)
	}
	req := Request{ID: "q", PromptTokens: 64, OutputTokens: 128}
	mb, err := base.Generate(req)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := slow.Generate(req)
	if err != nil {
		t.Fatal(err)
	}
	ratio := ms.TotalTime() / mb.TotalTime()
	// Table IX: HF is ~1.12x slower than vLLM on 128-token decodes.
	if ratio < 1.05 || ratio > 1.25 {
		t.Errorf("HFT/vLLM ratio = %.3f, want ~1.12", ratio)
	}
}

func TestMetricsAccessors(t *testing.T) {
	m := Metrics{PrefillTime: 1, DecodeTime: 9, QueueTime: 2, OutputTokens: 90,
		PrefillEnergy: 10, DecodeEnergy: 40}
	if m.TotalTime() != 10 || m.Latency() != 12 || m.Energy() != 50 {
		t.Error("metrics arithmetic wrong")
	}
	if math.Abs(m.TPS()-9) > 1e-12 {
		t.Errorf("TPS = %v, want 9", m.TPS())
	}
}

// Energy conservation: the sum of per-request energies equals the batch
// total (within floating-point error).
func TestEnergyConservation(t *testing.T) {
	e := newOrinEngine(t, model.DSR1Qwen1_5B)
	var reqs []Request
	for i := 0; i < 6; i++ {
		reqs = append(reqs, Request{ID: fmt.Sprintf("q%d", i), PromptTokens: 64, OutputTokens: 80 + 30*i})
	}
	b, err := e.Run(reqs, 3)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, m := range b.Requests {
		sum += m.Energy()
	}
	if math.Abs(sum-b.TotalEnergy)/b.TotalEnergy > 1e-9 {
		t.Errorf("per-request energy sum %.3f != batch total %.3f", sum, b.TotalEnergy)
	}
}

// Wall time equals the sum of all phase advances: nothing happens off the
// simulated clock.
func TestWallTimeAccounting(t *testing.T) {
	e := newOrinEngine(t, model.DSR1Llama8B)
	before := e.Clock()
	b, err := e.Run([]Request{
		{ID: "a", PromptTokens: 100, OutputTokens: 50},
		{ID: "b", PromptTokens: 100, OutputTokens: 70},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs((e.Clock()-before)-b.WallTime) > 1e-9 {
		t.Errorf("clock advanced %.4f but WallTime = %.4f", e.Clock()-before, b.WallTime)
	}
}

// FCFS queueing: with maxBatch=1 the second request's queue time equals
// the first request's service time.
func TestQueueTimeFCFS(t *testing.T) {
	e := newOrinEngine(t, model.DSR1Qwen1_5B)
	b, err := e.Run([]Request{
		{ID: "first", PromptTokens: 64, OutputTokens: 100},
		{ID: "second", PromptTokens: 64, OutputTokens: 100},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	var first, second Metrics
	for _, m := range b.Requests {
		if m.ID == "first" {
			first = m
		} else {
			second = m
		}
	}
	if first.QueueTime != 0 {
		t.Errorf("first request queued %.3fs, want 0", first.QueueTime)
	}
	if math.Abs(second.QueueTime-first.TotalTime()) > 1e-9 {
		t.Errorf("second queue time %.3f != first service time %.3f", second.QueueTime, first.TotalTime())
	}
}

// KV capacity pressure: a flood of long requests must still complete (the
// scheduler defers admissions rather than failing) and leave no blocks
// behind.
func TestKVPressureDefersAdmission(t *testing.T) {
	e := newOrinEngine(t, model.DSR1Qwen14B) // biggest KV footprint
	var reqs []Request
	for i := 0; i < 40; i++ {
		reqs = append(reqs, Request{ID: fmt.Sprintf("long%d", i), PromptTokens: 4096, OutputTokens: 2048})
	}
	b, err := e.Run(reqs, 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Requests) != 40 {
		t.Fatalf("completed %d of 40", len(b.Requests))
	}
	if st := e.CacheStats(); st.UsedBlocks != 0 {
		t.Errorf("leaked blocks: %+v", st)
	}
	if b.PeakKVBlocks <= 0 {
		t.Error("peak KV must be recorded")
	}
}

// A single request larger than the whole cache is rejected with a clear
// error instead of deadlocking.
func TestOversizedRequestRejected(t *testing.T) {
	e := newOrinEngine(t, model.DSR1Qwen14B)
	total := e.CacheStats().TotalBlocks * 16 // tokens the cache can hold
	_, err := e.Run([]Request{{ID: "huge", PromptTokens: total, OutputTokens: total}}, 1)
	if err == nil {
		t.Fatal("impossible request must be rejected")
	}
	if st := e.CacheStats(); st.UsedBlocks != 0 {
		t.Errorf("rejection leaked blocks: %+v", st)
	}
}

func TestEngineClockAdvances(t *testing.T) {
	e := newOrinEngine(t, model.DSR1Qwen1_5B)
	if e.Clock() != 0 {
		t.Error("clock must start at 0")
	}
	_, err := e.Generate(Request{ID: "a", PromptTokens: 32, OutputTokens: 32})
	if err != nil {
		t.Fatal(err)
	}
	c1 := e.Clock()
	if c1 <= 0 {
		t.Error("clock must advance")
	}
	if err := e.Reset(); err != nil {
		t.Fatal(err)
	}
	if e.Clock() != 0 {
		t.Error("Reset must rewind the clock")
	}
}
