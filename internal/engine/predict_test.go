// The Predict property test lives in the external test package: it
// streams internal/workload requests, and workload imports engine.
package engine_test

import (
	"fmt"
	"testing"

	"edgereasoning/internal/engine"
	"edgereasoning/internal/hw"
	"edgereasoning/internal/model"
	"edgereasoning/internal/workload"
)

// TestPredictBoundsRealisedFinish pins Server.Predict's contract: on a
// run without crashes or prefix hits, the finish it predicts for a
// request just before the request is pushed never exceeds the finish the
// engine then realises. It covers FCFS and EDF, MaxBatch 1, 4 and 8, 0.5
// to 6 QPS (idle to deep overload) and four seeds, undisturbed and under
// stall and throttle windows, on a roomy KV cache and on a 40-block one
// where admissions wait for blocks: windows and deferrals only delay
// work.
func TestPredictBoundsRealisedFinish(t *testing.T) {
	var faulted engine.FaultInjection
	for at := 7.0; at < 400; at += 23 {
		faulted.Stalls = append(faulted.Stalls, engine.StallWindow{From: at, To: at + 1.5})
		faulted.Throttles = append(faulted.Throttles, engine.ThrottleWindow{From: at + 9, To: at + 15, Factor: 2})
	}
	checked, ratio := 0, 0.0
	for _, fx := range []*engine.FaultInjection{nil, &faulted} {
		for _, blocks := range []int{0, 40} {
			for _, policy := range []engine.SchedPolicy{engine.FCFS, engine.EDF} {
				for _, maxBatch := range []int{1, 4, 8} {
					for _, qps := range []float64{0.5, 1, 2, 4, 6} {
						for seed := uint64(1); seed <= 4; seed++ {
							name := fmt.Sprintf("faults=%t/blocks%d/%s/batch%d/%.1fqps/seed%d",
								fx != nil, blocks, policy, maxBatch, qps, seed)
							n, r := checkPredictions(t, name, fx, blocks, policy, maxBatch, qps, seed)
							checked, ratio = checked+n, ratio+r
						}
					}
				}
			}
		}
	}
	t.Logf("%d predictions, mean predicted/realised latency %.3f", checked, ratio/float64(checked))
}

// checkPredictions serves one stream on a fresh engine, predicting each
// request just before pushing it, and fails on any prediction past the
// realised finish. It returns the predictions checked and the sum of
// their predicted/realised latency ratios.
func checkPredictions(t *testing.T, name string, fx *engine.FaultInjection, blocks int,
	policy engine.SchedPolicy, maxBatch int, qps float64, seed uint64) (int, float64) {
	t.Helper()
	p := workload.InteractiveAssistant(qps, 120)
	p.DeadlineSlack, p.DeadlineSlackMax = 2, 30
	reqs, err := workload.Generate(p, seed)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(engine.Config{Spec: model.MustLookup(model.Qwen25_1_5Bit),
		Device: hw.JetsonAGXOrin64GB(), DeviceBlocks: blocks})
	if err != nil {
		t.Fatal(err)
	}
	srv := eng.Start(maxBatch, policy, engine.ServeOpts{Faults: fx})
	predicted := make(map[string]float64, len(reqs))
	arrival := make(map[string]float64, len(reqs))
	for _, tr := range reqs {
		if err := srv.AdvanceTo(tr.Arrival); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		predicted[tr.ID] = srv.Predict(tr, tr.Arrival)
		arrival[tr.ID] = tr.Arrival
		srv.Push(tr)
	}
	sm, err := srv.Finish()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if sm.Served != len(reqs) {
		t.Fatalf("%s: served %d of %d", name, sm.Served, len(reqs))
	}
	ratio := 0.0
	for i, m := range sm.Requests {
		finish := arrival[m.ID] + sm.Latencies[i]
		if predicted[m.ID] > finish+1e-9 {
			t.Fatalf("%s: %s predicted to finish at %.9f, finished at %.9f",
				name, m.ID, predicted[m.ID], finish)
		}
		ratio += (predicted[m.ID] - arrival[m.ID]) / sm.Latencies[i]
	}
	return len(sm.Requests), ratio
}
