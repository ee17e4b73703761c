package fleet

import (
	"testing"

	"edgereasoning/internal/engine"
	"edgereasoning/internal/faults"
	"edgereasoning/internal/model"
	"edgereasoning/internal/workload"
)

// TestDispatchLogProperties is the dispatch-log property gate (run under
// -race in CI): over 8 seeds of generated fault schedules, with
// autoscaling on the even seeds, it inspects every replica's log right
// after each dispatch at clock t. Each log's estimated finishes must be
// non-decreasing in dispatch order — the invariant that makes the
// outstanding entries a suffix and a crash's abort set a suffix — and on
// every replica routable at t, the ones the dispatch consulted, the
// outstanding count must equal the number of entries estimated to finish
// after t.
func TestDispatchLogProperties(t *testing.T) {
	spec := model.MustLookup(model.Qwen25_1_5Bit)
	devices := DefaultDevices()
	var dispatches, routable int
	var failed bool
	afterTake = func(ro *router, now float64) {
		dispatches++
		for _, r := range ro.replicas {
			later := 0
			for i, e := range r.est {
				if i > 0 && e.finish < r.est[i-1].finish {
					t.Errorf("t=%.6f %s: estimate %d finishes at %.6f, before entry %d at %.6f",
						now, r.cfg.Name, i, e.finish, i-1, r.est[i-1].finish)
					failed = true
				}
				if e.finish > now {
					later++
				}
			}
			if r.routableAt(now) {
				routable++
				if r.outstanding() != later {
					t.Errorf("t=%.6f %s: routable with %d outstanding, want %d entries finishing later",
						now, r.cfg.Name, r.outstanding(), later)
					failed = true
				}
			}
		}
	}
	defer func() { afterTake = nil }()

	for seed := uint64(1); seed <= 8 && !failed; seed++ {
		const replicas = 3
		profile := workload.InteractiveAssistant(3, 200)
		profile.DeadlineSlack = 3
		profile.DeadlineSlackMax = 9
		reqs, err := workload.Generate(profile, seed)
		if err != nil {
			t.Fatal(err)
		}
		sched, err := faults.Generate(faults.GenConfig{
			Replicas: replicas, Horizon: 60,
			CrashRate: 1.5, RestartDelay: 5,
			StallRate: 1, StallDuration: 2,
			ThrottleRate: 1, ThrottleDuration: 8, ThrottleFactor: 2,
		}, seed)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Replicas: HeterogeneousReplicas(replicas, devices, spec),
			Policy:   LeastQueue,
			Faults:   &sched,
			Retry:    &RetryPolicy{},
			Health:   &HealthConfig{},
		}
		if seed%2 == 0 {
			cfg.Autoscale = &AutoscaleConfig{
				Min: 1, Max: replicas + 2, Spec: spec, Devices: devices,
				ColdStart: 2, DepthPerReplica: 2, Cooldown: 0.5,
			}
		}
		m, err := ServeSource(cfg, engine.NewSliceSource(reqs))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if m.Crashes == 0 {
			t.Fatalf("seed %d: degenerate schedule, no crashes", seed)
		}
	}
	if dispatches == 0 || routable == 0 {
		t.Fatalf("hook saw %d dispatches, %d routable checks", dispatches, routable)
	}
}
