package fleet

import (
	"testing"

	"edgereasoning/internal/engine"
	"edgereasoning/internal/faults"
	"edgereasoning/internal/model"
	"edgereasoning/internal/workload"
)

// TestEngineCapacityProperties is the capacity property gate (run under
// -race in CI): over 8 seeds of generated fault schedules, with
// autoscaling on the even seeds, it inspects the fleet right after each
// dispatch at clock t. Every replica's outstanding count, as its engine
// reports it at t, must be at most its Capacity, and the request must
// have gone to a replica that is routable at t — not down, retired,
// failed, cold or breaker-blocked.
func TestEngineCapacityProperties(t *testing.T) {
	spec := model.MustLookup(model.Qwen25_1_5Bit)
	devices := DefaultDevices()
	var dispatches, full int
	var failed bool
	afterTake = func(ro *router, r *replica, now float64) {
		dispatches++
		if !r.routableAt(now) {
			t.Errorf("t=%.6f: dispatched to %s, which is not routable", now, r.cfg.Name)
			failed = true
		}
		for _, x := range ro.replicas {
			n := x.srv.OutstandingAt(now)
			if n > x.cfg.Capacity {
				t.Errorf("t=%.6f %s: %d outstanding, capacity %d", now, x.cfg.Name, n, x.cfg.Capacity)
				failed = true
			}
			if n == x.cfg.Capacity {
				full++
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
		for i := range cfg.Replicas {
			cfg.Replicas[i].Capacity = 6
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
	if dispatches == 0 || full == 0 {
		t.Fatalf("hook saw %d dispatches, %d replicas at capacity — the bound was never exercised", dispatches, full)
	}
}
