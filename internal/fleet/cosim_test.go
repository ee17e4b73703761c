package fleet

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"edgereasoning/internal/engine"
	"edgereasoning/internal/faults"
	"edgereasoning/internal/hw"
	"edgereasoning/internal/session"
	"edgereasoning/internal/telemetry"
	"edgereasoning/internal/workload"
)

// TestFleetOfOneMatchesEngine is the co-simulation invariant: a fleet of
// one replica (FIFO admission, no faults) must report exactly what the
// bare engine reports on the same stream — every per-request latency and
// the total energy to 1e-12 relative — whatever its Capacity. A router
// that gated or timed dispatch on anything but the engine's real state
// would move the latencies as soon as Capacity binds.
func TestFleetOfOneMatchesEngine(t *testing.T) {
	assistant := func(qps float64) ([]engine.TimedRequest, error) {
		return workload.Generate(workload.InteractiveAssistant(qps, 2000), 7)
	}
	streams := []struct {
		name string
		gen  func() ([]engine.TimedRequest, error)
	}{
		{"assistant-1.0qps", func() ([]engine.TimedRequest, error) { return assistant(1.0) }},
		{"assistant-1.5qps", func() ([]engine.TimedRequest, error) { return assistant(1.5) }},
		{"agent-loop-prefix", func() ([]engine.TimedRequest, error) { return session.Generate(session.AgentLoop(8, 4, 2), 7) }},
	}
	const maxBatch = 4
	for _, st := range streams {
		name := st.name
		reqs, err := st.gen()
		if err != nil {
			t.Fatal(err)
		}
		prefix := name == "agent-loop-prefix"
		eng, err := engine.New(engine.Config{Spec: smallSpec(), Device: hw.JetsonAGXOrin64GB(), PrefixCache: prefix})
		if err != nil {
			t.Fatal(err)
		}
		want, err := eng.Serve(reqs, maxBatch, engine.FCFS)
		if err != nil {
			t.Fatal(err)
		}
		for _, capacity := range []int{maxBatch, 16, math.MaxInt} {
			label := fmt.Sprintf("cap%d", capacity)
			if capacity == math.MaxInt {
				label = "uncapped"
			}
			t.Run(name+"/"+label, func(t *testing.T) {
				cfg := homogeneousFleet(1, RoundRobin)
				cfg.Replicas[0].MaxBatch = maxBatch
				cfg.Replicas[0].Capacity = capacity
				cfg.PrefixCache = prefix
				m, err := Serve(cfg, reqs)
				if err != nil {
					t.Fatal(err)
				}
				got := m.Replicas[0]
				if got.Served != want.Served || len(got.Latencies) != len(want.Latencies) {
					t.Fatalf("served %d, engine %d", got.Served, want.Served)
				}
				for i, lat := range got.Latencies {
					if got.Requests[i].ID != want.Requests[i].ID || !near(lat, want.Latencies[i]) {
						t.Fatalf("completion %d: %s at latency %.9f, engine %s at %.9f",
							i, got.Requests[i].ID, lat, want.Requests[i].ID, want.Latencies[i])
					}
				}
				if !near(m.TotalEnergy, want.TotalEnergy) {
					t.Errorf("energy %.9f J, engine %.9f J", m.TotalEnergy, want.TotalEnergy)
				}
				if !near(m.P99Latency, want.P99Latency) {
					t.Errorf("p99 %.9f s, engine %.9f s", m.P99Latency, want.P99Latency)
				}
			})
		}
	}
}

func near(a, b float64) bool {
	return a == b || math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), math.Abs(b))
}

// TestCrashAbortsExactlyUnfinishedWork pins the crash contract against
// the engine's own record. A crash at c on a replica with a deep backlog
// must abort exactly the requests the engine had not completed by c
// (queued or in flight) and serve every one it had; the device prefix
// cache is empty right after c while the host tier survives or not per
// HostSurvivesCrash; and LostWorkSeconds equals the device time the
// aborted attempts had received.
func TestCrashAbortsExactlyUnfinishedWork(t *testing.T) {
	// Three long session turns on a starved tiered replica, one at a
	// time: by the third, the first session's history sits wholly in the
	// host tier. The crash lands inside the decode chunk that would
	// complete the third, with a fourth queued behind it.
	hists := []uint64{1 << 40, 1 << 41, 1 << 42, 1 << 43}
	var reqs []engine.TimedRequest
	for i, base := range hists {
		at := float64(min(i, 2)) * 1000
		reqs = append(reqs, sessTurn(fmt.Sprintf("w%d", i), fmt.Sprintf("s%d", i), at, sessHist(base, 2048), 512, 256))
	}
	for _, keepHost := range []bool{false, true} {
		// The undisturbed run fixes each request's completion time.
		base := homogeneousFleet(1, RoundRobin)
		base.Replicas[0].MaxBatch = 1
		base.PrefixCache, base.DeviceBlocks, base.HostTierBlocks = true, 64, 128
		clean, err := Serve(base, reqs)
		if err != nil {
			t.Fatal(err)
		}
		done := map[string]float64{}
		for i, m := range clean.Replicas[0].Requests {
			done[m.ID] = arrivalOf(reqs, m.ID) + clean.Replicas[0].Latencies[i]
		}
		c := done["w2"] - 1e-3

		cfg := base
		cfg.Faults = &faults.Schedule{HostSurvivesCrash: keepHost,
			Events: []faults.Event{{Replica: 0, Kind: faults.Crash, At: c}}}
		cfg.Trace = telemetry.New(telemetry.Config{SpanCap: 1 << 14})
		var ro *router
		afterTake = func(r *router, _ *replica, _ float64) { ro = r }
		m, err := Serve(cfg, reqs)
		afterTake = nil
		if err != nil {
			t.Fatal(err)
		}
		served := map[string]bool{}
		for _, ms := range m.Replicas[0].Requests {
			served[ms.ID] = true
		}
		for _, tr := range reqs {
			if want := done[tr.ID] <= c; served[tr.ID] != want {
				t.Errorf("keepHost=%v: %s served=%v, want %v (completes at %.3f, crash at %.3f)",
					keepHost, tr.ID, served[tr.ID], want, done[tr.ID], c)
			}
		}
		if m.Served != 2 || m.Aborted != 2 {
			t.Errorf("keepHost=%v: served %d aborted %d, want 2/2 (one in flight, one queued)", keepHost, m.Served, m.Aborted)
		}
		eng := ro.replicas[0].eng
		pm := eng.PrefixMetrics()
		if pm.Retained != 0 || eng.CacheStats().UsedBlocks != 0 {
			t.Errorf("keepHost=%v: device cache holds %d retained / %d used blocks after the crash",
				keepHost, pm.Retained, eng.CacheStats().UsedBlocks)
		}
		if keepHost != (pm.HostRetained > 0) {
			t.Errorf("keepHost=%v: %d host blocks survive", keepHost, pm.HostRetained)
		}
		// The device time each aborted attempt received is its restore,
		// prefill and decode spans, clipped at the crash.
		lost := 0.0
		for _, tr := range cfg.Trace.Tracks() {
			for _, s := range tr.Spans() {
				switch s.Kind {
				case telemetry.KindRestore, telemetry.KindPrefill, telemetry.KindDecode:
					if !served[s.ID] && s.Start < c {
						lost += math.Min(s.End, c) - s.Start
					}
				}
			}
		}
		if lost <= 0 || math.Abs(m.LostWorkSeconds-lost) > 1e-9 {
			t.Errorf("keepHost=%v: lost work %.9f s, want the %.9f s of device time the aborts received",
				keepHost, m.LostWorkSeconds, lost)
		}
	}
}

func arrivalOf(reqs []engine.TimedRequest, id string) float64 {
	for _, tr := range reqs {
		if tr.ID == id {
			return tr.Arrival
		}
	}
	return math.NaN()
}

// TestPredictBoundsFleetDispatch checks engine.Server.Predict where the
// router relies on it: at every DeadlineAware or Shed dispatch of a
// no-fault run, the chosen replica's predicted finish — the minimum over
// the free replicas under DeadlineAware, at or above Shed's certain-miss
// minimum — must not exceed the finish its engine realises, or Shed
// would drop work that could have made its deadline.
func TestPredictBoundsFleetDispatch(t *testing.T) {
	predicted := map[string]float64{}
	beforeTake = func(_ *router, r *replica, tr engine.TimedRequest, at float64) {
		predicted[tr.ID] = r.srv.Predict(tr, at)
	}
	defer func() { beforeTake = nil }()
	modes := []struct {
		policy    Policy
		admission Admission
	}{{DeadlineAware, FIFO}, {DeadlineAware, Shed}, {LeastQueue, Shed}}
	checked, ratio := 0, 0.0
	for _, replicas := range []int{2, 4} {
		for _, mode := range modes {
			for _, qps := range []float64{1, 3, 8} {
				for seed := uint64(1); seed <= 4; seed++ {
					name := fmt.Sprintf("%d/%s/%s/%.0fqps/seed%d", replicas, mode.policy, mode.admission, qps, seed)
					profile := workload.InteractiveAssistant(qps, 150)
					profile.DeadlineSlack, profile.DeadlineSlackMax = 2, 10
					reqs, err := workload.Generate(profile, seed)
					if err != nil {
						t.Fatal(err)
					}
					clear(predicted)
					cfg := Config{Replicas: HeterogeneousReplicas(replicas, DefaultDevices(), smallSpec()),
						Policy: mode.policy, Admission: mode.admission}
					m, err := Serve(cfg, reqs)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if len(predicted) != m.Served {
						t.Fatalf("%s: %d dispatches observed, %d served", name, len(predicted), m.Served)
					}
					for _, rm := range m.Replicas {
						for i, rq := range rm.Requests {
							arrival := arrivalOf(reqs, rq.ID)
							finish := arrival + rm.Latencies[i]
							if p := predicted[rq.ID]; p > finish+1e-9 {
								t.Fatalf("%s: %s on %s predicted to finish at %.9f, finished at %.9f",
									name, rq.ID, rm.Name, p, finish)
							}
							ratio += (predicted[rq.ID] - arrival) / rm.Latencies[i]
							checked++
						}
					}
				}
			}
		}
	}
	t.Logf("%d dispatches, mean predicted/realised latency %.3f", checked, ratio/float64(checked))
}

// TestDisjointPrefixCacheMatchesOff is the prefix cache's metamorphic
// invariant: when no two requests share a prompt symbol, turning the
// cache on — with or without a host tier, at a roomy, a tight and a
// starved device cache — must change nothing. Retained histories only
// occupy blocks admission can reclaim, so Served, every latency, the
// energy and the wall time must be bit-equal to the cache-off run, with
// no prefix hit.
func TestDisjointPrefixCacheMatchesOff(t *testing.T) {
	demotions := 0
	for seed := uint64(1); seed <= 4; seed++ {
		reqs, err := workload.Generate(workload.InteractiveAssistant(2.0, 300), seed)
		if err != nil {
			t.Fatal(err)
		}
		for i := range reqs {
			syms := make([]uint64, reqs[i].PromptTokens)
			for j := range syms {
				syms[j] = uint64(i+1)<<32 | uint64(j)
			}
			reqs[i].PromptSyms = syms
		}
		for _, blocks := range []int{0, 400, 150} {
			cfg := Config{Replicas: HeterogeneousReplicas(3, DefaultDevices(), smallSpec()),
				Policy: LeastQueue, DeviceBlocks: blocks}
			off, err := Serve(cfg, reqs)
			if err != nil {
				t.Fatal(err)
			}
			for _, host := range []int{0, 1024} {
				name := fmt.Sprintf("seed%d/blocks%d/host%d", seed, blocks, host)
				on := cfg
				on.PrefixCache, on.HostTierBlocks = true, host
				m, err := Serve(on, reqs)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if m.PrefixHits != 0 {
					t.Errorf("%s: %d prefix hits on disjoint prompts", name, m.PrefixHits)
				}
				if m.Served != off.Served || m.TotalEnergy != off.TotalEnergy || m.WallTime != off.WallTime {
					t.Errorf("%s: served/energy/wall %d/%v/%v, cache off %d/%v/%v", name,
						m.Served, m.TotalEnergy, m.WallTime, off.Served, off.TotalEnergy, off.WallTime)
				}
				for i, rm := range m.Replicas {
					if !reflect.DeepEqual(rm.Latencies, off.Replicas[i].Latencies) {
						t.Errorf("%s: %s latencies differ from the cache-off run", name, rm.Name)
					}
				}
				demotions += m.TierDemotions
			}
		}
	}
	if demotions == 0 {
		t.Fatal("no host-tier demotion on any leg — the starved tier was never exercised")
	}
	t.Logf("%d host-tier demotions", demotions)
}
