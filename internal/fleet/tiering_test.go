package fleet

import (
	"testing"

	"edgereasoning/internal/engine"
	"edgereasoning/internal/hw"
	"edgereasoning/internal/session"
)

func tieredOpts() engine.Config {
	return engine.Config{PrefixCache: true, DeviceBlocks: 64, HostTierBlocks: 128}
}

func sessHist(base uint64, n int) []uint64 {
	h := make([]uint64, n)
	for i := range h {
		h[i] = base + uint64(i)
	}
	return h
}

func sessTurn(id, sid string, arrival float64, hist []uint64, prompt, output int) engine.TimedRequest {
	tr := timed(id, arrival, prompt, output, 0)
	tr.SessionID = sid
	tr.PromptSyms = hist[:prompt]
	if prompt+output <= len(hist) {
		tr.OutputSyms = hist[prompt : prompt+output]
	}
	return tr
}

// TestSessionAffinityPrefersWarmHostOverCold pins the tentpole's routing
// rule: when a session must (re-)pin, a replica holding its history on
// the device cache wins, one holding it demoted in host DRAM beats a
// cold replica, and untiered fleets keep the legacy least-pinned pick.
func TestSessionAffinityPrefersWarmHostOverCold(t *testing.T) {
	mk := func(name string) *replica {
		r, err := newReplica(ReplicaConfig{
			Name: name, Spec: smallSpec(), Device: hw.JetsonAGXOrin64GB(),
		}.withDefaults(0), tieredOpts(), engine.FCFS, nil)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	cold, hostWarm, devWarm := mk("cold"), mk("host"), mk("dev")
	histA := sessHist(1<<40, 2048)
	histB := sessHist(1<<41, 2048)

	// hostWarm serves session A, then pressure from sessions B and C
	// demotes A's history to its host tier entirely (demotion is
	// leaf-first, so one pressure round leaves the chain head on device).
	histC := sessHist(1<<42, 2048)
	if _, err := hostWarm.eng.Serve([]engine.TimedRequest{sessTurn("a0", "sA", 0, histA, 512, 256)}, 4, engine.FCFS); err != nil {
		t.Fatal(err)
	}
	if _, err := hostWarm.eng.Serve([]engine.TimedRequest{sessTurn("b0", "sB", 1000, histB, 512, 256)}, 4, engine.FCFS); err != nil {
		t.Fatal(err)
	}
	if _, err := hostWarm.eng.Serve([]engine.TimedRequest{sessTurn("c0", "sC", 2000, histC, 512, 256)}, 4, engine.FCFS); err != nil {
		t.Fatal(err)
	}
	// devWarm serves session A with no pressure: history stays on device.
	if _, err := devWarm.eng.Serve([]engine.TimedRequest{sessTurn("a0", "sA", 0, histA, 512, 256)}, 4, engine.FCFS); err != nil {
		t.Fatal(err)
	}

	turn := sessTurn("a1", "sA", 3000, histA, 512+256+128, 64)
	if dev, host := hostWarm.eng.PeekPrefix(turn.PromptSyms); dev != 0 || host == 0 {
		t.Fatalf("setup: hostWarm peek = (%d, %d), want (0, >0)", dev, host)
	}
	if dev, _ := devWarm.eng.PeekPrefix(turn.PromptSyms); dev == 0 {
		t.Fatalf("setup: devWarm history not device-resident")
	}

	ro := &router{replicas: []*replica{cold, hostWarm, devWarm}, policy: SessionAffinity, tiered: true}
	if got := ro.choose([]int{0, 1, 2}, turn, 3000); got != 2 {
		t.Fatalf("full candidate set pinned to %d, want 2 (device-warm)", got)
	}
	delete(ro.sticky, "sA")
	ro.pinned[2]--
	// Device-warm replica saturated: host-warm must beat cold.
	if got := ro.choose([]int{0, 1}, turn, 3000); got != 1 {
		t.Fatalf("without device-warm candidate pinned to %d, want 1 (host-warm)", got)
	}

	// Untiered router on the same replicas: least-pinned tie falls to the
	// first candidate, warmth ignored.
	legacy := &router{replicas: []*replica{cold, hostWarm, devWarm}, policy: SessionAffinity}
	if got := legacy.choose([]int{0, 1, 2}, turn, 3000); got != 0 {
		t.Fatalf("untiered router pinned to %d, want 0 (legacy least-pinned)", got)
	}
}

// TestTieredFleetServesSessionsUnderPressure runs the full stack: a
// session stream over starved tiered replicas must complete with tier
// traffic surfaced in the fleet metrics, and generate exactly the same
// tokens as the untiered fleet.
func TestTieredFleetServesSessionsUnderPressure(t *testing.T) {
	reqs, err := session.Generate(session.AgentLoop(6, 3, 1), 7)
	if err != nil {
		t.Fatal(err)
	}
	run := func(hostBlocks int) Metrics {
		cfg := homogeneousFleet(2, SessionAffinity)
		cfg.PrefixCache = true
		cfg.DeviceBlocks = 192
		cfg.HostTierBlocks = hostBlocks
		m, err := Serve(cfg, reqs)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	on := run(1024)
	off := run(0)

	if on.Served != len(reqs) || off.Served != len(reqs) {
		t.Fatalf("served %d (on) / %d (off) of %d", on.Served, off.Served, len(reqs))
	}
	if on.TierDemotions == 0 || on.TierPromotions == 0 || on.HostHits == 0 || on.RestoreSeconds <= 0 {
		t.Fatalf("tier traffic missing from fleet metrics: %+v", on)
	}
	if off.TierDemotions != 0 || off.RestoreSeconds != 0 {
		t.Fatalf("untiered fleet reported tier traffic: demotions %d restore %.6f",
			off.TierDemotions, off.RestoreSeconds)
	}
	// Tiering moves blocks, not tokens.
	total := 0
	for _, r := range reqs {
		total += r.PromptTokens + r.OutputTokens
	}
	for _, m := range []Metrics{on, off} {
		got := 0
		for _, rm := range m.Replicas {
			got += rm.TotalTokens
		}
		if got != total {
			t.Fatalf("fleet token conservation broken: %d, want %d", got, total)
		}
	}
	if on.PrefixHitRate() < off.PrefixHitRate() {
		t.Fatalf("host tier lowered fleet hit rate: on %.4f off %.4f",
			on.PrefixHitRate(), off.PrefixHitRate())
	}
}
