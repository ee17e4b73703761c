package fleet

import (
	"testing"

	"edgereasoning/internal/engine"
)

// TestWarmupFailBoundary pins the ReplicaConfig contract the autoscaler's
// warm-up accounting relies on: routability needs t >= WarmupDelay and
// t < FailAt, so FailAt == WarmupDelay is dead at birth and only
// FailAt > WarmupDelay opens a window.
func TestWarmupFailBoundary(t *testing.T) {
	const eps = 1e-9
	cases := []struct {
		name         string
		warmup, fail float64
		at           float64
		routable     bool
	}{
		{"warm replica at fail instant", 0, 10, 10, false},
		{"warm replica just before fail", 0, 10, 10 - eps, true},
		{"dead at birth: fail == warmup, at the boundary", 10, 10, 10, false},
		{"dead at birth: fail == warmup, before warmup", 10, 10, 10 - eps, false},
		{"dead at birth: fail == warmup, after fail", 10, 10, 10 + eps, false},
		{"dead at birth: fail below warmup", 10, 10 - eps, 10, false},
		{"window open: fail just above warmup", 10, 10 + eps, 10, true},
		{"window closed again past fail", 10, 10 + eps, 10 + eps, false},
	}
	for _, tc := range cases {
		r := &replica{cfg: ReplicaConfig{WarmupDelay: tc.warmup, FailAt: tc.fail}}
		if got := r.routableAt(tc.at); got != tc.routable {
			t.Errorf("%s: routableAt(%v) = %v, want %v", tc.name, tc.at, got, tc.routable)
		}
	}
}

// TestDeadAtBirthNeverCountsLive locks the autoscaler's side of the same
// boundary: a FailAt <= WarmupDelay replica never counts toward the live
// pool, and one with an open window counts only until FailAt.
func TestDeadAtBirthNeverCountsLive(t *testing.T) {
	dead := &replica{cfg: ReplicaConfig{WarmupDelay: 10, FailAt: 10}}
	for _, at := range []float64{0, 5, 10, 20} {
		if dead.liveAt(at) {
			t.Errorf("dead-at-birth replica counted live at t=%v", at)
		}
	}
	windowed := &replica{cfg: ReplicaConfig{WarmupDelay: 10, FailAt: 15}}
	if !windowed.liveAt(0) || !windowed.liveAt(12) {
		t.Error("replica with an open window must count live before FailAt")
	}
	if windowed.liveAt(15) {
		t.Error("replica must stop counting live at FailAt")
	}
}

// TestDeadAtBirthReplicaTakesNothing runs the boundary end to end: with
// FailAt == WarmupDelay the replica must take no traffic, and the
// warm-up must not hold the ingress waiting for a window that never
// opens.
func TestDeadAtBirthReplicaTakesNothing(t *testing.T) {
	cfg := homogeneousFleet(2, RoundRobin)
	cfg.Replicas[1].WarmupDelay = 5
	cfg.Replicas[1].FailAt = 5
	reqs := burst(8, 2, 0)
	m, err := Serve(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if m.Served != len(reqs) || m.Dropped != 0 {
		t.Fatalf("served %d dropped %d, want all served on the live replica", m.Served, m.Dropped)
	}
	if m.Replicas[1].Assigned != 0 {
		t.Errorf("dead-at-birth replica took %d requests", m.Replicas[1].Assigned)
	}

	// Alone, the same replica is a permanent outage from t=0.
	solo := homogeneousFleet(1, RoundRobin)
	solo.Replicas[0].WarmupDelay = 5
	solo.Replicas[0].FailAt = 5
	m, err = Serve(solo, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if m.Served != 0 || m.Dropped != len(reqs) {
		t.Errorf("served %d dropped %d, want everything dropped", m.Served, m.Dropped)
	}
}

// TestTotalOutageMidStreamConservation is the total-outage drain
// regression test: once every replica is permanently dead, the rest of
// the stream is dropped without rescanning the pool per request, and
// nothing is lost or double-counted.
func TestTotalOutageMidStreamConservation(t *testing.T) {
	cfg := homogeneousFleet(2, LeastQueue)
	cfg.Replicas[0].FailAt = 6
	cfg.Replicas[1].FailAt = 9
	reqs := burst(400, 0.05, 30) // arrivals 0..20s, fleet dead by t=9
	m, err := Serve(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if m.Served+m.Dropped != len(reqs) {
		t.Fatalf("served %d + dropped %d != offered %d", m.Served, m.Dropped, len(reqs))
	}
	if m.Served == 0 {
		t.Error("pre-outage arrivals must still be served")
	}
	if m.Dropped == 0 {
		t.Error("post-outage arrivals must be dropped")
	}
	if m.DeadlinesTotal != len(reqs) {
		t.Errorf("deadline accounting %d, want every deadline-bearing request counted (dropped count as missed)",
			m.DeadlinesTotal)
	}
	// The outage drop must also cover requests still waiting in the
	// ingress queue when the pool dies, not only later arrivals.
	var assigned int
	for _, rm := range m.Replicas {
		assigned += rm.Assigned
	}
	if assigned != m.Served {
		t.Errorf("assigned %d != served %d: outage must not strand dispatched work", assigned, m.Served)
	}
}

// TestRetireAtDrainBoundaryBilledOnce pins ReplicaSeconds accounting at
// the end-of-run drain: foldAutoscale retires remaining idle replicas
// and then bills every replica exactly once — a replica whose idle
// timer expires exactly at the wall is billed to that single instant
// (not to the wall AND the retirement), a mid-run retiree to its
// retirement, a failed replica to its FailAt, a survivor to the wall,
// and a dead-at-birth provision never bills negative time.
func TestRetireAtDrainBoundaryBilledOnce(t *testing.T) {
	mk := func(provisionedAt, estFreeAt float64, cfg ReplicaConfig) *replica {
		return &replica{cfg: cfg, provisionedAt: provisionedAt, estFreeAt: estFreeAt}
	}
	boundary := mk(0, 90, ReplicaConfig{Name: "boundary"}) // idle timer expires at exactly wall=100
	survivor := mk(50, 95, ReplicaConfig{Name: "survivor"})
	early := mk(20, 0, ReplicaConfig{Name: "early"})
	early.retired, early.retiredAt = true, 80
	failed := mk(0, 0, ReplicaConfig{Name: "failed", FailAt: 70})
	stillborn := mk(80, 80, ReplicaConfig{Name: "stillborn", FailAt: 70})

	ro := &router{replicas: []*replica{boundary, survivor, early, failed, stillborn}}
	as, err := newAutoscaler(&AutoscaleConfig{Min: 1, Max: 8, Spec: smallSpec(), IdleRetire: 10}, 5)
	if err != nil {
		t.Fatal(err)
	}
	out := Metrics{WallTime: 100, Replicas: make([]ReplicaMetrics, 5)}
	foldAutoscale(&out, ro, as)

	if !boundary.retired || boundary.retiredAt != 100 {
		t.Fatalf("boundary replica retired=%v at %.3f, want retirement at exactly the 100s wall",
			boundary.retired, boundary.retiredAt)
	}
	if survivor.retired {
		t.Fatal("Min floor must keep the last live replica")
	}
	// boundary 100-0, survivor 100-50, early 80-20, failed 70-0,
	// stillborn clamped to 0: each span billed exactly once.
	if want := 100.0 + 50 + 60 + 70 + 0; out.ReplicaSeconds != want {
		t.Fatalf("ReplicaSeconds %.3f, want %.3f (each replica billed once)", out.ReplicaSeconds, want)
	}
	if out.ScaleDowns != 1 {
		t.Fatalf("scale-downs %d, want 1 (only the boundary replica retires at drain)", out.ScaleDowns)
	}
	if out.Replicas[0].RetiredAt != 100 {
		t.Fatalf("boundary replica metrics RetiredAt %.3f, want 100", out.Replicas[0].RetiredAt)
	}
}

// TestOutageDropPreservesFIFOSemantics cross-checks the O(1) drain
// against the per-request scan it replaced: a request whose arrival
// predates the outage but whose turn comes after it is dropped, exactly
// as the old head-of-line scan decided.
func TestOutageDropPreservesFIFOSemantics(t *testing.T) {
	cfg := homogeneousFleet(1, RoundRobin)
	cfg.Replicas[0].Capacity = 1
	cfg.Replicas[0].FailAt = 2
	reqs := []engine.TimedRequest{
		timed("first", 0, 1024, 600, 0), // dispatched at t=0, holds the replica well past FailAt
		timed("second", 0.5, 64, 10, 0),
	}
	m, err := Serve(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if m.Served != 1 || m.Dropped != 1 {
		t.Errorf("served %d dropped %d, want 1/1: the queued request's turn never comes", m.Served, m.Dropped)
	}
}

// TestWarmupCrashBoundary mirrors TestWarmupFailBoundary for CrashAt,
// the lossy counterpart of FailAt: routability needs t >= WarmupDelay
// and t < CrashAt, so CrashAt <= WarmupDelay is dead at birth — the
// replica crashes before (or the instant) it would come up, and with no
// restart it never opens a window.
func TestWarmupCrashBoundary(t *testing.T) {
	const eps = 1e-9
	cases := []struct {
		name          string
		warmup, crash float64
		at            float64
		routable      bool
	}{
		{"warm replica at crash instant", 0, 10, 10, false},
		{"warm replica just before crash", 0, 10, 10 - eps, true},
		{"dead at birth: crash == warmup, at the boundary", 10, 10, 10, false},
		{"dead at birth: crash == warmup, before warmup", 10, 10, 10 - eps, false},
		{"dead at birth: crash == warmup, after crash", 10, 10, 10 + eps, false},
		{"dead at birth: crash below warmup", 10, 10 - eps, 10, false},
		{"window open: crash just above warmup", 10, 10 + eps, 10, true},
		{"window closed again past crash", 10, 10 + eps, 10 + eps, false},
	}
	for _, tc := range cases {
		r := &replica{cfg: ReplicaConfig{WarmupDelay: tc.warmup, CrashAt: tc.crash}}
		if _, err := compileFaults(Config{}, []*replica{r}); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := r.routableAt(tc.at); got != tc.routable {
			t.Errorf("%s: routableAt(%v) = %v, want %v", tc.name, tc.at, got, tc.routable)
		}
		if live := r.liveAt(tc.at); tc.warmup >= tc.crash && live {
			t.Errorf("%s: dead-at-birth replica counted live at t=%v", tc.name, tc.at)
		}
	}
}

// TestCrashAtVsFailAtSemantics pins the behavioral difference between
// the two single-replica failure knobs on identical traffic: FailAt
// drains cleanly (in-flight work finishes, nothing is aborted), CrashAt
// is lossy (the in-flight suffix is aborted and, without a retry
// policy, dropped). Both conserve every request.
func TestCrashAtVsFailAtSemantics(t *testing.T) {
	reqs := burst(20, 0, 0) // deep t=0 backlog on both replicas
	run := func(mut func(*Config)) Metrics {
		cfg := homogeneousFleet(2, LeastQueue)
		mut(&cfg)
		m, err := Serve(cfg, reqs)
		if err != nil {
			t.Fatal(err)
		}
		if m.Served+m.Dropped != m.Offered || m.Offered != len(reqs) {
			t.Fatalf("conservation: served %d + dropped %d != offered %d", m.Served, m.Dropped, m.Offered)
		}
		return m
	}
	drained := run(func(c *Config) { c.Replicas[0].FailAt = 1 })
	if drained.Crashes != 0 || drained.Aborted != 0 || drained.LostWorkSeconds != 0 {
		t.Errorf("FailAt must drain, not crash: %d crashes, %d aborted, %.3f lost seconds",
			drained.Crashes, drained.Aborted, drained.LostWorkSeconds)
	}
	crashed := run(func(c *Config) { c.Replicas[0].CrashAt = 1 })
	if crashed.Crashes != 1 || crashed.Aborted == 0 {
		t.Fatalf("CrashAt must abort in-flight work: %d crashes, %d aborted", crashed.Crashes, crashed.Aborted)
	}
	if crashed.AbortedDropped != crashed.Aborted {
		t.Errorf("without a retry policy every abort drops: %d aborted, %d dropped",
			crashed.Aborted, crashed.AbortedDropped)
	}
	if crashed.LostWorkSeconds <= 0 {
		t.Error("a lossy crash must account lost work")
	}
	// The drained replica keeps everything it was assigned; the crashed
	// one loses its aborted suffix.
	if drained.Served <= crashed.Served {
		t.Errorf("drained leg served %d, crashed leg %d: a clean drain must not lose work",
			drained.Served, crashed.Served)
	}
}
