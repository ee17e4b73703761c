package engine

import (
	"math"
	"testing"

	"edgereasoning/internal/model"
)

func TestStallEndChainsWindows(t *testing.T) {
	fx := &FaultInjection{Stalls: []StallWindow{{From: 3, To: 6}, {From: 1, To: 3}, {From: 10, To: 11}}}
	cases := []struct{ in, want float64 }{
		{0, 0},   // before every window
		{1, 6},   // chains through the back-to-back windows
		{2.5, 6}, // mid-window
		{6, 6},   // window end is outside [From, To)
		{8, 8},   // gap between windows
		{10.5, 11},
	}
	for _, tc := range cases {
		if got := fx.StallEnd(tc.in); got != tc.want {
			t.Errorf("StallEnd(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestThrottleAtCompounds(t *testing.T) {
	fx := &FaultInjection{Throttles: []ThrottleWindow{
		{From: 0, To: 10, Factor: 2},
		{From: 5, To: 10, Factor: 3},
	}}
	if got := fx.ThrottleAt(1); got != 2 {
		t.Errorf("ThrottleAt(1) = %v, want 2", got)
	}
	if got := fx.ThrottleAt(7); got != 6 {
		t.Errorf("ThrottleAt(7) = %v, want 6 (overlap compounds)", got)
	}
	if got := fx.ThrottleAt(10); got != 1 {
		t.Errorf("ThrottleAt(10) = %v, want 1 (window end exclusive)", got)
	}
}

// TestServeFaultsOutsideRunAreInert pins the zero-perturbation contract:
// an injection whose windows never intersect the run leaves every metric
// identical to an undisturbed serve.
func TestServeFaultsOutsideRunAreInert(t *testing.T) {
	stream := []TimedRequest{
		timed("a", 0, 128, 60, 0),
		timed("b", 0.5, 96, 40, 0),
		timed("c", 2, 64, 80, 0),
	}
	base := newOrinEngine(t, model.DSR1Qwen1_5B)
	want, err := base.Serve(stream, 2, FCFS)
	if err != nil {
		t.Fatal(err)
	}
	faulted := newOrinEngine(t, model.DSR1Qwen1_5B)
	fx := &FaultInjection{
		Stalls:    []StallWindow{{From: 1e9, To: 1e9 + 5}},
		Throttles: []ThrottleWindow{{From: 1e9, To: 1e9 + 5, Factor: 4}},
	}
	src := NewSliceSource(stream)
	got, err := faulted.ServeSource(src, 2, FCFS, ServeOpts{Faults: fx})
	if err != nil {
		t.Fatal(err)
	}
	if base.Clock() != faulted.Clock() || got.TotalEnergy != want.TotalEnergy ||
		got.MeanLatency != want.MeanLatency || got.Events != want.Events {
		t.Fatalf("out-of-run faults perturbed the serve:\n got %+v\nwant %+v", got, want)
	}
}

// TestServeStallDelaysStart pins stall semantics: work that would start
// inside the window starts at its end, and the wait lands in the
// stalled request's latency.
func TestServeStallDelaysStart(t *testing.T) {
	stream := []TimedRequest{timed("a", 0, 64, 50, 0)}
	base := newOrinEngine(t, model.DSR1Qwen1_5B)
	want, err := base.Serve(stream, 1, FCFS)
	if err != nil {
		t.Fatal(err)
	}
	const stall = 5.0
	faulted := newOrinEngine(t, model.DSR1Qwen1_5B)
	fx := &FaultInjection{Stalls: []StallWindow{{From: 0, To: stall}}}
	got, err := faulted.ServeSource(NewSliceSource(stream), 1, FCFS, ServeOpts{Faults: fx})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Latencies[0]-(want.Latencies[0]+stall)) > 1e-9 {
		t.Errorf("stalled latency %.6f, want %.6f (+%v s window)", got.Latencies[0], want.Latencies[0]+stall, stall)
	}
	if got.TotalEnergy != want.TotalEnergy {
		t.Errorf("stall changed energy: %v vs %v (no work happens in a stall)", got.TotalEnergy, want.TotalEnergy)
	}
}

// TestServeThrottleStretchesDecodeNotEnergy pins throttle semantics: a
// factor-2 window covering the run doubles decode time while prefill
// time and total energy stay exactly as measured unthrottled.
func TestServeThrottleStretchesDecodeNotEnergy(t *testing.T) {
	stream := []TimedRequest{timed("a", 0, 64, 80, 0)}
	base := newOrinEngine(t, model.DSR1Qwen1_5B)
	want, err := base.Serve(stream, 1, FCFS)
	if err != nil {
		t.Fatal(err)
	}
	faulted := newOrinEngine(t, model.DSR1Qwen1_5B)
	fx := &FaultInjection{Throttles: []ThrottleWindow{{From: 0, To: 1e9, Factor: 2}}}
	got, err := faulted.ServeSource(NewSliceSource(stream), 1, FCFS, ServeOpts{Faults: fx})
	if err != nil {
		t.Fatal(err)
	}
	g, w := got.Requests[0], want.Requests[0]
	if math.Abs(g.DecodeTime-2*w.DecodeTime) > 1e-9 {
		t.Errorf("throttled decode %.6f, want %.6f (2x)", g.DecodeTime, 2*w.DecodeTime)
	}
	if g.PrefillTime != w.PrefillTime {
		t.Errorf("throttle touched prefill: %.6f vs %.6f", g.PrefillTime, w.PrefillTime)
	}
	if got.TotalEnergy != want.TotalEnergy {
		t.Errorf("throttled energy %.6f, want %.6f (same work, longer window)", got.TotalEnergy, want.TotalEnergy)
	}
}

// TestServeCrashWipeFiresBeforeMarkedRequest pins the crash-boundary
// contract: the prefix cache is wiped immediately before the marked
// request is admitted, so pre-crash history gives it no hit, and the
// fired marker is consumed.
func TestServeCrashWipeFiresBeforeMarkedRequest(t *testing.T) {
	e := newPrefixEngine(t, model.DSR1Qwen1_5B)
	history := make([]uint64, 256)
	for i := range history {
		history[i] = uint64(1000 + i)
	}
	warm, err := e.Serve([]TimedRequest{sessTimed("t1", 0, history, 128, 64)}, 1, FCFS)
	if err != nil {
		t.Fatal(err)
	}
	if warm.PrefixLookups != 1 {
		t.Fatalf("warm-up consulted the cache %d times, want 1", warm.PrefixLookups)
	}

	// Same prefix again, but marked as the replica's post-crash boundary.
	next := sessTimed("t2", e.Clock()+1, history, 192, 64)
	fx := &FaultInjection{CrashWipes: map[string]bool{"t2": false}}
	m, err := e.ServeSource(NewSliceSource([]TimedRequest{next}), 1, FCFS, ServeOpts{Faults: fx})
	if err != nil {
		t.Fatal(err)
	}
	if m.SavedPrefillTokens != 0 {
		t.Errorf("marked request saved %d prefill tokens, want 0 (cache wiped first)", m.SavedPrefillTokens)
	}
	if pm := e.PrefixMetrics(); pm.CrashWipes != 1 || pm.CrashDropped == 0 {
		t.Errorf("prefix metrics wipes %d dropped %d, want 1 wipe with drops", pm.CrashWipes, pm.CrashDropped)
	}
	if len(fx.CrashWipes) != 0 {
		t.Errorf("fired wipe marker not consumed: %v", fx.CrashWipes)
	}

	// The wiped cache rebuilds: the next turn over the same history hits.
	again, err := e.Serve([]TimedRequest{sessTimed("t3", e.Clock()+1, history, 192, 32)}, 1, FCFS)
	if err != nil {
		t.Fatal(err)
	}
	if again.SavedPrefillTokens == 0 {
		t.Error("post-crash traffic must rebuild the cache and hit again")
	}
}
