package engine

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"edgereasoning/internal/model"
)

// relDiff is |a−b| relative to the larger magnitude (0 when both are 0).
func relDiff(a, b float64) float64 {
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale == 0 {
		return 0
	}
	return math.Abs(a-b) / scale
}

// Decode time and energy must not depend on how the loop chunks a run. A
// request decoded alone runs as one chunk; the same request at batch 1
// with a second request queued behind it is cut into admitGrain-step
// chunks (the loop caps every chunk while anything is pending). Both runs
// must report the same decode time and energy for it.
func TestDecodeGrainInvariance(t *testing.T) {
	const prompt = 256
	for _, id := range []model.ID{model.DSR1Qwen1_5B, model.DSR1Qwen14B} {
		for _, out := range []int{17, 100, 811, 4000} {
			t.Run(fmt.Sprintf("%s/%d", id, out), func(t *testing.T) {
				req := Request{ID: "r", PromptTokens: prompt, OutputTokens: out}
				alone, err := newOrinEngine(t, id).Generate(req)
				if err != nil {
					t.Fatal(err)
				}
				sm, err := newOrinEngine(t, id).Serve([]TimedRequest{
					{Request: req},
					{Request: Request{ID: "queued", PromptTokens: prompt, OutputTokens: 1}},
				}, 1, FCFS)
				if err != nil {
					t.Fatal(err)
				}
				// Two prefills, the queued request's single decode step, and
				// the target's run cut into admitGrain-step chunks.
				if want := 3 + (out+admitGrain-1)/admitGrain; sm.Events != want {
					t.Fatalf("events = %d, want %d: the run was not chunked at the grain", sm.Events, want)
				}
				chunked := sm.Requests[0]
				if chunked.ID != "r" {
					t.Fatalf("first completion is %q, want r", chunked.ID)
				}
				if d := relDiff(alone.DecodeTime, chunked.DecodeTime); d > 1e-12 {
					t.Errorf("decode time: alone %.17g, chunked %.17g (rel %.2g)",
						alone.DecodeTime, chunked.DecodeTime, d)
				}
				if d := relDiff(alone.DecodeEnergy, chunked.DecodeEnergy); d > 1e-12 {
					t.Errorf("decode energy: alone %.17g J, chunked %.17g J (rel %.2g)",
						alone.DecodeEnergy, chunked.DecodeEnergy, d)
				}
			})
		}
	}
}

// Run is ServeSource with every arrival at the current clock: on a clock
// already past zero, its metrics must be element-identical to Serve of
// the same requests arriving at that clock.
func TestRunMatchesServeAtClock(t *testing.T) {
	var reqs []Request
	for i := 0; i < 12; i++ {
		reqs = append(reqs, Request{ID: fmt.Sprintf("q%d", i), PromptTokens: 64 + 40*i, OutputTokens: 90 + 57*i})
	}
	warm := Request{ID: "warm", PromptTokens: 100, OutputTokens: 50}
	for _, batch := range []int{1, 4, 8} {
		er := newOrinEngine(t, model.DSR1Qwen1_5B)
		es := newOrinEngine(t, model.DSR1Qwen1_5B)
		for _, e := range []*Engine{er, es} {
			if _, err := e.Generate(warm); err != nil {
				t.Fatal(err)
			}
		}
		got, err := er.Run(reqs, batch)
		if err != nil {
			t.Fatal(err)
		}
		timed := make([]TimedRequest, len(reqs))
		for i, r := range reqs {
			timed[i] = TimedRequest{Request: r, Arrival: es.Clock()}
		}
		want, err := es.Serve(timed, batch, FCFS)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want.BatchMetrics) {
			t.Errorf("batch %d: Run diverges from Serve at the clock:\nrun   %+v\nserve %+v", batch, got, want.BatchMetrics)
		}
		if er.Clock() != es.Clock() {
			t.Errorf("batch %d: clocks differ: run %v, serve %v", batch, er.Clock(), es.Clock())
		}
	}
}
