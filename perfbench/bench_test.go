package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"

	"edgereasoning/internal/experiments"
	"edgereasoning/internal/fleet"
)

// tinyJobs builds each workload at a size small enough for a unit test.
// Each call returns fresh jobs, since a job serves its source once.
func tinyJobs(t *testing.T) map[string]job {
	t.Helper()
	soak, err := newSoakJob(3000, 3)
	if err != nil {
		t.Fatal(err)
	}
	fl, err := newFleetJob(30, 3)
	if err != nil {
		t.Fatal(err)
	}
	opts := experiments.DefaultOptions()
	opts.Quick = true
	suite := &suiteJob{ids: []string{"table2", "fig5", "verify"}, opts: opts}
	return map[string]job{"assistant-soak": soak, "agent-fleet": fl, "paper-suite": suite}
}

// TestWrappingIsTransparent runs every workload untraced and traced: the
// timing wrapper around the source and the per-driver suite loop must
// leave every simulated number identical, and every check must pass.
func TestWrappingIsTransparent(t *testing.T) {
	plain, traced := tinyJobs(t), tinyJobs(t)
	for name, j := range plain {
		j.exec(nil)
		rec := newRecorder()
		traced[name].exec(rec)
		a, b := j.check(), traced[name].check()
		if a.digest != b.digest {
			t.Errorf("%s: digest changed by tracing:\n  off: %s\n  on:  %s", name, a.digest, b.digest)
		}
		for _, o := range []outcome{a, b} {
			if o.failed != 0 || len(o.failures) != 0 {
				t.Errorf("%s: %d failed: %v", name, o.failed, o.failures)
			}
		}
		if a.events > 0 && rec.nextCalls == 0 {
			t.Errorf("%s: the wrapping source saw no Next calls", name)
		}
	}
}

// TestLedgerCloses checks that the traced ledger's layer seconds plus
// the residual account for the traced wall time, and that the call
// counts come from the run.
func TestLedgerCloses(t *testing.T) {
	for name, j := range tinyJobs(t) {
		if name == "paper-suite" {
			continue // no residual layer; covered by the suite's other_s
		}
		rec := newRecorder()
		sp := rec.begin("op", -1)
		j.exec(rec)
		rec.end(sp)
		wall := rec.seconds("op")
		m := map[string]float64{"workload.next_s": rec.nextTime.Seconds()}
		if err := j.ledger(rec, wall, m); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum := m["workload.next_s"]/wall + m["gpusim.share"] + m["power.share"] + m["kvcache.share"] +
			m["prefix.share"] + m["engine.share"] + m["fleet.share"] +
			(m["telemetry.export_s"]+m["telemetry.overhead_s"])/wall
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: layer shares sum to %v, want 1", name, sum)
		}
		if m["gpusim.prefill_calls"] != m["engine.served"] || m["power.energy_calls"] != m["engine.events"] {
			t.Errorf("%s: call counts %v prefills / %v served, %v energy calls / %v events", name,
				m["gpusim.prefill_calls"], m["engine.served"], m["power.energy_calls"], m["engine.events"])
		}
		for _, k := range []string{"gpusim.prefill_ns", "gpusim.decode_chunk_ns", "power.energy_ns", "kvcache.seq_ns"} {
			if !(m[k] > 0) {
				t.Errorf("%s: %s = %v, want a positive replay time", name, k, m[k])
			}
		}
	}
}

// TestKnownDefectsMatchOnlyTheirWorkload keeps the known-defect list from
// excusing a failure of another workload.
func TestKnownDefectsMatchOnlyTheirWorkload(t *testing.T) {
	tiering := `tiering: engine: request "s1t4a" exceeds KV capacity even alone`
	if knownDefect("paper-suite", tiering) == "" {
		t.Error("the tiering failure is not recognised on paper-suite")
	}
	if knownDefect("assistant-soak", tiering) != "" {
		t.Error("a paper-suite defect excuses an assistant-soak failure")
	}
	if knownDefect("paper-suite", "fig9: some new error") != "" {
		t.Error("an unrelated failure counts as known")
	}
	// Fleet trace nesting: a rounding miss at the parent's end is known;
	// a span reaching into the middle of its parent's lifetime is not.
	miss := `chrome trace: telemetry: event 58505 ("decode") [80139855105.596, 80140489053.346] ` +
		`overlaps but does not nest within its enclosing span ending 80139855105.596 on pid 5 tid 3`
	overlap := `chrome trace: telemetry: event 58505 ("decode") [80139855105.596, 80140489053.346] ` +
		`overlaps but does not nest within its enclosing span ending 80140000000.000 on pid 5 tid 3`
	if knownDefect("agent-fleet", miss) == "" {
		t.Error("a rounding miss in the fleet trace is not recognised")
	}
	if knownDefect("agent-fleet", overlap) != "" {
		t.Error("a true span overlap counts as the known rounding defect")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics the
// program prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got, want := names, workloadNames(); !slices.Equal(got, want) {
		t.Errorf("workloads %v, program has %v", got, want)
	}
	same := func(what string, listed []struct{ Name, Unit string }, printed []metricName) {
		if len(listed) != len(printed) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program prints %d", what, len(listed), len(printed))
			return
		}
		for i, l := range listed {
			if l.Name != printed[i].name || l.Unit != printed[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)",
					what, i, l.Name, l.Unit, printed[i].name, printed[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

// TestFleetSteadyState checks that agent-fleet measures a steady state,
// not a transient: sim p99 latency and tier demotions per request hold
// when the stream doubles. RECORD.md quotes the figures this logs.
func TestFleetSteadyState(t *testing.T) {
	if testing.Short() {
		t.Skip("serves 3x the benchmark's stream")
	}
	type point struct{ p99, demotions float64 }
	at := func(sessions int) point {
		j, err := newFleetJob(sessions, 1)
		if err != nil {
			t.Fatal(err)
		}
		j.cfg.Trace = nil
		m, err := fleet.ServeSource(j.cfg, j.src)
		if err != nil {
			t.Fatal(err)
		}
		p := point{m.P99Latency, float64(m.TierDemotions) / float64(m.Offered)}
		t.Logf("%d sessions: %d requests, sim p99 %.2f s, %.2f demotions/request, %.2f promotions/request",
			sessions, m.Offered, p.p99, p.demotions, float64(m.TierPromotions)/float64(m.Offered))
		return p
	}
	base, doubled := at(fleetSessions), at(2*fleetSessions)
	if r := doubled.p99 / base.p99; r < 0.9 || r > 1.1 {
		t.Errorf("sim p99 moved by x%.3f when the stream doubled", r)
	}
	if r := doubled.demotions / base.demotions; r < 0.9 || r > 1.1 {
		t.Errorf("demotions per request moved by x%.3f when the stream doubled", r)
	}
}
