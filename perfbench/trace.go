package main

import (
	"fmt"
	"runtime"
	"time"

	"edgereasoning/internal/engine"
)

// recorder holds the benchmark's own spans, recorded around each public
// call the benchmark makes into the program. A nil recorder records
// nothing, so timed runs pass nil.
type recorder struct {
	origin time.Time
	spans  []span
	// Source.Next is called once per request, too often for one span
	// each; the wrapping source keeps a count and a total instead.
	nextCalls int
	nextTime  time.Duration
}

// span is one timed call; parent is the enclosing span's index, or -1.
type span struct {
	name       string
	parent     int
	start, end time.Duration
}

//edgereasoning:wallclock -- the benchmark times host work; simulated time is an output it checks
func newRecorder() *recorder { return &recorder{origin: time.Now()} }

//edgereasoning:wallclock -- the benchmark times host work; simulated time is an output it checks
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{name: name, parent: parent, start: time.Since(r.origin)})
	return len(r.spans) - 1
}

//edgereasoning:wallclock -- the benchmark times host work; simulated time is an output it checks
func (r *recorder) end(i int) {
	if r == nil {
		return
	}
	r.spans[i].end = time.Since(r.origin)
}

// seconds sums the durations of the spans with the given name.
func (r *recorder) seconds(name string) float64 {
	var d time.Duration
	for _, s := range r.spans {
		if s.name == name {
			d += s.end - s.start
		}
	}
	return d.Seconds()
}

// tracedSource times every Next call of the source it wraps. It must be
// transparent: the requests it passes on are the wrapped source's.
type tracedSource struct {
	src engine.Source
	rec *recorder
}

//edgereasoning:wallclock -- the benchmark times host work; simulated time is an output it checks
func (s *tracedSource) Next() (engine.TimedRequest, bool) {
	t := time.Now()
	tr, ok := s.src.Next()
	s.rec.nextTime += time.Since(t)
	s.rec.nextCalls++
	return tr, ok
}

// wrap returns src itself when rec is nil, else a timing wrapper.
func wrap(src engine.Source, rec *recorder) engine.Source {
	if rec == nil {
		return src
	}
	return &tracedSource{src: src, rec: rec}
}

// perLayer lists the per-layer metrics with their units, in print order.
// Every traced run prints all of them; a layer a workload bypasses reads 0.
var perLayer = []metricName{
	{"workload.next_calls", "count"}, {"workload.next_s", "s"}, {"workload.share", "frac"},
	{"engine.served", "count"}, {"engine.events", "count"}, {"engine.events_per_req", "count"},
	{"engine.self_s", "s"}, {"engine.share", "frac"},
	{"gpusim.prefill_calls", "count"}, {"gpusim.prefill_ns", "ns"},
	{"gpusim.decode_chunk_calls", "count"}, {"gpusim.decode_chunk_ns", "ns"}, {"gpusim.share", "frac"},
	{"power.energy_calls", "count"}, {"power.energy_ns", "ns"}, {"power.share", "frac"},
	{"kvcache.seq_lifecycles", "count"}, {"kvcache.seq_ns", "ns"}, {"kvcache.share", "frac"},
	{"prefix.lookups", "count"}, {"prefix.hits", "count"}, {"prefix.hit_token_frac", "frac"},
	{"prefix.saved_prefill_tokens", "count"}, {"prefix.acquire_release_ns", "ns"}, {"prefix.share", "frac"},
	{"tier.demotions", "count"}, {"tier.promotions", "count"}, {"tier.host_hits", "count"}, {"tier.restore_sim_s", "s"},
	{"fleet.offered", "count"}, {"fleet.dropped", "count"}, {"fleet.shed", "count"}, {"fleet.aborted", "count"},
	{"fleet.aborted_dropped", "count"}, {"fleet.retried", "count"}, {"fleet.crashes", "count"},
	{"fleet.breaker_opens", "count"}, {"fleet.lost_work_sim_s", "s"}, {"fleet.self_s", "s"}, {"fleet.share", "frac"},
	{"telemetry.spans", "count"}, {"telemetry.spans_dropped", "count"}, {"telemetry.export_s", "s"}, {"telemetry.overhead_s", "s"},
	{"suite.fig9_s", "s"}, {"suite.table12_s", "s"}, {"suite.verify_s", "s"}, {"suite.naturalplan_s", "s"},
	{"suite.other_s", "s"}, {"suite.drivers_failed", "count"}, {"suite.tables", "count"}, {"suite.anchors_failed", "count"},
	{"suite.anchor_dev_pct", "%"},
	{"bench.traced_wall_s", "s"}, {"bench.untraced_wall_s", "s"}, {"bench.trace_overhead_s", "s"},
}

// tracedRun is the --trace 1 run: pairs of one untraced and one traced
// operation until the window is spent (at least one pair), then the
// per-layer ledger of the last traced operation. The medians of the two
// kinds give the tracing overhead; the digests of every operation must
// agree.
//
//edgereasoning:wallclock -- the benchmark times host work; simulated time is an output it checks
func tracedRun(w benchWorkload, seed uint64, seconds float64) (result, error) {
	// One core, so that layer seconds, which the replay measures as CPU
	// time, add up to wall time; the fleet's concurrent drain would
	// otherwise overlap them.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var last struct {
		j    job
		rec  *recorder
		wall float64
	}
	res := result{correct: true}
	var untraced, traced []float64
	var first outcome
	start := time.Now()
	for len(traced) == 0 || time.Since(start).Seconds() < seconds {
		last.j = nil // only the final operation's outputs are kept
		for _, on := range []bool{false, true} {
			var rec *recorder
			if on {
				rec = newRecorder()
			}
			j, st, err := measure(w, seed, rec, false)
			if err != nil {
				return result{}, err
			}
			o := j.check()
			if len(untraced) == 0 {
				first = o
			} else if o.digest != first.digest {
				o.fail("simulated digest differs between traced and untraced operations")
				o.failed = max(o.failed, 1)
			}
			res.add(w.name, o)
			if on {
				traced = append(traced, st.wall)
				last.j, last.rec, last.wall = j, rec, st.wall
			} else {
				untraced = append(untraced, st.wall)
			}
		}
	}
	// Layers a workload bypasses stay absent and print as 0.
	m := make(map[string]float64, len(perLayer))
	m["workload.next_calls"] = float64(last.rec.nextCalls)
	m["workload.next_s"] = last.rec.nextTime.Seconds()
	m["workload.share"] = m["workload.next_s"] / last.wall
	// The ledger replays public calls and reruns the fleet untraced; an
	// error there is the program failing on its own API.
	if err := last.j.ledger(last.rec, last.wall, m); err != nil {
		o := outcome{failed: 1}
		o.fail("ledger: %v", err)
		res.add(w.name, o)
		first.failures = append(first.failures, o.failures...)
	}
	m["bench.traced_wall_s"] = last.wall
	m["bench.untraced_wall_s"] = median(untraced)
	m["bench.trace_overhead_s"] = median(traced) - median(untraced)

	res.metrics = make(map[string]metric, len(perLayer))
	fmt.Printf("perfbench %s (traced): seed %d, GOMAXPROCS %d, %d traced and %d untraced operations\n",
		w.name, seed, runtime.GOMAXPROCS(0), len(traced), len(untraced))
	fmt.Printf("  shares are layer seconds over bench.traced_wall_s = %.6f s\n", last.wall)
	for _, pl := range perLayer {
		res.metrics[pl.name] = metric{m[pl.name], pl.unit}
		fmt.Printf("  %-28s %16.6f %s\n", pl.name, m[pl.name], pl.unit)
	}
	fmt.Printf("digest %s: %s\n", w.name, first.digest)
	printFailures(w.name, first.failures)
	return res, nil
}

// layer is one layer's seconds in a traced operation, with the name of
// its share metric ("" for a layer without one).
type layer struct {
	share string
	secs  float64
}

// shares fills each layer's share of the traced wall time. The residual
// layer (the engine's or the fleet's self time) closes the ledger: the
// source time, the listed layers and the residual add up to wall.
func shares(m map[string]float64, wall float64, layers []layer, residual string) {
	rest := wall - m["workload.next_s"]
	for _, l := range layers {
		if l.share != "" {
			m[l.share] = l.secs / wall
		}
		rest -= l.secs
	}
	m[residual+".self_s"] = rest
	m[residual+".share"] = rest / wall
}
