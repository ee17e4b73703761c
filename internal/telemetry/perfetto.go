package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// chromeEvent is one entry of the Chrome trace-event JSON array
// (Perfetto's legacy ingestion format). Timestamps and durations are
// microseconds; we keep them as float64 so simulated sub-microsecond
// boundaries survive the export exactly.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   string         `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

const secToUS = 1e6

// WriteChromeTrace exports the trace as Chrome trace-event JSON, loadable
// in Perfetto (ui.perfetto.dev) or chrome://tracing. Each track becomes
// one process (ingress and faults first, then replicas in registration
// order); lanes become threads, so nesting and non-overlap render
// exactly as recorded. Series become counter tracks on their owning
// process, flows render as arrows from crash aborts to their retries.
// Events are sorted by timestamp (ties: longer spans first, so parents
// precede the children they enclose).
func (t *Trace) WriteChromeTrace(w io.Writer) error {
	var events []chromeEvent
	tracks := t.Tracks()
	pidOf := make(map[string]int, len(tracks))
	for i, tr := range tracks {
		pid := i + 1
		pidOf[tr.name] = pid
		events = append(events, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": tr.name},
		}, chromeEvent{
			Name: "process_sort_index", Ph: "M", Pid: pid,
			Args: map[string]any{"sort_index": i},
		})
		lanes := map[int]bool{}
		for _, s := range tr.Spans() {
			if !lanes[s.Lane] {
				lanes[s.Lane] = true
				events = append(events, chromeEvent{
					Name: "thread_name", Ph: "M", Pid: pid, Tid: s.Lane + 1,
					Args: map[string]any{"name": fmt.Sprintf("lane %d", s.Lane)},
				})
			}
			events = append(events, spanEvents(s, pid)...)
		}
	}
	// Series render as counters on the process matching their label;
	// fleet-wide (unlabeled) series get a dedicated metrics process.
	metricsPid := len(tracks) + 1
	metricsUsed := false
	for _, s := range t.Series() {
		pid, ok := pidOf[s.Label]
		if !ok {
			pid = metricsPid
			metricsUsed = true
		}
		for _, p := range s.Points() {
			events = append(events, chromeEvent{
				Name: s.Name, Cat: s.Kind.String(), Ph: "C", Ts: p.T * secToUS, Pid: pid,
				Args: map[string]any{"value": p.V},
			})
		}
	}
	if metricsUsed {
		events = append(events, chromeEvent{
			Name: "process_name", Ph: "M", Pid: metricsPid,
			Args: map[string]any{"name": "fleet metrics"},
		}, chromeEvent{
			Name: "process_sort_index", Ph: "M", Pid: metricsPid,
			Args: map[string]any{"sort_index": len(tracks)},
		})
	}
	sortEvents(events)
	return json.NewEncoder(w).Encode(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{TraceEvents: events, DisplayTimeUnit: "ms"})
}

// spanEvents renders one span: a complete ("X") slice — or an instant
// ("i") when zero-duration — plus its flow endpoints.
func spanEvents(s Span, pid int) []chromeEvent {
	name := s.Kind
	if s.Kind == KindRequest && s.ID != "" {
		name = s.ID
	}
	args := map[string]any{}
	if s.ID != "" {
		args["req"] = s.ID
	}
	if s.Session != "" {
		args["session"] = s.Session
	}
	if s.Cause != "" {
		args["cause"] = s.Cause
	}
	if s.Attempt > 0 {
		args["attempt"] = s.Attempt
	}
	if s.Tokens > 0 {
		args["tokens"] = s.Tokens
	}
	if s.Cached > 0 {
		args["cached_tokens"] = s.Cached
	}
	if s.Wait > 0 {
		args["ready_wait_s"] = s.Wait
	}
	if s.Lost > 0 {
		args["lost_s"] = s.Lost
	}
	if s.Factor > 1 {
		args["factor"] = s.Factor
	}
	if len(args) == 0 {
		args = nil
	}
	// The duration is the difference of the exported endpoints, not the
	// scaled span length: whenever dur <= ts the subtraction is exact, so
	// ts+dur lands on End*secToUS bit for bit and a child ending with its
	// parent cannot overshoot it by an ulp (which exceeds nestEps past
	// 2^33 µs of simulated time).
	ev := chromeEvent{
		Name: name, Cat: s.Kind, Ph: "X",
		Ts: s.Start * secToUS, Dur: s.End*secToUS - s.Start*secToUS,
		Pid: pid, Tid: s.Lane + 1, Args: args,
	}
	if s.End == s.Start {
		ev.Ph = "i"
		ev.Dur = 0
		ev.S = "t"
	}
	out := []chromeEvent{ev}
	if s.Flow != 0 {
		id := fmt.Sprintf("%d", s.Flow)
		if s.FlowStart {
			out = append(out, chromeEvent{
				Name: "retry", Cat: "retry", Ph: "s", ID: id,
				Ts: s.End * secToUS, Pid: pid, Tid: s.Lane + 1,
			})
		} else {
			out = append(out, chromeEvent{
				Name: "retry", Cat: "retry", Ph: "f", BP: "e", ID: id,
				Ts: s.Start * secToUS, Pid: pid, Tid: s.Lane + 1,
			})
		}
	}
	return out
}

// sortEvents orders metadata first, then by timestamp with longer spans
// first at ties (so an enclosing span precedes the children that start
// with it), with a full deterministic tiebreak.
func sortEvents(events []chromeEvent) {
	sort.SliceStable(events, func(i, j int) bool {
		a, b := events[i], events[j]
		am, bm := a.Ph == "M", b.Ph == "M"
		if am != bm {
			return am
		}
		if am {
			if a.Pid != b.Pid {
				return a.Pid < b.Pid
			}
			if a.Tid != b.Tid {
				return a.Tid < b.Tid
			}
			return a.Name < b.Name
		}
		if a.Ts != b.Ts {
			return a.Ts < b.Ts
		}
		if a.Dur != b.Dur {
			return a.Dur > b.Dur
		}
		if a.Pid != b.Pid {
			return a.Pid < b.Pid
		}
		if a.Tid != b.Tid {
			return a.Tid < b.Tid
		}
		return a.Name < b.Name
	})
}
