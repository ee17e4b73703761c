package telemetry

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
)

// chromeEvent is one entry of the Chrome trace-event JSON array
// (Perfetto's legacy ingestion format), as ValidateChromeTrace decodes
// it. Timestamps and durations are microseconds; we keep them as float64
// so simulated sub-microsecond boundaries survive the export exactly.
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
//
// The output is the bytes encoding/json's Encoder (HTML escaping on)
// would write for a {"traceEvents": [...], "displayTimeUnit": "ms"}
// document of chromeEvent values, trailing newline included, so it is
// identical across runs and releases. Metadata events come first,
// ordered by (pid, tid, name). Content events follow, ordered by
// timestamp, then longer duration first (so a parent precedes the
// children that start with it), then pid, tid and name, with record
// order as the final tiebreak: tracks in registration order with each
// span followed by its flow endpoint, then series by (name, label) and
// points in time order. A NaN or infinite timestamp, duration or value
// makes it return an error before anything is written.
func (t *Trace) WriteChromeTrace(w io.Writer) error {
	tracks := t.Tracks()
	series := t.Series()

	n, longest := 0, 0
	for _, tr := range tracks {
		n += len(tr.spans)
		longest = max(longest, len(tr.spans))
	}
	for _, s := range series {
		n += len(s.pts)
	}
	// Metadata, and the content events in record order (an event's
	// index is its seq). Flow endpoints are rare enough to grow into.
	var meta []metaEvent
	events := make([]traceEvent, 0, n)
	named := lanes{seen: make([]bool, longest)}
	for i, tr := range tracks {
		pid := i + 1
		meta = append(meta,
			metaEvent{pid: pid, name: "process_name", str: tr.name},
			metaEvent{pid: pid, name: "process_sort_index", num: i})
		named.reset(len(tr.spans))
		older, newer := tr.ring()
		for _, half := range [2][]Span{older, newer} {
			for j := range half {
				s := &half[j]
				if named.add(s.Lane) {
					meta = append(meta, metaEvent{pid: pid, tid: s.Lane + 1, name: "thread_name", num: s.Lane})
				}
				kind := evSpan
				if s.End == s.Start {
					kind = evInstant
				}
				events = append(events, traceEvent{span: s, pid: int32(pid), kind: kind})
				if s.Flow != 0 {
					kind = evFlowFinish
					if s.FlowStart {
						kind = evFlowStart
					}
					events = append(events, traceEvent{span: s, pid: int32(pid), kind: kind})
				}
			}
		}
	}
	metricsPid := len(tracks) + 1
	metricsUsed := false
	for _, s := range series {
		pid := metricsPid
		for i, tr := range tracks {
			if tr.name == s.Label {
				pid = i + 1
				break
			}
		}
		metricsUsed = metricsUsed || pid == metricsPid
		kind := evGauge
		if s.Kind == Counter {
			kind = evCounter
		}
		for j := range s.pts {
			events = append(events, traceEvent{series: s, point: int32(j), pid: int32(pid), kind: kind})
		}
	}
	if metricsUsed {
		meta = append(meta,
			metaEvent{pid: metricsPid, name: "process_name", str: "fleet metrics"},
			metaEvent{pid: metricsPid, name: "process_sort_index", num: len(tracks)})
	}
	slices.SortFunc(meta, func(a, b metaEvent) int {
		if a.pid != b.pid {
			return cmp.Compare(a.pid, b.pid)
		}
		if a.tid != b.tid {
			return cmp.Compare(a.tid, b.tid)
		}
		return strings.Compare(a.name, b.name)
	})

	keys := make([]sortKey, len(events))
	for i := range events {
		if err := events[i].checkFinite(); err != nil {
			return err
		}
		keys[i] = sortKey{ts: events[i].ts(), seq: int32(i)}
	}
	slices.SortFunc(keys, func(x, y sortKey) int { return compareEvents(events, x, y) })

	// Encode, flushing in chunks: every value was checked above, so no
	// encoding error can follow a partial write.
	buf := make([]byte, 0, chunkSize+512)
	if len(meta)+len(keys) == 0 {
		buf = append(buf, `{"traceEvents":null`...)
	} else {
		buf = append(buf, `{"traceEvents":[`...)
		for i := range meta {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = meta[i].append(buf)
		}
		for i, k := range keys {
			if i > 0 || len(meta) > 0 {
				buf = append(buf, ',')
			}
			buf = events[k.seq].append(buf)
			if len(buf) >= chunkSize {
				if _, err := w.Write(buf); err != nil {
					return err
				}
				buf = buf[:0]
			}
		}
		buf = append(buf, ']')
	}
	buf = append(buf, ",\"displayTimeUnit\":\"ms\"}\n"...)
	_, err := w.Write(buf)
	return err
}

// lanes records which lanes of one track have their thread_name event.
// LaneAllocator numbers lanes densely from 0, so a track of n spans uses
// lanes below n, which seen flags; any other lane (negative, or n and
// beyond) goes in the short list other.
type lanes struct {
	seen  []bool
	other []int
}

// reset starts a track of n spans.
func (l *lanes) reset(n int) {
	l.seen = l.seen[:n]
	clear(l.seen)
	l.other = l.other[:0]
}

// add marks lane as named and reports whether it was not already.
func (l *lanes) add(lane int) bool {
	if lane >= 0 && lane < len(l.seen) {
		if l.seen[lane] {
			return false
		}
		l.seen[lane] = true
		return true
	}
	if slices.Contains(l.other, lane) {
		return false
	}
	l.other = append(l.other, lane)
	return true
}

// chunkSize is the encode buffer's flush threshold.
const chunkSize = 64 << 10

// metaEvent is one "M" record: a process's name or sort index, or a
// lane's thread name.
type metaEvent struct {
	pid, tid int
	name     string // process_name, process_sort_index or thread_name
	str      string // process_name's argument
	num      int    // process_sort_index's argument, or thread_name's lane
}

func (m *metaEvent) append(b []byte) []byte {
	b = append(b, `{"name":"`...)
	b = append(b, m.name...)
	b = append(b, `","ph":"M","ts":0,"pid":`...)
	b = strconv.AppendInt(b, int64(m.pid), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(m.tid), 10)
	switch m.name {
	case "process_name":
		b = append(b, `,"args":{"name":`...)
		b = appendString(b, m.str)
	case "process_sort_index":
		b = append(b, `,"args":{"sort_index":`...)
		b = strconv.AppendInt(b, int64(m.num), 10)
	default:
		b = append(b, `,"args":{"name":"lane `...)
		b = strconv.AppendInt(b, int64(m.num), 10)
		b = append(b, '"')
	}
	return append(b, "}}"...)
}

// Content event kinds.
const (
	evSpan       uint8 = iota // "X": a span with extent
	evInstant                 // "i": a zero-length span
	evFlowStart               // "s": flow out of a crash-aborted span
	evFlowFinish              // "f": flow into a retry's span
	evGauge                   // "C" from a gauge series
	evCounter                 // "C" from a counter series
)

// traceEvent is one content event, a reference to what it renders: a
// span (span and flow kinds) or a series point (gauge and counter
// kinds).
type traceEvent struct {
	span   *Span
	series *Series
	point  int32
	pid    int32
	kind   uint8
}

func (e *traceEvent) ts() float64 {
	switch e.kind {
	case evFlowStart:
		return e.span.End * secToUS
	case evGauge, evCounter:
		return e.series.pts[e.point].T * secToUS
	}
	return e.span.Start * secToUS
}

// dur is the difference of the exported endpoints, not the scaled span
// length: whenever dur <= ts the subtraction is exact, so ts+dur lands on
// End*secToUS bit for bit and a child ending with its parent cannot
// overshoot it by an ulp (which exceeds nestEps past 2^33 µs of
// simulated time).
func (e *traceEvent) dur() float64 {
	if e.kind == evSpan {
		return e.span.End*secToUS - e.span.Start*secToUS
	}
	return 0
}

func (e *traceEvent) tid() int {
	if e.span == nil {
		return 0
	}
	return e.span.Lane + 1
}

func (e *traceEvent) name() string {
	switch e.kind {
	case evFlowStart, evFlowFinish:
		return "retry"
	case evGauge, evCounter:
		return e.series.Name
	}
	if e.span.Kind == KindRequest && e.span.ID != "" {
		return e.span.ID
	}
	return e.span.Kind
}

// checkFinite reports an error if any number the event would print is
// NaN or infinite. Span attributes print only when positive (factor:
// above 1), so of the non-finite values only +Inf can reach them.
func (e *traceEvent) checkFinite() error {
	vs := [5]float64{e.ts(), e.dur()}
	switch e.kind {
	case evSpan, evInstant:
		for i, v := range [3]float64{e.span.Wait, e.span.Lost, e.span.Factor} {
			if v > 0 {
				vs[2+i] = v
			}
		}
	case evGauge, evCounter:
		vs[2] = e.series.pts[e.point].V
	}
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("telemetry: chrome trace: unsupported value %v", v)
		}
	}
	return nil
}

// sortKey places a content event in the export: its timestamp and its
// record index.
type sortKey struct {
	ts  float64
	seq int32
}

// compareEvents orders content events by timestamp, then longer duration
// first, pid, tid, name and record index.
func compareEvents(events []traceEvent, x, y sortKey) int {
	if x.ts != y.ts {
		return cmp.Compare(x.ts, y.ts)
	}
	a, b := &events[x.seq], &events[y.seq]
	if ad, bd := a.dur(), b.dur(); ad != bd {
		return cmp.Compare(bd, ad)
	}
	if a.pid != b.pid {
		return cmp.Compare(a.pid, b.pid)
	}
	if at, bt := a.tid(), b.tid(); at != bt {
		return cmp.Compare(at, bt)
	}
	if c := strings.Compare(a.name(), b.name()); c != 0 {
		return c
	}
	return cmp.Compare(x.seq, y.seq)
}

func (e *traceEvent) append(b []byte) []byte {
	b = append(b, `{"name":`...)
	b = appendString(b, e.name())
	switch e.kind {
	case evSpan, evInstant:
		if e.span.Kind != "" {
			b = append(b, `,"cat":`...)
			b = appendString(b, e.span.Kind)
		}
		if e.kind == evSpan {
			b = append(b, `,"ph":"X","ts":`...)
		} else {
			b = append(b, `,"ph":"i","ts":`...)
		}
	case evFlowStart:
		b = append(b, `,"cat":"retry","ph":"s","ts":`...)
	case evFlowFinish:
		b = append(b, `,"cat":"retry","ph":"f","ts":`...)
	case evGauge:
		b = append(b, `,"cat":"gauge","ph":"C","ts":`...)
	case evCounter:
		b = append(b, `,"cat":"counter","ph":"C","ts":`...)
	}
	b = appendFloat(b, e.ts())
	if d := e.dur(); d != 0 {
		b = append(b, `,"dur":`...)
		b = appendFloat(b, d)
	}
	b = append(b, `,"pid":`...)
	b = strconv.AppendInt(b, int64(e.pid), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(e.tid()), 10)
	switch e.kind {
	case evSpan:
		b = appendSpanArgs(b, e.span)
	case evInstant:
		b = append(b, `,"s":"t"`...)
		b = appendSpanArgs(b, e.span)
	case evFlowStart, evFlowFinish:
		b = append(b, `,"id":"`...)
		b = strconv.AppendUint(b, e.span.Flow, 10)
		if e.kind == evFlowFinish {
			b = append(b, `","bp":"e"`...)
		} else {
			b = append(b, '"')
		}
	case evGauge, evCounter:
		b = append(b, `,"args":{"value":`...)
		b = appendFloat(b, e.series.pts[e.point].V)
		b = append(b, '}')
	}
	return append(b, '}')
}

// appendSpanArgs writes a span's set attributes as the "args" object,
// keys in sorted order; a span with none gets no "args" field.
func appendSpanArgs(b []byte, s *Span) []byte {
	start := len(b)
	if s.Attempt > 0 {
		b = appendArgKey(b, start, `"attempt":`)
		b = strconv.AppendInt(b, int64(s.Attempt), 10)
	}
	if s.Cached > 0 {
		b = appendArgKey(b, start, `"cached_tokens":`)
		b = strconv.AppendInt(b, int64(s.Cached), 10)
	}
	if s.Cause != "" {
		b = appendArgKey(b, start, `"cause":`)
		b = appendString(b, s.Cause)
	}
	if s.Factor > 1 {
		b = appendArgKey(b, start, `"factor":`)
		b = appendFloat(b, s.Factor)
	}
	if s.Lost > 0 {
		b = appendArgKey(b, start, `"lost_s":`)
		b = appendFloat(b, s.Lost)
	}
	if s.Wait > 0 {
		b = appendArgKey(b, start, `"ready_wait_s":`)
		b = appendFloat(b, s.Wait)
	}
	if s.ID != "" {
		b = appendArgKey(b, start, `"req":`)
		b = appendString(b, s.ID)
	}
	if s.Session != "" {
		b = appendArgKey(b, start, `"session":`)
		b = appendString(b, s.Session)
	}
	if s.Tokens > 0 {
		b = appendArgKey(b, start, `"tokens":`)
		b = strconv.AppendInt(b, int64(s.Tokens), 10)
	}
	if len(b) > start {
		b = append(b, '}')
	}
	return b
}

// appendArgKey opens the args object at its first key (start is its
// offset in b) and separates later keys.
func appendArgKey(b []byte, start int, key string) []byte {
	if len(b) == start {
		b = append(b, `,"args":{`...)
	} else {
		b = append(b, ',')
	}
	return append(b, key...)
}

// appendFloat formats f as encoding/json does: shortest 'f' form, or 'e'
// below 1e-6 and at or above 1e21 with a one-digit negative exponent
// unpadded (e-7, not e-07).
func appendFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// jsonVerbatim marks the bytes encoding/json copies into a string as
// they are: printable ASCII other than `"\<>&`.
var jsonVerbatim = func() (t [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

// appendString quotes s as encoding/json does with HTML escaping on.
// Strings needing an escape (rare in a trace) defer to json.Marshal for
// its rules.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !jsonVerbatim[s[i]] {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
