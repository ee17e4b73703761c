package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// writeChromeTraceReflect is the reference exporter WriteChromeTrace
// must match byte for byte: chromeEvent values with map args, ordered by
// sort.SliceStable and encoded by encoding/json.
func writeChromeTraceReflect(t *Trace, w io.Writer) error {
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
			events = append(events, referenceSpanEvents(s, pid)...)
		}
	}
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
	return json.NewEncoder(w).Encode(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{TraceEvents: events, DisplayTimeUnit: "ms"})
}

func referenceSpanEvents(s Span, pid int) []chromeEvent {
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

// Value pools the fuzz decoder draws from. Small pools make exact
// (ts, dur, pid, tid, name) ties common; the strings cover every escape
// class encoding/json distinguishes.
var (
	fuzzStrings = []string{
		"", "A", "B", "q", "r0", "retry", "request", "fleet metrics",
		`<a&b>`, `say "hi" \ bye`, "\x00\x07\b\f\n\r\t\x1f\x7f",
		"\u2028\u2029", "a\x7fb", "héllo", "日本語", "\xff\xfe", "ok\xc3",
	}
	fuzzKinds = []string{
		KindRequest, KindQueue, KindRetryWait, KindAborted, KindRestore,
		KindPrefill, KindDecode, KindStall, KindThrottle, KindCrash, "", "<k>",
	}
	fuzzTracks  = []string{"ingress", "faults", "r0", "r1", "", "<r&2>", "\u2028é", "\xff"}
	fuzzLabels  = []string{"", "zz", "yy", "r0", "r1", "ingress", "\xff"}
	fuzzFinites = []float64{
		0, math.Copysign(0, -1), 1, 0.5, 2, 3, 1.5, -1.5,
		1e-7, 1e-6, 9.99e-7, 1e-12, 1e-13, 2.5e-8, 5e-324,
		1e15, 1e20, 1e21, 1e22, 1.5e300,
		28809.84, math.Nextafter(1, 2), math.Nextafter(28809.84, 0),
		123456.789, 1.0 / 3, 123456, -42, 999999999999999, 1e15 + 1,
		4503599627370497, 9007199254740993,
	}
	fuzzNonFinite = []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64}
)

// fuzzOps decodes a byte string into operations on a trace. Every read
// past the end yields zero, so any input decodes.
type fuzzOps struct {
	data      []byte
	nonFinite bool // draw NaN, ±Inf and overflowing values too
}

func (o *fuzzOps) byte() byte {
	if len(o.data) == 0 {
		return 0
	}
	b := o.data[0]
	o.data = o.data[1:]
	return b
}

func (o *fuzzOps) pick(n int) int { return int(o.byte()) % n }

func (o *fuzzOps) float() float64 {
	b := o.byte()
	if o.nonFinite && b >= 252 {
		return fuzzNonFinite[b-252]
	}
	if b >= 240 { // raw bits
		var u uint64
		for range 8 {
			u = u<<8 | uint64(o.byte())
		}
		if f := math.Float64frombits(u); o.nonFinite || !(math.IsNaN(f) || math.IsInf(f, 0) || math.Abs(f) > 1e300) {
			return f
		}
		return 0
	}
	return fuzzFinites[int(b)%len(fuzzFinites)]
}

func (o *fuzzOps) str(pool []string) string { return pool[o.pick(len(pool))] }

func (o *fuzzOps) apply(tra *Trace) {
	for len(o.data) > 0 {
		switch o.pick(4) {
		case 0, 1:
			tr := tra.Track(o.str(fuzzTracks))
			s := Span{
				ID: o.str(fuzzStrings), Kind: o.str(fuzzKinds),
				Lane: o.pick(6) - 1, Start: o.float(),
			}
			switch o.pick(3) {
			case 0:
				s.End = s.Start // instant
			case 1:
				s.End = s.Start + o.float()
			default:
				s.End = o.float()
			}
			set := o.byte()
			if set&1 != 0 {
				s.Session = o.str(fuzzStrings)
			}
			if set&2 != 0 {
				s.Cause = o.str(fuzzStrings)
			}
			if set&4 != 0 {
				s.Attempt = int(o.byte()) - 8
				s.Tokens = int(o.byte())<<8 - 1000
				s.Cached = int(o.byte()) - 8
			}
			if set&8 != 0 {
				s.Wait = o.float()
			}
			if set&16 != 0 {
				s.Lost = o.float()
			}
			if set&32 != 0 {
				s.Factor = o.float() + float64(o.pick(3))
			}
			if set&64 != 0 {
				s.Flow = uint64(o.byte()) + 1
				s.FlowStart = set&128 != 0
			}
			tr.Record(s)
		case 2:
			name, label := o.str(fuzzStrings), o.str(fuzzLabels)
			if o.pick(2) == 0 {
				tra.GaugeSeries(name, label).Sample(o.float(), o.float())
			} else {
				tra.CounterFor(name, label).Add(o.float(), o.float())
			}
		default:
			tra.Track(o.str(fuzzTracks)) // possibly an empty track
		}
	}
}

// FuzzChromeTraceExport checks WriteChromeTrace against the reference
// exporter on random traces: identical bytes, and an error from both or
// from neither. base selects a starting trace (empty, buildTrace's or
// TestChromeTraceNestsLateSpans'), cfg's low nibble the ring size (0
// holds either base trace; 1 to 15 wrap) and bit 4 whether values may be
// non-finite; ops then records more spans, series points and tracks.
func FuzzChromeTraceExport(f *testing.F) {
	f.Add(uint8(1), uint8(0), []byte(nil))
	f.Add(uint8(2), uint8(0), []byte(nil))
	f.Add(uint8(1), uint8(3), []byte(nil))
	f.Add(uint8(2), uint8(7), []byte{0, 2, 0, 0, 3, 0, 0, 0, 2, 0, 0, 0, 0, 0})
	f.Add(uint8(0), uint8(0x10), []byte{2, 7, 0, 0, 252, 2, 8, 1, 3, 2, 2, 1, 4})
	// Exact (ts, dur, pid, tid, name) ties that only record order
	// breaks: gauge "A" labeled "" and "zz" sampled at t=1 on the fleet
	// metrics pid, and two decode spans on r0 lane 0 over [1, 1.5] that
	// differ only in tokens.
	f.Add(uint8(0), uint8(0), []byte{
		2, 1, 0, 0, 2, 3,
		2, 1, 1, 0, 2, 4,
		0, 2, 1, 6, 1, 2, 1, 3, 4, 9, 5, 8,
		0, 2, 1, 6, 1, 2, 1, 3, 4, 9, 6, 8,
	})
	// Forty such decode spans starting at 0.5, 1 or 2 in turn: tie runs
	// among other keys, enough for an unstable sort to reorder them.
	var ties []byte
	for i := range 40 {
		ties = append(ties, 0, 2, 1, 6, 1, byte(2+i%3), 1, 3, 4, 9, byte(5+i), 8)
	}
	f.Add(uint8(0), uint8(0), ties)
	rng := rand.New(rand.NewSource(16))
	for i := range 6 {
		ops := make([]byte, 512)
		rng.Read(ops)
		f.Add(uint8(i%3), uint8(i*5%16), ops)
		f.Add(uint8(i%3), uint8(0x10|i), ops[:48*(i+1)])
	}
	f.Fuzz(func(t *testing.T, base, cfg uint8, ops []byte) {
		spanCap := int(cfg & 0xf)
		if spanCap == 0 {
			spanCap = 1200 // holds either base trace unwrapped
		}
		tra := New(Config{SpanCap: spanCap, SeriesCap: 16})
		switch base % 3 {
		case 1:
			recordFaultedRun(tra)
		case 2:
			recordLateSpans(tra)
		}
		(&fuzzOps{data: ops, nonFinite: cfg&0x10 != 0}).apply(tra)
		var got, want bytes.Buffer
		gotErr := tra.WriteChromeTrace(&got)
		wantErr := writeChromeTraceReflect(tra, &want)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("WriteChromeTrace error %v, reference error %v", gotErr, wantErr)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			g, w := got.Bytes(), want.Bytes()
			i := 0
			for i < min(len(g), len(w)) && g[i] == w[i] {
				i++
			}
			lo := max(i-120, 0)
			t.Fatalf("export differs from the reference at byte %d of %d/%d:\n got %q\nwant %q",
				i, len(g), len(w), g[lo:min(i+120, len(g))], w[lo:min(i+120, len(w))])
		}
	})
}

func TestAppendFloatAndStringMatchJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	floats := []float64{0, math.Copysign(0, -1), 1e-6, math.Nextafter(1e-6, 0), 1e21, math.Nextafter(1e21, 0),
		1e15, math.Nextafter(1e15, 0), -1e15, 1 << 53, 1<<53 + 2, math.SmallestNonzeroFloat64, math.MaxFloat64}
	for range 100000 {
		f := math.Float64frombits(rng.Uint64())
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		floats = append(floats, f, math.Trunc(f), float64(rng.Int63n(1<<54)-1<<53), rng.Float64()*1e7)
	}
	for _, f := range floats {
		want, _ := json.Marshal(f)
		if got := appendFloat(nil, f); string(got) != string(want) {
			t.Fatalf("appendFloat(%v) = %s, encoding/json writes %s", f, got, want)
		}
	}
	strs := []string{"", "plain", "a\x7fb", "\u2028", "\xff"}
	for c := range 256 {
		strs = append(strs, string([]byte{'x', byte(c), 'y'}))
	}
	for _, s := range strs {
		var want bytes.Buffer
		json.NewEncoder(&want).Encode(s) // HTML escaping on, as the reference writer
		if got := appendString(nil, s); string(got)+"\n" != want.String() {
			t.Fatalf("appendString(%q) = %s, encoding/json writes %s", s, got, want.String())
		}
	}
}

func TestChromeTraceRefusesNonFinite(t *testing.T) {
	for name, rec := range map[string]func(*Trace){
		"span start": func(tra *Trace) { tra.Track("r0").Record(Span{Kind: KindDecode, Start: math.NaN(), End: 1}) },
		"span end":   func(tra *Trace) { tra.Track("r0").Record(Span{Kind: KindDecode, Start: 1, End: math.Inf(1)}) },
		"scaled start": func(tra *Trace) {
			tra.Track("r0").Record(Span{Kind: KindCrash, Start: math.MaxFloat64, End: math.MaxFloat64})
		},
		"factor": func(tra *Trace) {
			tra.Track("r0").Record(Span{Kind: KindThrottle, Start: 1, End: 2, Factor: math.Inf(1)})
		},
		"series value": func(tra *Trace) { tra.GaugeSeries("depth", "").Sample(1, math.NaN()) },
	} {
		tra := buildTrace()
		rec(tra)
		var buf bytes.Buffer
		if err := tra.WriteChromeTrace(&buf); err == nil {
			t.Errorf("%s: non-finite value exported without error", name)
		}
		if buf.Len() != 0 {
			t.Errorf("%s: %d bytes written before the error", name, buf.Len())
		}
	}
	// A NaN attribute is never printed (it fails its "is set" test), so
	// it is not an error.
	tra := buildTrace()
	tra.Track("r0").Record(Span{Kind: KindAborted, Start: 1, End: 2, Lost: math.NaN()})
	if err := tra.WriteChromeTrace(io.Discard); err != nil {
		t.Fatalf("NaN Lost (unset attribute): %v", err)
	}
}

// benchTrace is a deterministic synthetic fleet trace: ingress and
// faults tracks plus four replica tracks of the given number of
// requests each (rings wrap past 2730), crash flows across tracks, and
// per-replica and fleet-wide series.
func benchTrace(requests int) *Trace {
	tra := New(Config{SpanCap: 8192})
	ing, fl := tra.Track("ingress"), tra.Track("faults")
	var ingLanes, faultLanes LaneAllocator
	for r := range 4 {
		tr := tra.Track(fmt.Sprintf("r%d", r))
		kv := tr.Gauge("kv_used_blocks")
		t := float64(r) * 0.37
		for i := range requests {
			id := fmt.Sprintf("s%d-r%d", i, r)
			lane := i % 6
			queue := 0.01 * float64(i%5)
			ing.Record(Span{ID: id, Kind: KindQueue, Lane: ingLanes.Lane(t-queue, t), Start: t - queue, End: t})
			mid := t + 0.05 + 0.001*float64(i%13)
			end := mid + 0.4 + 0.003*float64(i%17)
			tr.Record(Span{ID: id, Kind: KindRequest, Lane: lane, Start: t, End: end, Tokens: 300 + i%50, Cached: 64 * (i % 3), Wait: 0.002 * float64(i%4)})
			tr.Record(Span{ID: id, Kind: KindPrefill, Lane: lane, Start: t, End: mid, Tokens: 200, Cached: 64 * (i % 3)})
			tr.Record(Span{ID: id, Kind: KindDecode, Lane: lane, Start: mid, End: end, Tokens: 100 + i%50})
			if i%250 == 0 {
				flow := tra.NextFlow()
				fl.Record(Span{ID: id, Kind: KindAborted, Lane: faultLanes.Lane(t, end), Start: t, End: end, Cause: tr.Name(), Lost: 0.1, Flow: flow, FlowStart: true})
				ing.Record(Span{ID: id, Kind: KindQueue, Lane: ingLanes.Lane(end, end+0.01), Start: end, End: end + 0.01, Attempt: 1, Flow: flow})
			}
			kv.Sample(t, float64(i%97))
			t += 0.11
		}
	}
	depth := tra.GaugeSeries("ingress_depth", "")
	for i := range requests / 2 {
		depth.Sample(float64(i)*0.2, float64(i%11))
	}
	return tra
}

// BenchmarkWriteChromeTrace exports benchTrace. Its allocations scale
// with the number of tracks, not the number of spans.
func BenchmarkWriteChromeTrace(b *testing.B) {
	tra := benchTrace(5000)
	var out bytes.Buffer
	if err := tra.WriteChromeTrace(&out); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(out.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if err := tra.WriteChromeTrace(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func TestWriteChromeTraceMatchesReferenceOnBenchTrace(t *testing.T) {
	tra := benchTrace(5000)
	var got, want bytes.Buffer
	if err := tra.WriteChromeTrace(&got); err != nil {
		t.Fatal(err)
	}
	if err := writeChromeTraceReflect(tra, &want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("export of the benchmark trace differs from the reference")
	}
	if err := ValidateChromeTrace(got.Bytes()); err != nil {
		t.Fatal(err)
	}
}

// The exporter's allocations depend on the number of tracks and lanes,
// not on the number of spans or points.
func TestWriteChromeTraceAllocsIndependentOfSpans(t *testing.T) {
	small, large := benchTrace(500), benchTrace(5000)
	a := testing.AllocsPerRun(3, func() { _ = small.WriteChromeTrace(io.Discard) })
	b := testing.AllocsPerRun(3, func() { _ = large.WriteChromeTrace(io.Discard) })
	if a != b {
		t.Fatalf("export allocates %v times for 500 requests per replica, %v for 5000", a, b)
	}
}
