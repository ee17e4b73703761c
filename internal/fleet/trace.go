// Fleet-level telemetry: the dispatch loop and the fault machinery feed
// a shared ingress track (queue-wait and retry-backoff spans), a faults
// track (abort spans, crash instants, and the pre-rendered stall and
// throttle windows), and fleet-wide series (ingress depth, live pool
// size, breaker opens). Replica-side spans come from the engines, which
// record into per-replica tracks the fleet registers at construction.
// Everything here is nil-guarded off Config.Trace, so an untraced run
// pays one pointer compare per hook.
package fleet

import (
	"sort"

	"edgereasoning/internal/engine"
	"edgereasoning/internal/telemetry"
)

// retryMark remembers one scheduled re-admission so the retry's queue
// span starts at the backoff end (not the original arrival) and carries
// its attempt number and the crash flow linking it to the abort.
type retryMark struct {
	at      float64
	attempt int
	flow    uint64
}

// fleetTracer owns the dispatch-side telemetry for one run. It is nil
// when tracing is off; every call site guards — a contract the traceoff
// analyzer enforces via the directive below.
//
//edgereasoning:tracer
type fleetTracer struct {
	trace   *telemetry.Trace
	ingress *telemetry.Track
	faults  *telemetry.Track
	qDepth  *telemetry.Series
	breaker *telemetry.Series
	lanes   telemetry.LaneAllocator // ingress lanes
	flanes  telemetry.LaneAllocator // fault-track lanes
	retries map[string]retryMark
	// pendingFlow carries the most recent abort span's flow ID to the
	// requeue decision that immediately follows it (crash processes each
	// abort fully before the next), so the retry's queue span can close
	// the flow arrow.
	pendingFlow uint64
}

// newFleetTracer registers the shared tracks ahead of the replica
// tracks, fixing the Perfetto layout: ingress, faults, then replicas in
// pool order.
func newFleetTracer(t *telemetry.Trace) *fleetTracer {
	if t == nil {
		return nil
	}
	return &fleetTracer{
		trace:   t,
		ingress: t.Track("ingress"),
		faults:  t.Track("faults"),
		qDepth:  t.GaugeSeries("ingress_queue_depth", ""),
		breaker: t.CounterFor("breaker_opens", ""),
		retries: make(map[string]retryMark),
	}
}

// sampleQueue records the ingress backlog on the dispatch clock.
func (ft *fleetTracer) sampleQueue(t float64, depth int) {
	ft.qDepth.Sample(t, float64(depth))
}

// dispatched records tr's shared-queue wait ending in a dispatch at t.
// First attempts wait from their arrival; retries from their scheduled
// re-admission instant, closing the crash flow arrow.
func (ft *fleetTracer) dispatched(tr engine.TimedRequest, t float64) {
	start := tr.Arrival
	var attempt int
	var flow uint64
	if m, ok := ft.retries[tr.ID]; ok {
		start, attempt, flow = m.at, m.attempt, m.flow
		delete(ft.retries, tr.ID)
	}
	ft.ingress.Record(telemetry.Span{
		ID: tr.ID, Kind: telemetry.KindQueue,
		Lane:  ft.lanes.Lane(start, t),
		Start: start, End: t,
		Session: tr.SessionID, Attempt: attempt, Flow: flow,
	})
}

// aborted records one crash-destroyed dispatch on the faults track and
// opens a flow for the retry that may follow. tr.Arrival here is the
// dispatch time (the loop restores the true arrival only on the requeue
// copy), so the span covers the attempt's time on the replica.
func (ft *fleetTracer) aborted(tr engine.TimedRequest, at, lost float64, replica string, attempt int) {
	flow := ft.trace.NextFlow()
	ft.pendingFlow = flow
	ft.faults.Record(telemetry.Span{
		ID: tr.ID, Kind: telemetry.KindAborted,
		Lane:  ft.flanes.Lane(tr.Arrival, at),
		Start: tr.Arrival, End: at,
		Cause: replica, Lost: lost, Attempt: attempt,
		Flow: flow, FlowStart: true,
	})
}

// retryScheduled records the backoff window between an abort and its
// re-admission (zero-length for a hedged retry) and marks the pending
// retry so its eventual queue span starts at re.
func (ft *fleetTracer) retryScheduled(tr engine.TimedRequest, at, re float64, attempt int) {
	ft.ingress.Record(telemetry.Span{
		ID: tr.ID, Kind: telemetry.KindRetryWait,
		Lane:  ft.lanes.Lane(at, re),
		Start: at, End: re, Attempt: attempt,
	})
	ft.retries[tr.ID] = retryMark{at: re, attempt: attempt, flow: ft.pendingFlow}
	ft.pendingFlow = 0
}

// crashed drops a zero-length crash marker on the faults track.
func (ft *fleetTracer) crashed(replica string, at float64) {
	ft.faults.Record(telemetry.Span{
		Kind: telemetry.KindCrash, Cause: replica,
		Lane:  ft.flanes.Lane(at, at),
		Start: at, End: at,
	})
}

// faultWindows pre-renders every compiled stall and throttle window onto
// the faults track — the injected schedule is known before dispatch
// starts, and seeing the windows alongside the abort spans is the point
// of the track. Windows are laid out in start order so the lane
// assignment is deterministic.
func (ft *fleetTracer) faultWindows(replicas []*replica) {
	var spans []telemetry.Span
	for _, r := range replicas {
		if r.tl == nil {
			continue
		}
		for _, w := range r.tl.fx.Stalls {
			spans = append(spans, telemetry.Span{
				Kind: telemetry.KindStall, Cause: r.cfg.Name,
				Start: w.From, End: w.To,
			})
		}
		for _, w := range r.tl.fx.Throttles {
			spans = append(spans, telemetry.Span{
				Kind: telemetry.KindThrottle, Cause: r.cfg.Name,
				Start: w.From, End: w.To, Factor: w.Factor,
			})
		}
	}
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	for _, s := range spans {
		s.Lane = ft.flanes.Lane(s.Start, s.End)
		ft.faults.Record(s)
	}
}

// finalize samples the pool-size history and the per-replica run totals
// once the fold is complete. The live-replica series replays the scale
// events (initial size at t=0); the per-replica gauges land one sample
// at the wall clock, giving the Prometheus snapshot its final values.
func (ft *fleetTracer) finalize(out *Metrics, initial int) {
	live := ft.trace.GaugeSeries("live_replicas", "")
	live.Sample(0, float64(initial))
	for _, ev := range out.ScaleEvents {
		live.Sample(ev.Time, float64(ev.Live))
	}
	for _, rb := range out.PerReplica() {
		ft.trace.GaugeSeries("replica_served", rb.Name).Sample(out.WallTime, float64(rb.Served))
		ft.trace.GaugeSeries("replica_busy_seconds", rb.Name).Sample(out.WallTime, rb.BusySeconds)
		ft.trace.GaugeSeries("replica_crashes", rb.Name).Sample(out.WallTime, float64(rb.Crashes))
	}
}

// ReplicaBreakdown is one replica's run totals — the compact per-replica
// view the trace exporter and the CLI summary table share.
type ReplicaBreakdown struct {
	Name        string
	Served      int
	BusySeconds float64
	Crashes     int
}

// PerReplica summarizes each replica's share of the run, in pool order.
func (m Metrics) PerReplica() []ReplicaBreakdown {
	out := make([]ReplicaBreakdown, len(m.Replicas))
	for i, r := range m.Replicas {
		out[i] = ReplicaBreakdown{
			Name: r.Name, Served: r.Served,
			BusySeconds: r.BusyTime, Crashes: r.Crashes,
		}
	}
	return out
}
