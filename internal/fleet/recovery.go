// Fault injection and crash-consistent recovery for the fleet. A
// Config.Faults schedule compiles into per-replica fault views: crashes
// abort the replica's unfinished work and wipe its device KV cache (the
// host tier optionally survives), stall windows freeze it, and throttle
// windows stretch its decode rate. The recovery side makes faults
// survivable: aborted requests re-enter the shared ingress under a
// RetryPolicy (bounded attempts, exponential backoff, a deadline
// budget), and HealthConfig adds per-replica health to routing — a
// consecutive-failure circuit breaker with half-open probes, plus
// stall-window avoidance.
//
// Crashes act on the engines themselves. The router advances the
// crashed replica's engine to the crash instant and aborts it there
// (engine.Server.Abort): exactly the requests it had not completed by
// then — queued or in flight — are destroyed, each charged the device
// time it had received, and the device prefix cache is wiped at that
// instant. Completed requests stay served. The stall and throttle
// windows live in each replica's engine.FaultInjection, which the engine
// applies and health-aware routing reads through the same stall lookup.
// The fault machinery runs on every fleet; a fault-free run simply has
// no crash events to process.
package fleet

import (
	"fmt"
	"math"
	"sort"

	"edgereasoning/internal/engine"
	"edgereasoning/internal/faults"
)

// RetryPolicy re-admits crash-aborted requests through the shared
// ingress: at most maxAttempts dispatches per request, the first
// included, the first re-admission backing off retryBackoff seconds and
// every further one twice the last. A nil Config.Retry drops aborted
// work on the floor — the no-recovery baseline the drills experiment
// compares against.
type RetryPolicy struct {
	// Hedge skips the backoff on the first re-admission — an immediate
	// hedged retry against the crashed attempt; later attempts back off
	// exponentially as usual.
	Hedge bool
}

const (
	maxAttempts  = 3
	retryBackoff = 0.5 // seconds
)

// HealthConfig enables health-aware routing: each replica carries a
// consecutive-failure circuit breaker, and the router steers new work
// away from replicas it knows to be stalled. A nil Config.Health routes
// blind — crashes still make a replica physically unroutable while it
// is down, but nothing remembers that it keeps failing.
type HealthConfig struct {
	// FailureThreshold opens a replica's breaker after this many
	// consecutive crashes (default 1).
	FailureThreshold int
	// ProbeAfter is the open-to-half-open delay, measured from the
	// moment the replica is back up (restart instant): the breaker then
	// admits exactly one probe request; a probe the engine completes
	// without another crash closes the breaker, a crash during the probe
	// re-opens it. Default 5 s.
	ProbeAfter float64
}

func (h HealthConfig) withDefaults() HealthConfig {
	if h.FailureThreshold <= 0 {
		h.FailureThreshold = 1
	}
	if h.ProbeAfter <= 0 {
		h.ProbeAfter = 5
	}
	return h
}

func (h HealthConfig) validate() error {
	if math.IsNaN(h.ProbeAfter) || math.IsInf(h.ProbeAfter, 0) || h.ProbeAfter < 0 {
		return fmt.Errorf("fleet: health ProbeAfter must be finite and non-negative, got %v", h.ProbeAfter)
	}
	return nil
}

// crashPoint is one compiled crash: down over [at, restart).
type crashPoint struct {
	at      float64
	restart float64 // absolute rejoin instant; +Inf when it never returns
}

// timeline is one replica's compiled crash schedule.
type timeline struct {
	crashes []crashPoint // sorted ascending by at
	// deadAt is the earliest no-restart crash instant (+Inf when every
	// crash restarts): from deadAt on the replica is gone for good.
	deadAt float64
}

// downAt reports whether the replica is crash-down at t, and until when.
func (tl *timeline) downAt(t float64) (bool, float64) {
	for _, c := range tl.crashes {
		if t >= c.at && t < c.restart {
			return true, c.restart
		}
	}
	return false, 0
}

// healthState is one replica's circuit breaker. State changes are
// applied at monotone dispatch-clock times by strike/noteTake and on the
// engine's completions by settle; blockedAt is pure, so the router may
// probe future instants freely.
type healthState struct {
	cfg       HealthConfig
	fails     int  // consecutive crashes
	open      bool // breaker open: no traffic before openUntil, then one probe
	openUntil float64
	// probing marks the half-open probe outstanding: it holds the replica
	// until the engine's served count passes probeDone.
	probing   bool
	probeDone int
}

// strike records a crash at a replica that comes back up at backUpAt,
// reporting whether it freshly opened the breaker.
func (h *healthState) strike(backUpAt float64) bool {
	h.fails++
	h.probing = false
	if !h.open && h.fails >= h.cfg.FailureThreshold {
		h.open = true
		h.openUntil = backUpAt + h.cfg.ProbeAfter
		return true
	}
	if h.open {
		// A crash while open (the probe went down with it): push the
		// half-open horizon out from the new restart.
		h.openUntil = backUpAt + h.cfg.ProbeAfter
	}
	return false
}

// blockedAt reports whether the open breaker blocks dispatch at t, and
// until when. An outstanding probe blocks too (probing), until the
// engine's verdict, which has no instant known in advance.
func (h *healthState) blockedAt(t float64) (bool, float64) {
	if h.open && t < h.openUntil {
		return true, h.openUntil
	}
	return false, 0
}

// settle closes the breaker once the engine has served the probe
// without a crash taking it down.
func (h *healthState) settle(served int) {
	if h.open && h.probing && served > h.probeDone {
		h.open = false
		h.probing = false
		h.fails = 0
	}
}

// noteTake records a half-open dispatch as the breaker's probe. ahead is
// the engine's served count plus what it held at the dispatch: the probe
// is judged done once the engine has served past it.
func (h *healthState) noteTake(t float64, ahead int) {
	if h.open && !h.probing && t >= h.openUntil {
		h.probing = true
		h.probeDone = ahead
	}
}

// chaosEvent is one crash in the run's global, time-ordered sequence.
type chaosEvent struct {
	at, restart float64
	replica     int
}

// compileFaults attaches per-replica fault views from Config.Faults,
// returning the global crash sequence in processing order. Fault
// schedules target the configured replica set; autoscaler-provisioned
// replicas are fault-free.
func compileFaults(cfg Config, replicas []*replica) ([]chaosEvent, error) {
	tl := func(i int) *timeline {
		r := replicas[i]
		if r.tl == nil {
			r.tl = &timeline{deadAt: math.Inf(1)}
		}
		return r.tl
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(len(replicas)); err != nil {
			return nil, err
		}
		for _, ev := range cfg.Faults.Sorted() {
			switch ev.Kind {
			case faults.Crash:
				restart := math.Inf(1)
				if ev.Restart > 0 {
					restart = ev.At + ev.Restart
				}
				tl(ev.Replica).crashes = append(tl(ev.Replica).crashes, crashPoint{at: ev.At, restart: restart})
			case faults.Stall:
				fx := &replicas[ev.Replica].fx
				fx.Stalls = append(fx.Stalls, engine.StallWindow{From: ev.At, To: ev.At + ev.Duration})
			case faults.Throttle:
				if ev.Factor > 1 {
					fx := &replicas[ev.Replica].fx
					fx.Throttles = append(fx.Throttles, engine.ThrottleWindow{From: ev.At, To: ev.At + ev.Duration, Factor: ev.Factor})
				}
			}
		}
	}
	var seq []chaosEvent
	for i, r := range replicas {
		if r.tl == nil {
			continue
		}
		sort.SliceStable(r.tl.crashes, func(a, b int) bool { return r.tl.crashes[a].at < r.tl.crashes[b].at })
		for _, c := range r.tl.crashes {
			if math.IsInf(c.restart, 1) && c.at < r.tl.deadAt {
				r.tl.deadAt = c.at
			}
			seq = append(seq, chaosEvent{at: c.at, restart: c.restart, replica: i})
		}
	}
	sort.SliceStable(seq, func(a, b int) bool {
		if seq[a].at != seq[b].at {
			return seq[a].at < seq[b].at
		}
		return seq[a].replica < seq[b].replica
	})
	return seq, nil
}

// retryItem is one crash-aborted request waiting for re-admission; tr
// carries its original arrival so end-to-end latency accounting spans
// every attempt.
type retryItem struct {
	at float64
	tr engine.TimedRequest
}

// chaos owns the dispatch-time fault machinery for one run: the global
// crash sequence, the retry queue, and the recovery accounting. Every
// run has one; without crash events it never aborts anything.
type chaos struct {
	ro *router
	// retry is Config.Retry (nil disables re-admission);
	// keepHost is the schedule's HostSurvivesCrash.
	retry    *RetryPolicy
	keepHost bool
	events   []chaosEvent
	next     int
	pending  []retryItem // sorted ascending by at; consumed from head
	head     int
	attempts map[string]int
	out      *Metrics
	ft       *fleetTracer // nil when tracing is off
}

func (cx *chaos) nextCrashAt() (float64, bool) {
	if cx.next < len(cx.events) {
		return cx.events[cx.next].at, true
	}
	return 0, false
}

func (cx *chaos) nextRetryAt() (float64, bool) {
	if cx.head < len(cx.pending) {
		return cx.pending[cx.head].at, true
	}
	return 0, false
}

// popRetryUntil hands back the next re-admission due at or before t.
func (cx *chaos) popRetryUntil(t float64) (engine.TimedRequest, bool) {
	if cx.head >= len(cx.pending) || cx.pending[cx.head].at > t {
		return engine.TimedRequest{}, false
	}
	tr := cx.pending[cx.head].tr
	cx.pending[cx.head] = retryItem{}
	cx.head++
	return tr, true
}

// drainRetries empties the retry queue through drop — the permanent-
// outage path, where re-admission can no longer help.
func (cx *chaos) drainRetries(drop func(engine.TimedRequest)) {
	for cx.head < len(cx.pending) {
		drop(cx.pending[cx.head].tr)
		cx.pending[cx.head] = retryItem{}
		cx.head++
	}
}

// pushRetry inserts sorted by re-admission time, after equal keys.
func (cx *chaos) pushRetry(it retryItem) {
	if cx.head >= 64 && cx.head*2 >= len(cx.pending) {
		n := copy(cx.pending, cx.pending[cx.head:])
		for i := n; i < len(cx.pending); i++ {
			cx.pending[i] = retryItem{}
		}
		cx.pending = cx.pending[:n]
		cx.head = 0
	}
	i := cx.head + sort.Search(len(cx.pending)-cx.head, func(k int) bool {
		return cx.pending[cx.head+k].at > it.at
	})
	cx.pending = append(cx.pending, retryItem{})
	copy(cx.pending[i+1:], cx.pending[i:])
	cx.pending[i] = it
}

// processUpTo handles every crash event at or before t, in global time
// order, then advances every engine to a finite t (settling breaker
// probes on the way). Idempotent and monotone: the dispatch loop calls it
// at every clock advance, and a crash is always processed before any
// dispatch decision at or after its instant.
func (cx *chaos) processUpTo(t float64) {
	for cx.next < len(cx.events) && cx.events[cx.next].at <= t {
		ev := cx.events[cx.next]
		cx.next++
		cx.crash(ev)
	}
	if !math.IsInf(t, 1) {
		for _, r := range cx.ro.replicas {
			cx.ro.advance(r, t)
			r.prune(math.Min(t, r.eng.Clock()))
		}
	}
}

// prune drops the leading fault windows that ended by t: every later
// engine event and router query on the replica starts at or after t, so
// they can no longer matter, and the lookups stay short on long runs.
// Windows are compiled in start order.
func (r *replica) prune(t float64) {
	for len(r.fx.Stalls) > 0 && r.fx.Stalls[0].To <= t {
		r.fx.Stalls = r.fx.Stalls[1:]
	}
	for len(r.fx.Throttles) > 0 && r.fx.Throttles[0].To <= t {
		r.fx.Throttles = r.fx.Throttles[1:]
	}
}

// crash executes one crash event: advance the replica's engine to the
// crash instant — a probe it completed by then settles the breaker, so
// the crash is a fresh strike — abort everything it had not completed,
// account the device time lost, route each abort to the retry queue or
// the drop ledger, strike its breaker, and purge its sticky sessions so
// they re-pin by warmth.
func (cx *chaos) crash(ev chaosEvent) {
	r := cx.ro.replicas[ev.replica]
	cx.ro.advance(r, ev.at)
	cx.out.Crashes++
	r.crashes++
	if cx.ft != nil {
		cx.ft.crashed(r.cfg.Name, ev.at)
	}
	for _, a := range r.srv.Abort(ev.at, cx.keepHost) {
		cx.out.LostWorkSeconds += a.Device
		cx.out.Aborted++
		if cx.ft != nil {
			cx.ft.aborted(a, ev.at, r.cfg.Name, cx.attempts[a.ID])
		}
		cx.requeue(a.TimedRequest, ev.at)
	}
	if r.hs != nil {
		backUp := ev.restart
		if math.IsInf(backUp, 1) {
			backUp = ev.at
		}
		if r.hs.strike(backUp) {
			cx.out.BreakerOpens++
			if cx.ft != nil {
				cx.ft.breaker.Add(ev.at, 1)
			}
		}
	}
	cx.ro.purge(ev.replica)
}

// requeue routes one aborted request: back into the ingress at its
// backoff-delayed re-admission time when the retry policy allows, to the
// drop ledger otherwise.
func (cx *chaos) requeue(tr engine.TimedRequest, at float64) {
	dropIt := func() {
		cx.out.AbortedDropped++
		cx.out.Dropped++
		if tr.Deadline > 0 {
			cx.out.DeadlinesTotal++
		}
	}
	if cx.retry == nil {
		dropIt()
		return
	}
	if cx.attempts == nil {
		cx.attempts = make(map[string]int)
	}
	n := cx.attempts[tr.ID] + 1 // the n-th abort of this request
	cx.attempts[tr.ID] = n
	if n+1 > maxAttempts {
		dropIt()
		return
	}
	back := retryBackoff * math.Pow(2, float64(n-1))
	if cx.retry.Hedge && n == 1 {
		back = 0
	}
	re := at + back
	if tr.Deadline > 0 && re >= tr.Deadline {
		// The retry budget is the deadline itself: a re-admission that
		// already overruns it could only ever be served late.
		dropIt()
		return
	}
	cx.out.Retried++
	if cx.ft != nil {
		cx.ft.retryScheduled(tr, at, re, n)
	}
	cx.pushRetry(retryItem{at: re, tr: tr})
}
