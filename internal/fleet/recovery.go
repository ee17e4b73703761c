// Fault injection and crash-consistent recovery for the fleet. A
// Config.Faults schedule (or a ReplicaConfig.CrashAt shorthand) compiles
// into per-replica timelines: crashes abort the replica's in-flight
// dispatches and wipe its device KV cache (the host tier optionally
// survives), stall windows freeze it, and throttle windows stretch its
// decode rate. The recovery side makes faults survivable: aborted
// requests re-enter the shared ingress under a RetryPolicy (bounded
// attempts, exponential backoff, a deadline budget), and HealthConfig
// adds per-replica health to routing — a consecutive-failure circuit
// breaker with half-open probes, plus stall-window avoidance.
//
// Crash semantics are authoritative at the dispatch level, mirroring how
// the router works on calibrated estimates everywhere else: the abort
// set at a crash is the suffix of the replica's dispatch log whose
// estimated completion lands after the crash instant (estimated finishes
// are non-decreasing in dispatch order), and the surviving prefix drains
// normally. Each aborted entry's logged queue wait restores its true
// arrival for the retry. The engine sees the crash only as a cache-wipe
// marker on the first post-restart request plus the stall/throttle
// windows, which the router reads through the same engine.FaultInjection
// lookups, so dispatch decisions and execution can never disagree about
// which requests a crash destroyed. The fault machinery runs on every
// fleet; a fault-free run simply has no crash events to process.
package fleet

import (
	"fmt"
	"math"
	"sort"

	"edgereasoning/internal/engine"
	"edgereasoning/internal/faults"
)

// RetryPolicy re-admits crash-aborted requests through the shared
// ingress. A nil Config.Retry drops aborted work on the floor — the
// no-recovery baseline the drills experiment compares against.
type RetryPolicy struct {
	// MaxAttempts bounds total dispatch attempts per request, the first
	// included (default 3).
	MaxAttempts int
	// Backoff is the wait before a request's first re-admission,
	// doubling with every further abort (default 0.5 s).
	Backoff float64
	// Hedge skips the backoff on the first re-admission — an immediate
	// hedged retry against the crashed attempt; later attempts back off
	// exponentially from Backoff as usual.
	Hedge bool
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.Backoff <= 0 {
		p.Backoff = 0.5
	}
	return p
}

func (p RetryPolicy) validate() error {
	if math.IsNaN(p.Backoff) || math.IsInf(p.Backoff, 0) || p.Backoff < 0 {
		return fmt.Errorf("fleet: retry Backoff must be finite and non-negative, got %v", p.Backoff)
	}
	return nil
}

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
	// admits exactly one probe request; a probe whose estimated
	// completion passes without another crash closes the breaker, a
	// crash during the probe re-opens it. Default 5 s.
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

// timeline is one replica's compiled fault view.
type timeline struct {
	crashes []crashPoint // sorted ascending by at
	// fx holds the stall and throttle windows — plus the crash-boundary
	// cache wipes armed at dispatch — in the engine's own form: the router
	// reads the windows through the same lookups the replica's drain
	// applies them with.
	fx       engine.FaultInjection
	keepHost bool
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

// finishAfter integrates svc seconds of work starting at t across the
// replica's throttle windows: work inside a window runs Factor× slower,
// work outside runs at full speed. A flat whole-service stretch would
// overshoot badly for work that merely grazes a window.
func (tl *timeline) finishAfter(t, svc float64) float64 {
	rem := svc
	for rem > 0 {
		f := tl.fx.ThrottleAt(t)
		// Advance to the next window boundary after t; the factor is
		// constant until then.
		next := math.Inf(1)
		for _, w := range tl.fx.Throttles {
			if w.From > t && w.From < next {
				next = w.From
			}
			if w.To > t && w.To < next {
				next = w.To
			}
		}
		if math.IsInf(next, 1) || t+rem*f <= next {
			return t + rem*f
		}
		rem -= (next - t) / f
		t = next
	}
	return t
}

// healthState is one replica's circuit breaker. State changes are
// applied at monotone dispatch-clock times by settle/strike/noteTake;
// blockedAt is pure, so the router may probe future instants freely.
type healthState struct {
	cfg         HealthConfig
	fails       int  // consecutive crashes
	open        bool // breaker open: no traffic before openUntil, then one probe
	openUntil   float64
	probing     bool // the half-open probe is outstanding
	probeFinish float64
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

// blockedAt reports whether the breaker blocks dispatch at t, and until
// when it does.
func (h *healthState) blockedAt(t float64) (bool, float64) {
	if !h.open {
		return false, 0
	}
	if t < h.openUntil {
		return true, h.openUntil
	}
	if h.probing && t < h.probeFinish {
		// Half-open admits exactly one probe; everyone else waits for
		// its verdict.
		return true, h.probeFinish
	}
	return false, 0
}

// settle closes the breaker once the outstanding probe's estimated
// completion has passed without a crash taking it down.
func (h *healthState) settle(t float64) {
	if h.open && h.probing && h.probeFinish <= t {
		h.open = false
		h.probing = false
		h.fails = 0
	}
}

// noteTake records a half-open dispatch, estimated to finish at finish,
// as the breaker's probe.
func (h *healthState) noteTake(t, finish float64) {
	if h.open && !h.probing && t >= h.openUntil {
		h.probing = true
		h.probeFinish = finish
	}
}

// injection is the engine-level fault view of this replica's drain: its
// stall and throttle windows plus the crash-boundary cache wipes. Nil
// when there is nothing to inject, keeping those drains byte-identical
// to a fault-free run.
func (r *replica) injection() *engine.FaultInjection {
	if r.tl == nil {
		return nil
	}
	fx := &r.tl.fx
	if len(fx.Stalls) == 0 && len(fx.Throttles) == 0 && len(fx.CrashWipes) == 0 {
		return nil
	}
	return fx
}

// chaosEvent is one crash in the run's global, time-ordered sequence.
type chaosEvent struct {
	at, restart float64
	replica     int
}

// compileFaults attaches per-replica fault timelines from Config.Faults
// and the ReplicaConfig.CrashAt shorthand, returning the global crash
// sequence in processing order. Fault schedules target the configured
// replica set; autoscaler-provisioned replicas are fault-free.
func compileFaults(cfg Config, replicas []*replica) ([]chaosEvent, error) {
	keepHost := cfg.Faults != nil && cfg.Faults.HostSurvivesCrash
	tl := func(i int) *timeline {
		r := replicas[i]
		if r.tl == nil {
			r.tl = &timeline{keepHost: keepHost, deadAt: math.Inf(1)}
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
				fx := &tl(ev.Replica).fx
				fx.Stalls = append(fx.Stalls, engine.StallWindow{From: ev.At, To: ev.At + ev.Duration})
			case faults.Throttle:
				if ev.Factor > 1 {
					fx := &tl(ev.Replica).fx
					fx.Throttles = append(fx.Throttles, engine.ThrottleWindow{From: ev.At, To: ev.At + ev.Duration, Factor: ev.Factor})
				}
			}
		}
	}
	for i, r := range replicas {
		if c := r.cfg.CrashAt; c != 0 {
			if math.IsNaN(c) || math.IsInf(c, 0) || c < 0 {
				return nil, fmt.Errorf("fleet: replica %s CrashAt must be finite and non-negative, got %v", r.cfg.Name, c)
			}
			tl(i).crashes = append(tl(i).crashes, crashPoint{at: c, restart: math.Inf(1)})
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
	// retry is the defaulted Config.Retry and health is Config.Health;
	// nil disables re-admission and breaker settling respectively.
	retry    *RetryPolicy
	health   *HealthConfig
	events   []chaosEvent
	next     int
	pending  []retryItem // sorted ascending by at; consumed from head
	head     int
	attempts map[string]int
	out      *Metrics
	ft       *fleetTracer // nil when tracing is off
}

func (cx *chaos) crashPending() bool { return cx.next < len(cx.events) }

func (cx *chaos) nextCrashAt() (float64, bool) {
	if cx.next < len(cx.events) {
		return cx.events[cx.next].at, true
	}
	return 0, false
}

func (cx *chaos) retryPending() bool { return cx.head < len(cx.pending) }

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
// order, and settles the breakers at t. Idempotent and monotone: the
// dispatch loop calls it at every clock advance, and a crash is always
// processed before any dispatch decision at or after its instant.
func (cx *chaos) processUpTo(t float64) {
	for cx.next < len(cx.events) && cx.events[cx.next].at <= t {
		ev := cx.events[cx.next]
		cx.next++
		cx.crash(ev)
	}
	if cx.health != nil && !math.IsInf(t, 1) {
		for _, r := range cx.ro.replicas {
			if r.hs != nil {
				r.hs.settle(t)
			}
		}
	}
}

// crash executes one crash event: abort the in-flight suffix of the
// replica's sub-stream, account the lost work, route each abort to the
// retry queue or the drop ledger, arm the cache wipe for the replica's
// first post-restart dispatch, strike its breaker, and purge its sticky
// sessions so they re-pin by warmth.
func (cx *chaos) crash(ev chaosEvent) {
	r := cx.ro.replicas[ev.replica]
	if r.hs != nil {
		// A probe that was estimated to finish before this crash
		// succeeded: settle it first, so the crash is a fresh strike
		// rather than a continuation of the old open.
		r.hs.settle(ev.at)
	}
	cx.out.Crashes++
	r.crashes++
	if cx.ft != nil {
		cx.ft.crashed(r.cfg.Name, ev.at)
	}
	cut := len(r.assigned)
	for cut > 0 && r.est[cut-1].finish > ev.at {
		cut--
	}
	for i := cut; i < len(r.assigned); i++ {
		tr := r.assigned[i]
		svc := r.estService(tr)
		lost := 0.0
		if start := r.est[i].finish - svc; start < ev.at {
			lost = math.Min(ev.at-start, svc)
			cx.out.LostWorkSeconds += lost
		}
		cx.out.Aborted++
		if cx.ft != nil {
			cx.ft.aborted(tr, ev.at, lost, r.cfg.Name, cx.attempts[tr.ID])
		}
		// Undo the dispatch-time arrival rewrite so the retry re-enters
		// with its true arrival and the eventual latency spans every
		// attempt.
		orig := tr
		orig.Arrival = tr.Arrival - r.est[i].wait
		cx.requeue(orig, ev.at)
		r.assigned[i] = engine.TimedRequest{}
	}
	r.assigned = r.assigned[:cut]
	r.est = r.est[:cut]
	// Every surviving dispatch was estimated done by the crash instant,
	// so nothing is outstanding.
	r.done = cut
	if !math.IsInf(ev.restart, 1) {
		r.estFreeAt = ev.restart
		// The device KV cache dies with the crash: the first request
		// dispatched after the restart carries the wipe marker into the
		// replica's drain.
		r.pendingWipe = true
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
	if n+1 > cx.retry.MaxAttempts {
		dropIt()
		return
	}
	back := cx.retry.Backoff * math.Pow(2, float64(n-1))
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
