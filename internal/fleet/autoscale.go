// Fleet autoscaling: an elastic replica pool driven by ingress pressure.
// The autoscaler watches the shared admission queue at every dispatch
// decision and provisions a new replica (cold, paying a warm-up) when
// the backlog per live replica or the deadline-miss pressure crosses its
// thresholds, and retires replicas that have sat idle, never shrinking
// below Min or growing beyond Max. Provisioned replicas come from the
// same device/quant profile cycle as HeterogeneousReplicas, so an
// elastic pool is drawn from the same hardware catalog as a fixed one.
package fleet

import (
	"fmt"
	"math"

	"edgereasoning/internal/hw"
	"edgereasoning/internal/model"
)

// AutoscaleConfig parameterizes the elastic pool. The zero value of
// Config.Autoscale (nil) disables autoscaling entirely; a non-nil config
// with zero fields gets the defaults documented per field.
type AutoscaleConfig struct {
	// Min and Max bound the live pool (replicas that are not retired and
	// not permanently failed). The initial Config.Replicas must satisfy
	// Min <= len(Replicas) <= Max.
	Min, Max int
	// Spec is the model served by provisioned replicas (weights
	// alternate FP16 / W4A16 across provisions, like
	// HeterogeneousReplicas).
	Spec model.Spec
	// Devices is the hardware cycle provisioned replicas draw from; an
	// empty list falls back to DefaultDevices.
	Devices []*hw.Device
	// ColdStart is the weight-loading warm-up a provisioned replica pays
	// before it becomes routable: a replica provisioned at time t serves
	// no request before t+ColdStart (modeled via ReplicaConfig.
	// WarmupDelay). Default 5 s.
	ColdStart float64
	// DepthPerReplica is the queue-depth scale-up trigger: provision
	// when more than DepthPerReplica x live requests wait at the
	// ingress. Default 4.
	DepthPerReplica int
	// IdleRetire retires a replica whose backlog has been drained for
	// this many seconds (never below Min). Default 30 s.
	IdleRetire float64
	// Cooldown is the minimum time between scale-ups, so one burst does
	// not provision the whole range at a single dispatch event.
	// Default 2 s.
	Cooldown float64
	// ScaleOn selects which pressure signals may trigger a scale-up.
	// The zero value enables both.
	ScaleOn ScaleSignal
}

// ScaleSignal selects the autoscaler's scale-up trigger set.
type ScaleSignal int

const (
	// ScaleOnBoth scales up on either queue depth or deadline-miss
	// pressure (the default).
	ScaleOnBoth ScaleSignal = iota
	// ScaleOnDepth scales up only when the ingress backlog exceeds
	// DepthPerReplica per live replica.
	ScaleOnDepth
	// ScaleOnMiss scales up only when waiting deadline-bearing requests
	// would already be late by the time a cold replica could help.
	ScaleOnMiss
)

// String names the signal as used in CLI flags and event reasons.
func (s ScaleSignal) String() string {
	switch s {
	case ScaleOnDepth:
		return "depth"
	case ScaleOnMiss:
		return "miss"
	case ScaleOnBoth:
		return "both"
	default:
		return fmt.Sprintf("signal(%d)", int(s))
	}
}

// ParseScaleSignal resolves a CLI spelling to a ScaleSignal.
func ParseScaleSignal(s string) (ScaleSignal, error) {
	switch lower := trimLower(s); lower {
	case "depth", "queue":
		return ScaleOnDepth, nil
	case "miss", "deadline":
		return ScaleOnMiss, nil
	case "both", "":
		return ScaleOnBoth, nil
	}
	return 0, fmt.Errorf("fleet: unknown scale signal %q (have depth, miss, both)", s)
}

func (c AutoscaleConfig) withDefaults() AutoscaleConfig {
	if c.Min <= 0 {
		c.Min = 1
	}
	if c.ColdStart <= 0 {
		c.ColdStart = 5
	}
	if c.DepthPerReplica <= 0 {
		c.DepthPerReplica = 4
	}
	if c.IdleRetire <= 0 {
		c.IdleRetire = 30
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 2
	}
	if len(c.Devices) == 0 {
		c.Devices = DefaultDevices()
	}
	return c
}

// validate rejects unusable configs against the initial pool size.
func (c AutoscaleConfig) validate(initial int) error {
	switch {
	case c.Max < c.Min:
		return fmt.Errorf("fleet: autoscale Max %d below Min %d", c.Max, c.Min)
	case initial < c.Min || initial > c.Max:
		return fmt.Errorf("fleet: initial pool of %d outside autoscale bounds [%d, %d]", initial, c.Min, c.Max)
	case c.Spec.ID == "":
		return fmt.Errorf("fleet: autoscale needs a Spec to provision replicas from")
	case math.IsNaN(c.ColdStart) || math.IsInf(c.ColdStart, 0) || c.ColdStart < 0:
		return fmt.Errorf("fleet: autoscale ColdStart must be finite and non-negative")
	}
	return nil
}

// ScaleEvent records one pool-size change.
type ScaleEvent struct {
	// Time is the simulated instant the pool changed. For retirements
	// this is the moment the replica's idle timer expired, which can
	// precede the dispatch event that detected it.
	Time float64
	// Up is true for a provision, false for a retirement.
	Up bool
	// Replica names the replica added or removed.
	Replica string
	// Live is the live pool size after the event.
	Live int
	// Reason is the trigger: "depth", "miss", or "outage" for
	// provisions, "idle" for retirements.
	Reason string
}

// autoscaler is the dispatch-time controller owned by one Serve run.
type autoscaler struct {
	cfg         AutoscaleConfig
	provisioned int     // replicas added so far (drives the profile cycle)
	lastUp      float64 // time of the last provision
	events      []ScaleEvent
	peak        int
}

func newAutoscaler(cfg *AutoscaleConfig, initial int) (*autoscaler, error) {
	if cfg == nil {
		return nil, nil
	}
	c := cfg.withDefaults()
	if err := c.validate(initial); err != nil {
		return nil, err
	}
	return &autoscaler{
		cfg:    c,
		lastUp: math.Inf(-1),
		peak:   initial,
		// The event log is bounded by provisions plus retirements —
		// O(Max) per run; reserving it up front keeps every scale
		// decision allocation-free.
		events: make([]ScaleEvent, 0, 2*c.Max),
	}, nil
}

// liveAt reports whether the replica counts toward the live pool at t:
// not retired, and not (permanently) failed or crash-dead — a replica
// whose FailAt (or permanent-crash instant) lands at or before the end
// of its warm-up is dead at birth and never counts. A replica down
// awaiting a crash restart still counts: it holds pool resources and
// will return.
func (r *replica) liveAt(t float64) bool {
	if r.retired {
		return false
	}
	if r.cfg.FailAt > 0 {
		if t >= r.cfg.FailAt {
			return false
		}
		if r.cfg.WarmupDelay >= r.cfg.FailAt {
			return false
		}
	}
	if r.tl != nil && !math.IsInf(r.tl.deadAt, 1) {
		if t >= r.tl.deadAt {
			return false
		}
		if r.cfg.WarmupDelay >= r.tl.deadAt {
			return false
		}
	}
	return true
}

func (ro *router) liveCount(t float64) int {
	n := 0
	for _, r := range ro.replicas {
		if r.liveAt(t) {
			n++
		}
	}
	return n
}

// observe runs the autoscaler at one dispatch decision: retire idle
// replicas first, then provision if the ingress shows pressure. It
// returns an error only when building a provisioned replica's engine
// fails.
func (as *autoscaler) observe(ro *router, q *ingress, t float64) error {
	as.retireIdle(ro, t)
	live := ro.liveCount(t)
	if live >= as.cfg.Max || t-as.lastUp < as.cfg.Cooldown {
		return nil
	}
	reason := ""
	switch {
	case (as.cfg.ScaleOn == ScaleOnBoth || as.cfg.ScaleOn == ScaleOnDepth) &&
		q.len() > as.cfg.DepthPerReplica*live:
		reason = "depth"
	case (as.cfg.ScaleOn == ScaleOnBoth || as.cfg.ScaleOn == ScaleOnMiss) &&
		q.missPressure(t, as.cfg.ColdStart) > ro.idleReplicas(t):
		// Soon-late waiting work beyond what idle replicas can start
		// immediately: a request about to be dispatched to an idle pool
		// is not pressure, however tight its slack — otherwise any
		// workload with slack below ColdStart would provision to Max
		// with zero congestion.
		reason = "miss"
	default:
		return nil
	}
	return as.provision(ro, t, reason)
}

// provision adds one cold replica from the profile cycle. Callers have
// already checked the Max bound except for the outage path, which
// re-checks here.
func (as *autoscaler) provision(ro *router, t float64, reason string) error {
	if ro.liveCount(t) >= as.cfg.Max {
		return fmt.Errorf("fleet: autoscale provision at Max %d", as.cfg.Max)
	}
	k := as.provisioned
	spec := as.cfg.Spec
	if k%2 == 1 {
		spec = spec.Quantized()
	}
	dev := as.cfg.Devices[k%len(as.cfg.Devices)]
	name := fmt.Sprintf("as%d-%s", k, dev.Name)
	if spec.IsQuantized() {
		name += "-w4"
	}
	rc := ReplicaConfig{
		Name:        name,
		Spec:        spec,
		Device:      dev,
		WarmupDelay: t + as.cfg.ColdStart,
	}.withDefaults(len(ro.replicas))
	r, err := newReplica(rc, ro.tmpl, ro.trace)
	if err != nil {
		return fmt.Errorf("fleet: autoscale provision %s: %w", name, err)
	}
	r.provisionedAt = t
	ro.replicas = append(ro.replicas, r)
	as.provisioned++
	as.lastUp = t
	live := ro.liveCount(t)
	if live > as.peak {
		as.peak = live
	}
	as.events = append(as.events, ScaleEvent{Time: t, Up: true, Replica: rc.Name, Live: live, Reason: reason})
	return nil
}

// retireIdle drains replicas whose backlog has been empty for the idle
// window, in ascending index order for determinism. The retirement
// instant is when the idle timer actually expired, not when this
// dispatch event noticed it — clamped between the previous scale event
// and t so the event log stays monotone — which keeps replica-seconds
// accounting honest.
func (as *autoscaler) retireIdle(ro *router, t float64) {
	for i, r := range ro.replicas {
		if !r.liveAt(t) || r.depth(t) > 0 {
			continue
		}
		// The idle timer starts when the backlog was estimated to drain,
		// and never before the replica came up.
		idleAt := math.Max(r.estFreeAt, r.cfg.WarmupDelay)
		if t-idleAt < as.cfg.IdleRetire {
			continue
		}
		if ro.liveCount(t) <= as.cfg.Min {
			return
		}
		at := idleAt + as.cfg.IdleRetire
		if n := len(as.events); n > 0 && at < as.events[n-1].Time {
			at = as.events[n-1].Time
		}
		if at > t {
			at = t
		}
		r.retired = true
		r.retiredAt = at
		ro.purge(i)
		as.events = append(as.events, ScaleEvent{
			Time: at, Up: false, Replica: r.cfg.Name,
			Live: ro.liveCount(t), Reason: "idle",
		})
	}
}
