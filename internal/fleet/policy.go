package fleet

import (
	"fmt"

	"edgereasoning/internal/engine"
)

// Policy selects how the fleet router assigns an arriving request to a
// replica. Routing is deterministic: given the same stream and fleet
// configuration, every policy produces the same assignment run-to-run.
type Policy int

const (
	// RoundRobin cycles through routable replicas in index order,
	// ignoring load and speed (the blind baseline).
	RoundRobin Policy = iota
	// LeastQueue routes to the replica with the fewest outstanding
	// requests, breaking ties by index.
	LeastQueue
	// LatencyWeighted spreads load proportionally to replica speed via
	// smooth weighted round-robin: a replica whose idle engine predicts
	// half the service time for a reference request (180-token prompt,
	// 40 output tokens) receives twice the traffic.
	LatencyWeighted
	// DeadlineAware routes to the replica whose engine predicts the
	// earliest finish for the request (engine.Server.Predict, a lower
	// bound from the engine's real queue and batch) — the one most
	// likely to meet its EDF deadline — and schedules each replica's
	// local queue EDF.
	DeadlineAware
	// SessionAffinity pins each session's turns to one replica — the one
	// holding the session's prefix KV — falling back least-queue (and
	// re-pinning) when the pinned replica is saturated, cold, or failed.
	// Sessionless requests route least-queue. Meaningful with
	// Config.PrefixCache and session-tagged streams; on a sessionless
	// stream it degrades to least-queue.
	SessionAffinity
)

// Policies lists the session-agnostic routing policies in stable order
// (the fleet driver's sweep). SessionAffinity is exercised separately by
// the sessions experiment, which provides the session-tagged streams it
// needs to differ from least-queue.
func Policies() []Policy {
	return []Policy{RoundRobin, LeastQueue, LatencyWeighted, DeadlineAware}
}

// String names the policy as used in tables and CLI flags.
func (p Policy) String() string {
	switch p {
	case RoundRobin:
		return "round-robin"
	case LeastQueue:
		return "least-queue"
	case LatencyWeighted:
		return "latency-weighted"
	case DeadlineAware:
		return "deadline-aware"
	case SessionAffinity:
		return "session-affinity"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// LocalDiscipline is the per-replica queue discipline the policy implies:
// deadline-aware routing pairs with EDF locally, everything else FCFS.
func (p Policy) LocalDiscipline() engine.SchedPolicy {
	if p == DeadlineAware {
		return engine.EDF
	}
	return engine.FCFS
}

// ParsePolicy resolves a CLI spelling to a Policy. Accepted names are the
// String() forms plus the shorthands rr, lq, latency, deadline, and sa.
func ParsePolicy(s string) (Policy, error) {
	switch trimLower(s) {
	case "round-robin", "roundrobin", "rr":
		return RoundRobin, nil
	case "least-queue", "leastqueue", "lq":
		return LeastQueue, nil
	case "latency-weighted", "latency", "lw":
		return LatencyWeighted, nil
	case "deadline-aware", "deadline", "da":
		return DeadlineAware, nil
	case "session-affinity", "session", "sa":
		return SessionAffinity, nil
	}
	return 0, fmt.Errorf("fleet: unknown policy %q (have round-robin, least-queue, latency-weighted, deadline-aware, session-affinity)", s)
}
