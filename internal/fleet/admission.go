package fleet

import (
	"fmt"

	"edgereasoning/internal/engine"
)

// Admission selects the ingress-queue discipline: the order in which
// requests waiting at the fleet's shared front door are handed to the
// router when replica capacity frees up. The zero value (FIFO) is the
// historical head-of-line-blocking queue, so existing configurations
// keep byte-identical behavior.
type Admission int

const (
	// FIFO dispatches strictly in arrival order: when every replica is
	// at capacity the stream head waits and everything queues behind it
	// (head-of-line blocking, as a shared ingress with no reordering).
	FIFO Admission = iota
	// EDF dispatches the waiting request with the earliest deadline
	// first (deadline-less requests go last, in arrival order), and the
	// replicas schedule their local queues EDF as well so the reorder
	// is honored end to end.
	EDF
	// SJF dispatches the waiting request with the shortest prompt
	// first — cheap interactive turns overtake long-context work parked
	// at the head, at the price of starving large prompts under load.
	SJF
	// Shed dispatches FIFO but drops hopeless deadline work instead of
	// serving it late: a waiting request whose deadline has already
	// passed at dispatch time, or whose earliest finish any replica that
	// could take it predicts (engine.Server.Predict, a lower bound)
	// overruns its deadline — a certain miss — is routed to
	// Metrics.Dropped (and counted in Metrics.Shed) rather than stalling
	// the stream. Deadline-less requests are never shed.
	Shed
)

// Admissions lists the ingress disciplines in stable sweep order.
func Admissions() []Admission {
	return []Admission{FIFO, EDF, SJF, Shed}
}

// String names the discipline as used in tables and CLI flags.
func (a Admission) String() string {
	switch a {
	case FIFO:
		return "fifo"
	case EDF:
		return "edf"
	case SJF:
		return "sjf"
	case Shed:
		return "shed"
	default:
		return fmt.Sprintf("admission(%d)", int(a))
	}
}

// localDiscipline maps the ingress discipline onto each replica's local
// queue: an EDF ingress schedules EDF locally too (otherwise the reorder
// would be undone inside the replica); every other discipline defers to
// the routing policy's choice.
func (a Admission) localDiscipline(policy Policy) engine.SchedPolicy {
	if a == EDF {
		return engine.EDF
	}
	return policy.LocalDiscipline()
}

// ParseAdmission resolves a CLI spelling to an Admission. Accepted names
// are the String() forms plus the shorthands f, e, s, and drop.
func ParseAdmission(s string) (Admission, error) {
	switch trimLower(s) {
	case "fifo", "f":
		return FIFO, nil
	case "edf", "e":
		return EDF, nil
	case "sjf", "s":
		return SJF, nil
	case "shed", "drop":
		return Shed, nil
	}
	return 0, fmt.Errorf("fleet: unknown admission discipline %q (have fifo, edf, sjf, shed)", s)
}

// ingress is the fleet's shared admission queue. Requests are pushed in
// arrival order; pick selects the next dispatch per the discipline. The
// waiting slice is consumed from head, so the in-order disciplines
// (FIFO, Shed) dispatch in O(1) amortized; the reordering disciplines
// pay a linear scan per dispatch, which is the cost of looking at the
// whole waiting set.
type ingress struct {
	discipline Admission
	waiting    []engine.TimedRequest
	head       int // waiting[head:] is the live queue
}

//edgereasoning:hotpath bench=BenchmarkAutoscaleServe
func (q *ingress) push(tr engine.TimedRequest) {
	if q.waiting == nil {
		// A 64-slot floor skips the early append-growth doublings; a
		// congested ingress grows geometrically from there.
		q.waiting = make([]engine.TimedRequest, 0, 64) //edgereasoning:allow hotpath -- one-time 64-slot floor, paid once per ingress
	}
	q.waiting = append(q.waiting, tr)
}
func (q *ingress) len() int { return len(q.waiting) - q.head }

// pick returns the index (into waiting) of the request to dispatch
// next. The live region is arrival-ordered, so head is the FIFO choice
// and ties under the reordering disciplines break toward the earliest
// arrival.
//
//edgereasoning:hotpath bench=BenchmarkAutoscaleServe
func (q *ingress) pick() int {
	switch q.discipline {
	case EDF:
		best := q.head
		for i := q.head + 1; i < len(q.waiting); i++ {
			di, db := q.waiting[i].Deadline, q.waiting[best].Deadline
			if di == 0 {
				continue
			}
			if db == 0 || di < db {
				best = i
			}
		}
		return best
	case SJF:
		best := q.head
		for i := q.head + 1; i < len(q.waiting); i++ {
			if q.waiting[i].PromptTokens < q.waiting[best].PromptTokens {
				best = i
			}
		}
		return best
	default: // FIFO and Shed dispatch in arrival order
		return q.head
	}
}

// take removes and returns the request at index i, preserving the
// arrival order of the rest. Taking the head — the only case the
// in-order disciplines hit — is O(1); mid-queue removal shifts the
// tail. Every vacated slot is zeroed, as readyQueue does, so the
// backing array pins no request payloads (PromptSyms histories).
//
//edgereasoning:hotpath bench=BenchmarkAutoscaleServe
func (q *ingress) take(i int) engine.TimedRequest {
	tr := q.waiting[i]
	if i == q.head {
		q.waiting[i] = engine.TimedRequest{}
		q.head++
		// Amortized compaction keeps the backing array from growing
		// with the whole stream.
		if q.head >= 64 && q.head*2 >= len(q.waiting) {
			n := copy(q.waiting, q.waiting[q.head:])
			q.truncate(n)
			q.head = 0
		}
		return tr
	}
	copy(q.waiting[i:], q.waiting[i+1:])
	q.truncate(len(q.waiting) - 1)
	return tr
}

// truncate shortens the queue's backing slice to n, zeroing the slots it
// vacates.
func (q *ingress) truncate(n int) {
	clear(q.waiting[n:])
	q.waiting = q.waiting[:n]
}

// drain removes every waiting request, reporting each through drop —
// the permanent-outage path.
func (q *ingress) drain(drop func(engine.TimedRequest)) {
	for _, tr := range q.waiting[q.head:] {
		drop(tr)
	}
	q.truncate(0)
	q.head = 0
}

// dropLate removes every waiting request whose deadline precedes t,
// reporting each through drop — the Shed discipline's queue purge.
func (q *ingress) dropLate(t float64, drop func(engine.TimedRequest)) {
	kept := q.waiting[q.head:q.head]
	for _, tr := range q.waiting[q.head:] {
		if tr.Deadline > 0 && tr.Deadline < t {
			drop(tr)
			continue
		}
		kept = append(kept, tr)
	}
	q.truncate(q.head + len(kept))
}

// missPressure counts waiting deadline-bearing requests that will
// already be late if help only arrives after horizon more seconds — the
// raw material of the autoscaler's deadline-miss scale-up signal (the
// autoscaler nets out replicas that could start this work immediately).
func (q *ingress) missPressure(t, horizon float64) int {
	n := 0
	for _, tr := range q.waiting[q.head:] {
		if tr.Deadline > 0 && tr.Deadline <= t+horizon {
			n++
		}
	}
	return n
}
