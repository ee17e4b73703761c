package core

import (
	"fmt"
	"sort"
)

// ParetoFrontier extracts the candidates not dominated on the
// (latency ↓, accuracy ↑) plane — the frontier Figs 6–8 trace. The result
// is sorted by latency ascending (and therefore accuracy ascending).
func ParetoFrontier(cands []Candidate) []Candidate {
	if len(cands) == 0 {
		return nil
	}
	sorted := make([]Candidate, len(cands))
	copy(sorted, cands)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Latency != sorted[j].Latency {
			return sorted[i].Latency < sorted[j].Latency
		}
		return sorted[i].Accuracy > sorted[j].Accuracy
	})
	var front []Candidate
	bestAcc := -1.0
	for _, c := range sorted {
		if c.Accuracy > bestAcc {
			front = append(front, c)
			bestAcc = c.Accuracy
		}
	}
	return front
}

// Regime is one operating band of the latency axis and the recipe that
// rules it (§V-A identifies three: sub-5s → 1.5B models, 15–30s →
// non-reasoning 8B, >30s → DSR1-Qwen-14B).
type Regime struct {
	MinLatency, MaxLatency float64 // seconds; MaxLatency <= 0 means open-ended
	Best                   Candidate
	Found                  bool
}

// String renders the regime bound and winner.
func (r Regime) String() string {
	bound := fmt.Sprintf(">%.0fs", r.MinLatency)
	if r.MaxLatency > 0 {
		bound = fmt.Sprintf("%.0f-%.0fs", r.MinLatency, r.MaxLatency)
	}
	if !r.Found {
		return fmt.Sprintf("%s: (no feasible recipe)", bound)
	}
	return fmt.Sprintf("%s: %s (%.1f%% @ %.1fs)", bound, r.Best.Label(), r.Best.Accuracy*100, r.Best.Latency)
}

// RegimesOf partitions the latency axis at the given edges and reports
// the best candidate whose latency falls inside each band.
func RegimesOf(cands []Candidate, edges []float64) []Regime {
	bands := make([]Regime, 0, len(edges)+1)
	lo := 0.0
	for _, hi := range edges {
		bands = append(bands, Regime{MinLatency: lo, MaxLatency: hi})
		lo = hi
	}
	bands = append(bands, Regime{MinLatency: lo, MaxLatency: -1})
	for i := range bands {
		for _, c := range cands {
			if c.Latency <= bands[i].MinLatency {
				continue
			}
			if bands[i].MaxLatency > 0 && c.Latency > bands[i].MaxLatency {
				continue
			}
			if !bands[i].Found || c.Accuracy > bands[i].Best.Accuracy {
				bands[i].Best = c
				bands[i].Found = true
			}
		}
	}
	return bands
}
