package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Percentiles returns the p-th percentile (0..100) for each p, using
// linear interpolation between closest ranks over a single sort of the
// input, which need not be sorted.
//
// Guards: non-finite samples (NaN, ±Inf) are ignored — they would
// otherwise poison the sort and the interpolation; an input with no
// finite samples returns 0 (matching the empty-input convention); p is
// clamped to [0, 100]; a NaN p returns NaN. With at least one finite
// sample and a finite p each result is finite and lies within [min, max]
// of the finite samples (the fuzz target in fuzz_test.go holds this
// contract).
func Percentiles(xs []float64, ps ...float64) []float64 {
	out := make([]float64, len(ps))
	sorted := sortedFinite(xs)
	for i, p := range ps {
		out[i] = percentileSorted(sorted, p)
	}
	return out
}

// Percentiles3 returns the 50th, 95th, and 99th percentiles — the
// latency triple every serving fold reports — without allocating a
// result slice. Values are identical to Percentiles(xs, 50, 95, 99).
func Percentiles3(xs []float64) (p50, p95, p99 float64) {
	sorted := sortedFinite(xs)
	return percentileSorted(sorted, 50), percentileSorted(sorted, 95), percentileSorted(sorted, 99)
}

// sortedFinite returns a sorted copy of the finite samples in xs.
func sortedFinite(xs []float64) []float64 {
	sorted := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) && !math.IsInf(x, 0) {
			sorted = append(sorted, x)
		}
	}
	sort.Float64s(sorted)
	return sorted
}

// percentileSorted interpolates the p-th percentile over pre-sorted
// finite samples.
func percentileSorted(sorted []float64, p float64) float64 {
	if math.IsNaN(p) {
		return math.NaN()
	}
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// MAPE returns the mean absolute percentage error between predictions and
// actuals, expressed as a fraction (0.02 == 2%). Pairs with a zero actual
// are skipped; mismatched lengths or no valid pairs return NaN.
func MAPE(predicted, actual []float64) float64 {
	if len(predicted) != len(actual) {
		return math.NaN()
	}
	sum, n := 0.0, 0
	for i := range actual {
		if actual[i] == 0 {
			continue
		}
		sum += math.Abs((predicted[i] - actual[i]) / actual[i])
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// RSquared returns the coefficient of determination of predictions against
// actuals. A constant actual vector returns NaN.
func RSquared(predicted, actual []float64) float64 {
	if len(predicted) != len(actual) || len(actual) == 0 {
		return math.NaN()
	}
	mean := Mean(actual)
	ssRes, ssTot := 0.0, 0.0
	for i := range actual {
		r := actual[i] - predicted[i]
		ssRes += r * r
		d := actual[i] - mean
		ssTot += d * d
	}
	if ssTot == 0 {
		return math.NaN()
	}
	return 1 - ssRes/ssTot
}

// Clamp limits x to the closed interval [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
