package stats

import (
	"fmt"
	"math"
)

// Histogram is a fixed-bucket counting histogram: observations land in
// the first bucket whose upper bound is >= the value, with an implicit
// +Inf bucket at the end. Two histograms over the same bounds merge by
// element-wise addition, so per-replica distributions fold into a
// fleet-wide one without re-observing — the property exporters rely on.
// Bounds are upper-inclusive (value <= bound), matching the Prometheus
// `le` convention the text exporter emits.
type Histogram struct {
	bounds []float64 // ascending, finite upper bounds
	counts []uint64  // len(bounds)+1; last is the +Inf overflow bucket
	sum    float64
	n      uint64
}

// NewHistogram builds a histogram over the given ascending finite upper
// bounds. At least one bound is required.
func NewHistogram(bounds []float64) (*Histogram, error) {
	if len(bounds) == 0 {
		return nil, fmt.Errorf("stats: histogram needs at least one bucket bound")
	}
	for i, b := range bounds {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			return nil, fmt.Errorf("stats: histogram bound %d is not finite: %v", i, b)
		}
		if i > 0 && b <= bounds[i-1] {
			return nil, fmt.Errorf("stats: histogram bounds not strictly ascending at %d: %v <= %v", i, b, bounds[i-1])
		}
	}
	own := make([]float64, len(bounds))
	copy(own, bounds)
	return &Histogram{bounds: own, counts: make([]uint64, len(own)+1)}, nil
}

// MustHistogram is NewHistogram for static bound tables (panics on a bad
// table — programmer error).
func MustHistogram(bounds []float64) *Histogram {
	h, err := NewHistogram(bounds)
	if err != nil {
		panic(err)
	}
	return h
}

// Observe records one value. NaN observations are ignored (the same
// poisoning guard Percentiles applies).
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.sum += v
	h.n++
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.n }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return h.sum }

// Bounds returns the bucket upper bounds (shared; do not mutate).
func (h *Histogram) Bounds() []float64 { return h.bounds }

// BucketCount returns the count of bucket i, where i == len(Bounds())
// addresses the +Inf overflow bucket.
func (h *Histogram) BucketCount(i int) uint64 { return h.counts[i] }

// Cumulative returns the count of observations <= Bounds()[i] (the
// Prometheus `le` cumulative), or Count() for the +Inf index.
func (h *Histogram) Cumulative(i int) uint64 {
	var c uint64
	for j := 0; j <= i && j < len(h.counts); j++ {
		c += h.counts[j]
	}
	return c
}

// Merge adds o's counts into h. The two histograms must share identical
// bounds.
func (h *Histogram) Merge(o *Histogram) error {
	if len(o.bounds) != len(h.bounds) {
		return fmt.Errorf("stats: merge of mismatched histograms (%d vs %d buckets)", len(h.bounds), len(o.bounds))
	}
	for i := range h.bounds {
		if h.bounds[i] != o.bounds[i] {
			return fmt.Errorf("stats: merge of mismatched histograms (bound %d: %v vs %v)", i, h.bounds[i], o.bounds[i])
		}
	}
	for i := range h.counts {
		h.counts[i] += o.counts[i]
	}
	h.sum += o.sum
	h.n += o.n
	return nil
}

// Clone returns an independent copy (the merge-fold scratch).
func (h *Histogram) Clone() *Histogram {
	c := &Histogram{bounds: h.bounds, counts: make([]uint64, len(h.counts)), sum: h.sum, n: h.n}
	copy(c.counts, h.counts)
	return c
}

// ExpBuckets returns n upper bounds growing geometrically from start by
// factor — the standard latency-bucket shape. start must be positive and
// factor > 1; n < 1 returns nil.
func ExpBuckets(start, factor float64, n int) []float64 {
	if n < 1 || start <= 0 || factor <= 1 {
		return nil
	}
	out := make([]float64, n)
	b := start
	for i := range out {
		out[i] = b
		b *= factor
	}
	return out
}
