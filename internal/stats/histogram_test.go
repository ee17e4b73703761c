package stats

import (
	"math"
	"testing"
)

func TestHistogramObserveAndBuckets(t *testing.T) {
	h := MustHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.0, 1.5, 3.0, 9.0, math.NaN()} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d, want 5 (NaN ignored)", h.Count())
	}
	want := []uint64{2, 1, 1, 1} // <=1 (0.5 and the boundary 1.0), <=2, <=4, +Inf
	for i, w := range want {
		if got := h.BucketCount(i); got != w {
			t.Errorf("bucket %d = %d, want %d", i, got, w)
		}
	}
	if got := h.Cumulative(1); got != 3 {
		t.Errorf("Cumulative(1) = %d, want 3", got)
	}
	if got := h.Cumulative(3); got != 5 {
		t.Errorf("Cumulative(+Inf) = %d, want 5", got)
	}
	if math.Abs(h.Sum()-15.0) > 1e-12 {
		t.Errorf("Sum = %v, want 15", h.Sum())
	}
}

func TestHistogramMerge(t *testing.T) {
	a := MustHistogram([]float64{1, 2})
	b := MustHistogram([]float64{1, 2})
	a.Observe(0.5)
	b.Observe(1.5)
	b.Observe(10)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Count() != 3 || a.BucketCount(0) != 1 || a.BucketCount(1) != 1 || a.BucketCount(2) != 1 {
		t.Fatalf("merged counts wrong: n=%d buckets=[%d %d %d]",
			a.Count(), a.BucketCount(0), a.BucketCount(1), a.BucketCount(2))
	}
	// Merge equals observing the union directly.
	u := MustHistogram([]float64{1, 2})
	for _, v := range []float64{0.5, 1.5, 10} {
		u.Observe(v)
	}
	for i := 0; i < 3; i++ {
		if a.BucketCount(i) != u.BucketCount(i) {
			t.Errorf("bucket %d: merged %d != union %d", i, a.BucketCount(i), u.BucketCount(i))
		}
	}
	mismatched := MustHistogram([]float64{1, 3})
	if err := a.Merge(mismatched); err == nil {
		t.Error("merge of mismatched bounds should error")
	}
	short := MustHistogram([]float64{1})
	if err := a.Merge(short); err == nil {
		t.Error("merge of mismatched bucket counts should error")
	}
}

func TestHistogramValidation(t *testing.T) {
	cases := [][]float64{
		nil,
		{},
		{1, 1},
		{2, 1},
		{math.NaN()},
		{math.Inf(1)},
	}
	for _, bounds := range cases {
		if _, err := NewHistogram(bounds); err == nil {
			t.Errorf("NewHistogram(%v) should error", bounds)
		}
	}
}

func TestHistogramClone(t *testing.T) {
	h := MustHistogram([]float64{1})
	h.Observe(0.5)
	c := h.Clone()
	c.Observe(2)
	if h.Count() != 1 || c.Count() != 2 {
		t.Fatalf("clone not independent: h=%d c=%d", h.Count(), c.Count())
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(0.01, 2, 4)
	want := []float64{0.01, 0.02, 0.04, 0.08}
	if len(b) != len(want) {
		t.Fatalf("len = %d, want %d", len(b), len(want))
	}
	for i := range want {
		if math.Abs(b[i]-want[i]) > 1e-15 {
			t.Errorf("bucket %d = %v, want %v", i, b[i], want[i])
		}
	}
	if ExpBuckets(0, 2, 4) != nil || ExpBuckets(1, 1, 4) != nil || ExpBuckets(1, 2, 0) != nil {
		t.Error("degenerate ExpBuckets should return nil")
	}
}
