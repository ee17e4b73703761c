package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 10}, {100, 40}, {50, 25}, {25, 17.5},
	}
	for _, c := range cases {
		if got := Percentiles(xs, c.p)[0]; math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Percentiles(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentiles(xs, 50)
	Percentiles3(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("percentiles mutated input: %v", xs)
	}
}

func TestMAPE(t *testing.T) {
	pred := []float64{110, 90}
	act := []float64{100, 100}
	if got := MAPE(pred, act); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("MAPE = %v, want 0.10", got)
	}
}

func TestMAPESkipsZeroActuals(t *testing.T) {
	got := MAPE([]float64{5, 110}, []float64{0, 100})
	if math.Abs(got-0.10) > 1e-12 {
		t.Errorf("MAPE = %v, want 0.10 (zero actual skipped)", got)
	}
}

func TestMAPEMismatchedReturnsNaN(t *testing.T) {
	if !math.IsNaN(MAPE([]float64{1}, []float64{1, 2})) {
		t.Error("mismatched lengths should return NaN")
	}
}

func TestRSquaredPerfectFit(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if got := RSquared(xs, xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("RSquared of identical vectors = %v, want 1", got)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Error("Clamp wrong")
	}
}

// Property: the mean always lies within [min, max].
func TestMeanBoundedProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		m := Mean(xs)
		return m >= lo-1e-9 && m <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: percentiles are monotone in p.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b uint8) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		pa := float64(a % 101)
		pb := float64(b % 101)
		if pa > pb {
			pa, pb = pb, pa
		}
		ps := Percentiles(xs, pa, pb)
		return ps[0] <= ps[1]+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
