package stats

import (
	"encoding/binary"
	"math"
	"testing"
)

// floatsFromBytes decodes the payload into float64s, passing raw bit
// patterns straight through — NaN, ±Inf, subnormals and all — so the
// percentile guards are genuinely exercised.
func floatsFromBytes(data []byte) []float64 {
	n := len(data) / 8
	if n > 256 {
		n = 256
	}
	xs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		xs = append(xs, math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:])))
	}
	return xs
}

func addFloats(f *testing.F, p float64, xs []float64) {
	buf := make([]byte, 0, len(xs)*8)
	for _, x := range xs {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
	}
	f.Add(p, buf)
}

// FuzzPercentiles asserts the percentile toolbox's guarded contract on
// arbitrary samples and ranks: no panics; non-finite samples are ignored;
// with at least one finite sample and a finite p the result is finite and
// bounded by the finite min/max; a single-rank Percentiles call agrees
// with the same rank inside a multi-rank call; Percentiles3 equals
// Percentiles(xs, 50, 95, 99) element-wise; and results are monotone in p.
func FuzzPercentiles(f *testing.F) {
	addFloats(f, 50, []float64{1, 2, 3, 4, 5})
	addFloats(f, 99, []float64{0.1, 7.5, 3.2, 9.9})
	addFloats(f, -10, []float64{2, 1})
	addFloats(f, 250, []float64{2, 1})
	addFloats(f, math.NaN(), []float64{1, math.NaN(), math.Inf(1)})
	addFloats(f, 95, []float64{math.Inf(-1), 4, math.NaN(), -4})
	addFloats(f, 50, nil)
	f.Fuzz(func(t *testing.T, p float64, data []byte) {
		xs := floatsFromBytes(data)

		got := Percentiles(xs, p)[0]
		multi := Percentiles(xs, 0, 25, p, 75, 100)
		if multi[2] != got && !(math.IsNaN(multi[2]) && math.IsNaN(got)) {
			t.Fatalf("multi-rank Percentiles disagrees with single-rank at p=%v: %v vs %v", p, multi[2], got)
		}
		p50, p95, p99 := Percentiles3(xs)
		if want := Percentiles(xs, 50, 95, 99); p50 != want[0] || p95 != want[1] || p99 != want[2] {
			t.Fatalf("Percentiles3 = (%v, %v, %v), want %v", p50, p95, p99, want)
		}

		var finite []float64
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				finite = append(finite, x)
			}
		}
		if len(finite) == 0 {
			// No usable samples: every finite rank must report the 0
			// convention, NaN ranks report NaN.
			if math.IsNaN(p) {
				if !math.IsNaN(got) {
					t.Fatalf("Percentiles(no finite, NaN) = %v, want NaN", got)
				}
				return
			}
			if got != 0 {
				t.Fatalf("Percentiles(no finite samples, %v) = %v, want 0", p, got)
			}
			return
		}
		if math.IsNaN(p) {
			if !math.IsNaN(got) {
				t.Fatalf("Percentiles(xs, NaN) = %v, want NaN", got)
			}
			return
		}
		if math.IsNaN(got) || math.IsInf(got, 0) {
			t.Fatalf("Percentiles(%v finite samples, p=%v) = %v, want finite", len(finite), p, got)
		}
		lo, hi := finite[0], finite[0]
		for _, x := range finite {
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		if got < lo || got > hi {
			t.Fatalf("Percentiles(p=%v) = %v outside finite sample range [%v, %v]", p, got, lo, hi)
		}
		// Monotone in p over one shared sort.
		for i := 1; i < len(multi); i++ {
			a, b := multi[i-1], multi[i]
			if math.IsNaN(a) || math.IsNaN(b) {
				continue // only the injected p can be NaN, and only via NaN input p
			}
			// The probe ranks are ascending except the injected p, which
			// can land anywhere; compare only the fixed ascending ones.
			if i == 2 || i == 3 {
				continue
			}
			if b < a {
				t.Fatalf("percentiles not monotone: p-index %d: %v then %v (full %v)", i, a, b, multi)
			}
		}
	})
}
