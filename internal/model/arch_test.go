package model

import (
	"math"
	"testing"
	"testing/quick"
)

// Parameter counts must land on the public models' headline sizes. These
// anchor everything downstream: weight bytes drive decode TBT, which
// drives every latency figure.
func TestParamCountsMatchModelCards(t *testing.T) {
	cases := []struct {
		id      ID
		wantB   float64 // billions
		tolFrac float64
	}{
		{DSR1Qwen1_5B, 1.54, 0.03},
		{DSR1Llama8B, 8.03, 0.03},
		{DSR1Qwen14B, 14.77, 0.03},
		{Qwen25_7Bit, 7.62, 0.03},
		{Gemma7Bit, 8.54, 0.05},
	}
	for _, c := range cases {
		spec := MustLookup(c.id)
		got := float64(spec.Arch.ParamCount()) / 1e9
		if math.Abs(got-c.wantB)/c.wantB > c.tolFrac {
			t.Errorf("%s: params = %.3fB, want ~%.2fB", c.id, got, c.wantB)
		}
	}
}

func TestWeightBytesFP16(t *testing.T) {
	spec := MustLookup(DSR1Llama8B)
	gb := float64(spec.Arch.WeightBytes(FP16)) / 1e9
	if gb < 15.5 || gb > 16.6 {
		t.Errorf("8B FP16 weights = %.2f GB, want ~16.06", gb)
	}
}

func TestW4WeightsRoughlyQuarter(t *testing.T) {
	spec := MustLookup(DSR1Qwen14B)
	fp16 := float64(spec.Arch.WeightBytes(FP16))
	w4 := float64(spec.Arch.WeightBytes(W4A16))
	ratio := w4 / fp16
	if ratio < 0.25 || ratio > 0.30 {
		t.Errorf("W4/FP16 byte ratio = %.3f, want 0.25-0.30 (4-bit + scales)", ratio)
	}
}

func TestKVBytesPerToken(t *testing.T) {
	cases := []struct {
		id   ID
		want int64
	}{
		{DSR1Qwen1_5B, 2 * 28 * 2 * 128 * 2}, // 28,672
		{DSR1Llama8B, 2 * 32 * 8 * 128 * 2},  // 131,072
		{DSR1Qwen14B, 2 * 48 * 8 * 128 * 2},  // 196,608
		{Gemma7Bit, 2 * 28 * 16 * 256 * 2},   // MHA: 458,752
	}
	for _, c := range cases {
		got := MustLookup(c.id).Arch.KVBytesPerToken()
		if got != c.want {
			t.Errorf("%s: KV bytes/token = %d, want %d", c.id, got, c.want)
		}
	}
}

func TestDecodeFLOPsGrowWithContext(t *testing.T) {
	a := MustLookup(DSR1Llama8B).Arch
	if a.DecodeFLOPs(4096) <= a.DecodeFLOPs(1) {
		t.Error("decode FLOPs must grow with context")
	}
	// But the growth is linear and small relative to the dense term.
	growth := a.DecodeFLOPs(4096) / a.DecodeFLOPs(1)
	if growth > 1.2 {
		t.Errorf("decode FLOPs grew %vx over 4k context; attention term too large", growth)
	}
}

func TestArchValidate(t *testing.T) {
	for _, s := range All() {
		if err := s.Arch.Validate(); err != nil {
			t.Errorf("%s: %v", s.ID, err)
		}
	}
	bad := archLlama31_8B
	bad.KVHeads = 7 // 32 % 7 != 0
	if err := bad.Validate(); err == nil {
		t.Error("expected GQA divisibility error")
	}
}

func TestDTypeStringsAndBytes(t *testing.T) {
	if FP16.String() != "fp16" || W4A16.String() != "w4a16" || FP32.String() != "fp32" {
		t.Error("DType String wrong")
	}
	if FP32.BytesPerParam() != 4 || FP16.BytesPerParam() != 2 {
		t.Error("BytesPerParam wrong")
	}
}

// Property: parameter count is monotone in every dimension.
func TestParamCountMonotoneProperty(t *testing.T) {
	base := archQwen25_1_5B
	f := func(extraLayers, extraHidden uint8) bool {
		a := base
		a.Layers += int(extraLayers % 16)
		b := a
		b.Hidden += 128 * int(extraHidden%8)
		return b.ParamCount() >= a.ParamCount() && a.ParamCount() >= base.ParamCount()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
