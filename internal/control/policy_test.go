package control

import "testing"

func TestKeys(t *testing.T) {
	cases := []struct {
		p    Policy
		want string
	}{
		{BasePolicy(), "base"},
		{SoftLimit(128), "soft-128"},
		{SoftLimit(256), "soft-256"},
		{HardLimit(128), "hard-128"},
		{HardLimit(512), "hard-512"},
		{NoReasoning(), "nr"},
		{DirectAnswer(), "direct"},
	}
	for _, c := range cases {
		if got := c.p.Key(); got != c.want {
			t.Errorf("Key() = %q, want %q", got, c.want)
		}
	}
}

func TestLabelsMatchPaperMarkers(t *testing.T) {
	cases := []struct {
		p    Policy
		want string
	}{
		{BasePolicy(), "Base"},
		{SoftLimit(128), "128-NC"},
		{HardLimit(256), "256T"},
		{NoReasoning(), "NR"},
		{DirectAnswer(), "Direct"},
	}
	for _, c := range cases {
		if got := c.p.Label(); got != c.want {
			t.Errorf("Label() = %q, want %q", got, c.want)
		}
	}
}

func TestCapOnlyForHard(t *testing.T) {
	if HardLimit(128).Cap() != 128 {
		t.Error("hard limit must cap")
	}
	for _, p := range []Policy{BasePolicy(), SoftLimit(128), NoReasoning(), DirectAnswer()} {
		if p.Cap() != 0 {
			t.Errorf("%s must not cap", p.Key())
		}
	}
}

func TestValidate(t *testing.T) {
	if err := HardLimit(0).Validate(); err == nil {
		t.Error("zero hard budget must fail")
	}
	if err := SoftLimit(-5).Validate(); err == nil {
		t.Error("negative soft budget must fail")
	}
	if err := (Policy{Kind: Base, Budget: 7}).Validate(); err == nil {
		t.Error("base with budget must fail")
	}
	for _, p := range []Policy{BasePolicy(), SoftLimit(128), SoftLimit(256), HardLimit(128), HardLimit(256), NoReasoning()} {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Key(), err)
		}
	}
}

func TestKindString(t *testing.T) {
	if Base.String() != "Base" || Hard.String() != "T" || Soft.String() != "NC" {
		t.Error("Kind String wrong")
	}
}
