package cost

import (
	"math"
	"strings"
	"testing"
)

// §III-B single-batch profile: 195,624 tokens in 4,358 s using 0.0317 kWh
// must bill to $0.302 per million tokens ($0.024 energy + $0.278 hw).
func TestPaperSingleBatchCost(t *testing.T) {
	b := Bill(PaperRates(), 0.0317*3.6e6, 4358, 195624)
	if got := b.PerMillionTokens(); math.Abs(got-0.302) > 0.004 {
		t.Errorf("$/1M = %.4f, want 0.302", got)
	}
	if got := b.EnergyPerMillionTokens(); math.Abs(got-0.024) > 0.001 {
		t.Errorf("energy $/1M = %.4f, want 0.024", got)
	}
	if got := b.HardwarePerMillionTokens(); math.Abs(got-0.278) > 0.002 {
		t.Errorf("hardware $/1M = %.4f, want 0.278", got)
	}
}

// §III-B batch-30 profile: 398 s, 0.003 kWh → $0.027 per million tokens.
func TestPaperBatch30Cost(t *testing.T) {
	b := Bill(PaperRates(), 0.003*3.6e6, 398, 195624)
	if got := b.PerMillionTokens(); math.Abs(got-0.027) > 0.002 {
		t.Errorf("$/1M = %.4f, want 0.027", got)
	}
}

// Table III: the edge deployment undercuts o1-preview by >100x.
func TestEdgeVsCloudGap(t *testing.T) {
	edge := Bill(PaperRates(), 0.0317*3.6e6, 4358, 195624)
	cloud := PaperCloudPrices()[0]
	if cloud.Name != "openai-o1-preview" {
		t.Fatal("first cloud price must be o1-preview")
	}
	ratio := cloud.OutputPerMillion / edge.PerMillionTokens()
	if ratio < 100 {
		t.Errorf("cloud/edge ratio = %.0fx, paper reports ~200x", ratio)
	}
}

func TestZeroTokens(t *testing.T) {
	b := Bill(PaperRates(), 1000, 10, 0)
	if b.PerMillionTokens() != 0 || b.EnergyPerMillionTokens() != 0 || b.HardwarePerMillionTokens() != 0 {
		t.Error("zero tokens must price to 0 per-token")
	}
	if b.Total() <= 0 {
		t.Error("total cost is still positive")
	}
}

func TestBreakdownString(t *testing.T) {
	b := Bill(PaperRates(), 0.0317*3.6e6, 4358, 195624)
	s := b.String()
	if !strings.Contains(s, "/1M tokens") {
		t.Errorf("unexpected format: %q", s)
	}
}

func TestBillComponentsAdditive(t *testing.T) {
	b := Bill(PaperRates(), 7.2e6, 7200, 1000)
	if math.Abs(b.Total()-(b.EnergyCost+b.HardwareCost)) > 1e-12 {
		t.Error("total must be the sum of components")
	}
	if math.Abs(b.EnergyKWh-2.0) > 1e-9 {
		t.Errorf("kWh conversion wrong: %v", b.EnergyKWh)
	}
	if math.Abs(b.WallHours-2.0) > 1e-9 {
		t.Errorf("hour conversion wrong: %v", b.WallHours)
	}
}
