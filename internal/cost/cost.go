// Package cost implements the paper's deployment-economics model
// (§III-B): edge inference is billed as metered electricity plus amortized
// hardware, normalized to dollars per million tokens, and compared against
// cloud API pricing (Table III).
package cost

import "fmt"

// Rates captures the billing assumptions.
type Rates struct {
	// ElectricityPerKWh is the energy tariff in $/kWh.
	ElectricityPerKWh float64
	// HardwarePerHour is the amortized platform cost in $/hour.
	HardwarePerHour float64
}

// PaperRates returns the paper's assumptions: $0.15/kWh electricity and
// the Jetson AGX Orin amortized at $0.045/hour.
func PaperRates() Rates {
	return Rates{ElectricityPerKWh: 0.15, HardwarePerHour: 0.045}
}

// Breakdown is the cost of one workload.
type Breakdown struct {
	EnergyKWh    float64
	WallHours    float64
	Tokens       int
	EnergyCost   float64 // dollars
	HardwareCost float64
}

// Total returns the workload's total cost in dollars.
func (b Breakdown) Total() float64 { return b.EnergyCost + b.HardwareCost }

// PerMillionTokens returns $/1M tokens (the Table III unit).
func (b Breakdown) PerMillionTokens() float64 {
	if b.Tokens <= 0 {
		return 0
	}
	return b.Total() / float64(b.Tokens) * 1e6
}

// EnergyPerMillionTokens returns the energy component in $/1M tokens.
func (b Breakdown) EnergyPerMillionTokens() float64 {
	if b.Tokens <= 0 {
		return 0
	}
	return b.EnergyCost / float64(b.Tokens) * 1e6
}

// HardwarePerMillionTokens returns the amortization component in $/1M.
func (b Breakdown) HardwarePerMillionTokens() float64 {
	if b.Tokens <= 0 {
		return 0
	}
	return b.HardwareCost / float64(b.Tokens) * 1e6
}

// String renders the breakdown in the paper's style.
func (b Breakdown) String() string {
	return fmt.Sprintf("$%.3f/1M tokens ($%.4f energy + $%.4f hardware)",
		b.PerMillionTokens(), b.EnergyPerMillionTokens(), b.HardwarePerMillionTokens())
}

// Bill prices a workload: energy in joules, wall time in seconds, and the
// token count processed (prompt + generated, as the paper bills).
func Bill(r Rates, energyJoules, wallSeconds float64, tokens int) Breakdown {
	b := Breakdown{
		EnergyKWh: energyJoules / 3.6e6,
		WallHours: wallSeconds / 3600,
		Tokens:    tokens,
	}
	b.EnergyCost = b.EnergyKWh * r.ElectricityPerKWh
	b.HardwareCost = b.WallHours * r.HardwarePerHour
	return b
}

// CloudPrice is a commercial API price point for comparison.
type CloudPrice struct {
	Name             string
	InputPerMillion  float64 // $/1M input tokens
	OutputPerMillion float64
	UserTPS          float64 // reported single-user decode throughput
}

// PaperCloudPrices returns the cloud reference points of Table III and
// §III-B: OpenAI o1-preview and o4-mini.
func PaperCloudPrices() []CloudPrice {
	return []CloudPrice{
		{Name: "openai-o1-preview", InputPerMillion: 15, OutputPerMillion: 60, UserTPS: 89.7},
		{Name: "openai-o4-mini", InputPerMillion: 1.1, OutputPerMillion: 4.4},
	}
}
