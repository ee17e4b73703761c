// Package control defines the reasoning-token control policies the paper
// evaluates (§V): unconstrained Base decoding, prompt-based soft limits
// ([n]-NC), enforced hard limits ([n]T), no-reasoning injection (NR), and
// direct generation for non-reasoning models. A policy describes *intent*;
// how a given model responds to it (adherence, accuracy) is calibrated in
// the llm twins.
package control

import "fmt"

// Kind is the control mechanism.
type Kind int

const (
	// Base decodes without any length control.
	Base Kind = iota
	// Soft asks for a budget in the prompt without enforcement ([n]-NC —
	// natural completion). Models overshoot freely.
	Soft
	// Hard asks for a budget and enforces it with a token cutoff ([n]T).
	Hard
	// NoReason injects a pre-completed thinking block so the model skips
	// its chain of thought (the NR configuration, after [22]).
	NoReason
	// Direct is plain generation for non-reasoning models.
	Direct
)

// String names the kind as in the paper's figure legends.
func (k Kind) String() string {
	switch k {
	case Base:
		return "Base"
	case Soft:
		return "NC"
	case Hard:
		return "T"
	case NoReason:
		return "NR"
	case Direct:
		return "Direct"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Policy is one configuration of token control.
type Policy struct {
	Kind   Kind
	Budget int // requested token budget for Soft and Hard; 0 otherwise
}

// Presets matching the paper's evaluated configurations.
func BasePolicy() Policy     { return Policy{Kind: Base} }
func SoftLimit(n int) Policy { return Policy{Kind: Soft, Budget: n} }
func HardLimit(n int) Policy { return Policy{Kind: Hard, Budget: n} }
func NoReasoning() Policy    { return Policy{Kind: NoReason} }
func DirectAnswer() Policy   { return Policy{Kind: Direct} }

// Key is the stable identifier used by calibration tables and reports:
// "base", "soft-128", "hard-256", "nr", "direct".
func (p Policy) Key() string {
	switch p.Kind {
	case Soft:
		return fmt.Sprintf("soft-%d", p.Budget)
	case Hard:
		return fmt.Sprintf("hard-%d", p.Budget)
	case NoReason:
		return "nr"
	case Direct:
		return "direct"
	default:
		return "base"
	}
}

// Label renders the paper's marker label (128T, 256-NC, NR, Base, Direct).
func (p Policy) Label() string {
	switch p.Kind {
	case Soft:
		return fmt.Sprintf("%d-NC", p.Budget)
	case Hard:
		return fmt.Sprintf("%dT", p.Budget)
	case NoReason:
		return "NR"
	case Direct:
		return "Direct"
	default:
		return "Base"
	}
}

// Cap returns the enforced output-token ceiling (0 = uncapped). Only Hard
// policies truncate; soft limits are advisory and the paper shows models
// overshoot them by 4x and more.
func (p Policy) Cap() int {
	if p.Kind == Hard && p.Budget > 0 {
		return p.Budget
	}
	return 0
}

// Validate rejects nonsensical policies.
func (p Policy) Validate() error {
	switch p.Kind {
	case Soft, Hard:
		if p.Budget <= 0 {
			return fmt.Errorf("control: %s policy needs a positive budget", p.Kind)
		}
	default:
		if p.Budget != 0 {
			return fmt.Errorf("control: %s policy cannot carry a budget", p.Kind)
		}
	}
	return nil
}

// ParseKey inverts Key(): "base", "soft-128", "hard-256", "nr", "direct".
func ParseKey(s string) (Policy, error) {
	switch s {
	case "base":
		return BasePolicy(), nil
	case "nr":
		return NoReasoning(), nil
	case "direct":
		return DirectAnswer(), nil
	}
	var n int
	if _, err := fmt.Sscanf(s, "soft-%d", &n); err == nil && n > 0 {
		return SoftLimit(n), nil
	}
	if _, err := fmt.Sscanf(s, "hard-%d", &n); err == nil && n > 0 {
		return HardLimit(n), nil
	}
	return Policy{}, fmt.Errorf("control: cannot parse policy key %q", s)
}
