package model

import "fmt"

// Class partitions the catalog the way the paper's evaluation does (§V).
type Class int

const (
	// Reasoning models emit an explicit chain of thought before the answer
	// (the DeepSeek-R1 distills).
	Reasoning Class = iota
	// NonReasoning models answer directly (Qwen2.5-it, Llama3.1-it, Gemma).
	NonReasoning
	// BudgetAware models are RL-fine-tuned to respect token budgets (L1).
	BudgetAware
)

// String names the class as used in the paper's tables.
func (c Class) String() string {
	switch c {
	case Reasoning:
		return "reasoning"
	case NonReasoning:
		return "non-reasoning"
	case BudgetAware:
		return "budget-aware"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// ID identifies a model in the catalog.
type ID string

// Catalog model identifiers. The DSR1 trio, L1, and DeepScaleR are the
// reasoning side of the study; the -it models are the direct baselines.
const (
	DSR1Qwen1_5B  ID = "dsr1-qwen-1.5b"
	DSR1Llama8B   ID = "dsr1-llama-8b"
	DSR1Qwen14B   ID = "dsr1-qwen-14b"
	L1Max         ID = "l1-max"
	DeepScaleR1_5 ID = "deepscaler-1.5b"
	Qwen25_1_5Bit ID = "qwen2.5-1.5b-it"
	Qwen25_7Bit   ID = "qwen2.5-7b-it"
	Qwen25_14Bit  ID = "qwen2.5-14b-it"
	Llama31_8Bit  ID = "llama3.1-8b-it"
	Gemma7Bit     ID = "gemma-7b-it"
)

// Spec is one deployable model: an architecture plus its behavioural class
// and weight format.
type Spec struct {
	ID          ID
	DisplayName string
	Arch        Arch
	Class       Class
	DType       DType
}

// Quantized returns the W4A16 (LLM-Compressor AWQ) variant of the spec,
// as evaluated in §V-F. The architecture is unchanged; only the weight
// format differs. Behavioural deltas (accuracy loss, shorter outputs) are
// applied by the llm twins, not here.
func (s Spec) Quantized() Spec {
	q := s
	q.ID = s.ID + "-w4"
	q.DisplayName = s.DisplayName + "-W4"
	q.DType = W4A16
	return q
}

// IsQuantized reports whether the spec stores 4-bit weights.
func (s Spec) IsQuantized() bool { return s.DType == W4A16 }

// Architecture geometries from the public model cards.
var (
	archQwen25_1_5B = Arch{
		Name: "qwen2.5-1.5b", Layers: 28, Hidden: 1536, Heads: 12, KVHeads: 2,
		HeadDim: 128, Inter: 8960, Vocab: 151936, TiedEmbd: true, AttnBias: true,
	}
	archLlama31_8B = Arch{
		Name: "llama3.1-8b", Layers: 32, Hidden: 4096, Heads: 32, KVHeads: 8,
		HeadDim: 128, Inter: 14336, Vocab: 128256,
	}
	archQwen25_14B = Arch{
		Name: "qwen2.5-14b", Layers: 48, Hidden: 5120, Heads: 40, KVHeads: 8,
		HeadDim: 128, Inter: 13824, Vocab: 152064, AttnBias: true,
	}
	archQwen25_7B = Arch{
		Name: "qwen2.5-7b", Layers: 28, Hidden: 3584, Heads: 28, KVHeads: 4,
		HeadDim: 128, Inter: 18944, Vocab: 152064, AttnBias: true,
	}
	archGemma7B = Arch{
		Name: "gemma-7b", Layers: 28, Hidden: 3072, Heads: 16, KVHeads: 16,
		HeadDim: 256, Inter: 24576, Vocab: 256000, TiedEmbd: true,
	}
)

// catalog is the full model zoo in a stable order.
var catalog = []Spec{
	{ID: DSR1Qwen1_5B, DisplayName: "DSR1-Qwen-1.5B", Arch: archQwen25_1_5B, Class: Reasoning, DType: FP16},
	{ID: DSR1Llama8B, DisplayName: "DSR1-Llama-8B", Arch: archLlama31_8B, Class: Reasoning, DType: FP16},
	{ID: DSR1Qwen14B, DisplayName: "DSR1-Qwen-14B", Arch: archQwen25_14B, Class: Reasoning, DType: FP16},
	{ID: L1Max, DisplayName: "L1-Max", Arch: archQwen25_1_5B, Class: BudgetAware, DType: FP16},
	{ID: DeepScaleR1_5, DisplayName: "DeepScaleR-1.5B", Arch: archQwen25_1_5B, Class: Reasoning, DType: FP16},
	{ID: Qwen25_1_5Bit, DisplayName: "Qwen2.5-1.5B-it", Arch: archQwen25_1_5B, Class: NonReasoning, DType: FP16},
	{ID: Qwen25_7Bit, DisplayName: "Qwen2.5-7B-it", Arch: archQwen25_7B, Class: NonReasoning, DType: FP16},
	{ID: Qwen25_14Bit, DisplayName: "Qwen2.5-14B-it", Arch: archQwen25_14B, Class: NonReasoning, DType: FP16},
	{ID: Llama31_8Bit, DisplayName: "Llama3.1-8B-it", Arch: archLlama31_8B, Class: NonReasoning, DType: FP16},
	{ID: Gemma7Bit, DisplayName: "Gemma-7B-it", Arch: archGemma7B, Class: NonReasoning, DType: FP16},
}

// Lookup returns the spec for an ID. Quantized IDs ("<base>-w4") resolve
// to the Quantized() variant of the base spec.
func Lookup(id ID) (Spec, error) {
	for _, s := range catalog {
		if s.ID == id {
			return s, nil
		}
	}
	// Try the -w4 suffix convention.
	const suffix = "-w4"
	if n := len(id) - len(suffix); n > 0 && string(id[n:]) == suffix {
		base, err := Lookup(id[:n])
		if err == nil {
			return base.Quantized(), nil
		}
	}
	return Spec{}, fmt.Errorf("model: unknown id %q", id)
}

// MustLookup is Lookup for known-good IDs; it panics on error.
func MustLookup(id ID) Spec {
	s, err := Lookup(id)
	if err != nil {
		panic(err)
	}
	return s
}

// All returns the catalog in stable order.
func All() []Spec {
	out := make([]Spec, len(catalog))
	copy(out, catalog)
	return out
}

// DSR1Family returns the three DeepSeek-R1 distills in size order —
// the models every characterization figure sweeps.
func DSR1Family() []Spec {
	return []Spec{
		MustLookup(DSR1Qwen1_5B),
		MustLookup(DSR1Llama8B),
		MustLookup(DSR1Qwen14B),
	}
}
