package model

import "testing"

func TestLookupAllCatalogIDs(t *testing.T) {
	for _, s := range All() {
		got, err := Lookup(s.ID)
		if err != nil {
			t.Errorf("Lookup(%s): %v", s.ID, err)
			continue
		}
		if got.ID != s.ID {
			t.Errorf("Lookup(%s) returned %s", s.ID, got.ID)
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("gpt-99"); err == nil {
		t.Error("expected error for unknown id")
	}
}

func TestLookupQuantizedSuffix(t *testing.T) {
	s, err := Lookup("dsr1-llama-8b-w4")
	if err != nil {
		t.Fatal(err)
	}
	if !s.IsQuantized() {
		t.Error("suffix lookup should return quantized variant")
	}
	if s.Arch.Name != archLlama31_8B.Name {
		t.Error("quantized variant must keep the base architecture")
	}
}

func TestQuantizedVariant(t *testing.T) {
	base := MustLookup(DSR1Qwen14B)
	q := base.Quantized()
	if q.DType != W4A16 || q.ID != "dsr1-qwen-14b-w4" {
		t.Errorf("quantized spec wrong: %+v", q)
	}
	if base.DType != FP16 {
		t.Error("Quantized must not mutate the receiver")
	}
	if q.Arch.WeightBytes(q.DType) >= base.Arch.WeightBytes(base.DType) {
		t.Error("quantized weights must be smaller")
	}
}

func TestDSR1FamilySizeOrder(t *testing.T) {
	fam := DSR1Family()
	if len(fam) != 3 {
		t.Fatalf("want 3, got %d", len(fam))
	}
	if fam[0].ID != DSR1Qwen1_5B || fam[1].ID != DSR1Llama8B || fam[2].ID != DSR1Qwen14B {
		t.Errorf("family order wrong: %v %v %v", fam[0].ID, fam[1].ID, fam[2].ID)
	}
}

func TestL1SharesQwenArch(t *testing.T) {
	l1 := MustLookup(L1Max)
	dsr := MustLookup(DSR1Qwen1_5B)
	if l1.Arch.ParamCount() != dsr.Arch.ParamCount() {
		t.Error("L1 is a DSR1-Qwen-1.5B fine-tune; geometry must match")
	}
	if l1.Class != BudgetAware {
		t.Error("L1 must be BudgetAware")
	}
}

func TestAllReturnsCopy(t *testing.T) {
	a := All()
	a[0].DisplayName = "mutated"
	if All()[0].DisplayName == "mutated" {
		t.Error("All must return a copy")
	}
}

func TestClassString(t *testing.T) {
	if Reasoning.String() != "reasoning" || NonReasoning.String() != "non-reasoning" || BudgetAware.String() != "budget-aware" {
		t.Error("Class String wrong")
	}
}
