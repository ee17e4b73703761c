package power

import (
	"math"
	"testing"

	"edgereasoning/internal/gpusim"
	"edgereasoning/internal/hw"
	"edgereasoning/internal/model"
)

func meterAndSim() (*Meter, *gpusim.Sim) {
	d := hw.JetsonAGXOrin64GB()
	return NewMeter(d), gpusim.New(d)
}

// Table XIX: decode power for the DSR1 trio ≈ 19.6 / 24.4 / 26.5 W.
func TestDecodePowerMatchesPaper(t *testing.T) {
	m, s := meterAndSim()
	cases := []struct {
		id   model.ID
		want float64
	}{
		{model.DSR1Qwen1_5B, 19.6},
		{model.DSR1Llama8B, 24.4},
		{model.DSR1Qwen14B, 26.5},
	}
	for _, c := range cases {
		a := model.MustLookup(c.id).Arch
		res := s.DecodeRun(a, model.FP16, 512, 1024, 1)
		got := m.Power(res)
		if math.Abs(got-c.want)/c.want > 0.20 {
			t.Errorf("%s decode power = %.1f W, want %.1f ±20%%", c.id, got, c.want)
		}
	}
}

// Fig 5a: decode power grows (logarithmically) with output length.
func TestDecodePowerGrowsWithOutputLength(t *testing.T) {
	m, s := meterAndSim()
	a := model.MustLookup(model.DSR1Llama8B).Arch
	var prev float64
	for i, o := range []int{64, 256, 1024, 2048} {
		p := m.Power(s.DecodeRun(a, model.FP16, 512, o, 1))
		if i > 0 && p <= prev {
			t.Errorf("power must grow with O: O=%d gives %.2f <= %.2f", o, p, prev)
		}
		prev = p
	}
}

// Fig 4a: prefill power grows with input length, and the 1.5B model reads
// far lower than 8B/14B at 4K through the sampling window.
func TestPrefillPowerShape(t *testing.T) {
	m, s := meterAndSim()
	small := model.MustLookup(model.DSR1Qwen1_5B).Arch
	large := model.MustLookup(model.DSR1Llama8B).Arch

	pSmall := m.ObservedPower(s.Prefill(small, model.FP16, 4096, 1))
	pLarge := m.ObservedPower(s.Prefill(large, model.FP16, 4096, 1))
	if pLarge < 18 {
		t.Errorf("8B prefill@4k observed power = %.1f W, paper reports >20 W", pLarge)
	}
	if pSmall >= pLarge-8 {
		t.Errorf("1.5B prefill power (%.1f W) should sit well below 8B (%.1f W)", pSmall, pLarge)
	}

	p512 := m.ObservedPower(s.Prefill(large, model.FP16, 512, 1))
	if p512 >= pLarge {
		t.Errorf("prefill power must grow with I: %.1f W @512 vs %.1f W @4096", p512, pLarge)
	}
}

// Fig 10c: power rises with the parallel scaling factor (14→25 W for
// 1.5B, ~25→35 W for the larger models).
func TestParallelScalingPowerRises(t *testing.T) {
	m, s := meterAndSim()
	for _, id := range []model.ID{model.DSR1Qwen1_5B, model.DSR1Qwen14B} {
		a := model.MustLookup(id).Arch
		p1 := m.Power(s.DecodeRun(a, model.FP16, 512, 128, 1))
		p32 := m.Power(s.DecodeRun(a, model.FP16, 512, 128, 32))
		if p32 <= p1 {
			t.Errorf("%s: power at SF=32 (%.1f) must exceed SF=1 (%.1f)", id, p32, p1)
		}
		if p32 > m.Device.MaxPower {
			t.Errorf("%s: power %.1f exceeds device cap", id, p32)
		}
	}
}

// Energy is power × time and is never distorted by the sampling window.
func TestEnergyConsistency(t *testing.T) {
	m, s := meterAndSim()
	a := model.MustLookup(model.DSR1Qwen1_5B).Arch
	res := s.Prefill(a, model.FP16, 128, 1) // far shorter than the window
	e := m.Energy(res)
	if math.Abs(e-m.Power(res)*res.Time) > 1e-12 {
		t.Error("Energy must equal true Power × Time")
	}
	if m.ObservedPower(res) >= m.Power(res) {
		t.Error("a short phase must read lower through the sampling window")
	}
}

// Fig 5b: energy per decode token — the 1.5B model is several times
// cheaper than the 14B (the paper reports ~7×).
func TestEnergyPerTokenModelGap(t *testing.T) {
	m, s := meterAndSim()
	small := model.MustLookup(model.DSR1Qwen1_5B).Arch
	large := model.MustLookup(model.DSR1Qwen14B).Arch
	eSmall := m.EnergyPerToken(s.DecodeRun(small, model.FP16, 512, 1024, 1))
	eLarge := m.EnergyPerToken(s.DecodeRun(large, model.FP16, 512, 1024, 1))
	ratio := eLarge / eSmall
	if ratio < 4 || ratio > 12 {
		t.Errorf("14B/1.5B energy-per-token ratio = %.1f, paper reports ~7x", ratio)
	}
}

func TestIdlePhaseReadsIdlePower(t *testing.T) {
	m, _ := meterAndSim()
	if got := m.Power(gpusim.Result{}); got != m.Device.IdlePower {
		t.Errorf("empty phase power = %v, want idle", got)
	}
}

func TestQuantizeStates(t *testing.T) {
	m, s := meterAndSim()
	m.QuantizeStates = true
	a := model.MustLookup(model.DSR1Llama8B).Arch
	p := m.Power(s.DecodeRun(a, model.FP16, 512, 128, 4))
	d := m.Device
	step := (d.MaxPower - d.IdlePower) / float64(d.PowerStates)
	rem := math.Mod(p-d.IdlePower, step)
	if math.Min(rem, step-rem) > 1e-9 {
		t.Errorf("quantized power %.3f not on the %d-state ladder", p, d.PowerStates)
	}
}

func TestGPUUtilizationRange(t *testing.T) {
	m, s := meterAndSim()
	a := model.MustLookup(model.DSR1Qwen14B).Arch
	u1 := m.GPUUtilization(s.DecodeRun(a, model.FP16, 512, 128, 1))
	u32 := m.GPUUtilization(s.DecodeRun(a, model.FP16, 512, 128, 32))
	if u1 < 0 || u1 > 100 || u32 < 0 || u32 > 100 {
		t.Errorf("utilization out of range: %v, %v", u1, u32)
	}
	if u32 < u1 {
		t.Errorf("utilization must rise with parallel scaling: %v -> %v", u1, u32)
	}
}

func TestPowerNeverExceedsCap(t *testing.T) {
	m, s := meterAndSim()
	for _, spec := range model.All() {
		res := s.DecodeRun(spec.Arch, model.FP16, 2048, 512, 64)
		if p := m.Power(res); p > m.Device.MaxPower+1e-9 {
			t.Errorf("%s: power %.1f exceeds cap %.1f", spec.ID, p, m.Device.MaxPower)
		}
	}
}

// Power keys residency on the result's own token count (n·batch for a
// batched result); PowerAt with that factor is the same number, and a
// prefill or a factor of 1 carries no boost.
func TestResidencyKeying(t *testing.T) {
	m, s := meterAndSim()
	a := model.MustLookup(model.DSR1Qwen1_5B).Arch
	dec := s.DecodeRun(a, model.FP16, 512, 256, 4)
	if got, want := m.Power(dec), m.PowerAt(dec, m.Residency(256*4)); got != want {
		t.Errorf("Power = %v, PowerAt(Residency(n·batch)) = %v", got, want)
	}
	if m.Power(dec) <= m.PowerAt(dec, 1) {
		t.Error("a sustained decode must read above its unboosted power")
	}
	if f := m.Residency(0); f != 1 {
		t.Errorf("Residency(0) = %v, want 1", f)
	}
	if f := m.Residency(64); math.Abs(f-(1+m.ResidencyRho*math.Log10(2))) > 1e-15 {
		t.Errorf("Residency(64) = %v, want 1 + ρ·log10(2)", f)
	}
	pre := s.Prefill(a, model.FP16, 512, 1)
	if m.Power(pre) != m.PowerAt(pre, 1) {
		t.Error("prefill must carry no residency boost")
	}
}
