// Package power models the Jetson's rail power and energy consumption.
// Average power during a simulated phase is derived from the utilization
// signals the GPU simulator reports (bandwidth fraction, compute fraction,
// SM occupancy), with two second-order effects the paper's measurements
// show: a DVFS residency boost for long sustained runs (power grows
// logarithmically with sequence length, Takeaway #3) and a sampling-window
// blend that models how short phases read lower on a finite-rate power
// meter (the reason the paper sees only 6 W during 1.5B prefill).
package power

import (
	"math"

	"edgereasoning/internal/gpusim"
	"edgereasoning/internal/hw"
)

// Meter converts simulated utilization into watts and joules.
type Meter struct {
	Device *hw.Device

	// BWSpan is the dynamic power at full memory-bandwidth utilization;
	// ComputeSpan at full achievable compute utilization. Both calibrated
	// so the DSR1 trio's decode power lands on Table XIX (19.6 / 24.4 /
	// 26.5 W) and prefill power on Fig 4a.
	BWSpan      float64
	ComputeSpan float64

	// ResidencyRho scales the DVFS boost for sustained decode runs: power
	// grows with log10 of the run length (see Residency). Power keys the
	// run length on the result's token count; the serving engine supplies
	// per-sequence factors through PowerAt instead.
	ResidencyRho float64

	// SampleWindow is the power meter's averaging window in seconds.
	// Phases shorter than the window read blended with idle power (only
	// ObservedPower applies this; Energy never does).
	SampleWindow float64

	// QuantizeStates, when true, snaps power to the device's discrete
	// DVFS states (the step pattern of Fig 10c).
	QuantizeStates bool
}

// NewMeter returns a meter with the Orin MAXN calibration.
func NewMeter(d *hw.Device) *Meter {
	return &Meter{
		Device:       d,
		BWSpan:       25.0,
		ComputeSpan:  18.0,
		ResidencyRho: 0.10,
		SampleWindow: 2.0, // tegrastats-style ~1 Hz sampling over short phases
	}
}

// Residency returns the DVFS residency factor 1 + ρ·log10(1 + n/64) for
// a decode run of n tokens: sustained decode keeps clocks boosted, so
// power rises logarithmically with run length (Takeaway #3). It is 1 when
// ResidencyRho or n is non-positive.
func (m *Meter) Residency(n int) float64 {
	if m.ResidencyRho <= 0 || n <= 0 {
		return 1
	}
	return 1 + m.ResidencyRho*math.Log10(1+float64(n)/64)
}

// Power returns the true average rail power (watts) during the phase. A
// decode phase's residency factor is Residency(r.Tokens): the result's
// total token count, which for a batched result is n·batch, not any one
// sequence's run length. Raw batched probes (Fig 10, the ablations) keep
// that keying; the serving engine supplies the mean per-sequence factor
// of its active batch through PowerAt instead.
func (m *Meter) Power(r gpusim.Result) float64 {
	f := 1.0
	if r.Phase == gpusim.PhaseDecode {
		f = m.Residency(r.Tokens)
	}
	return m.PowerAt(r, f)
}

// PowerAt returns the phase's true average power with the given DVFS
// residency factor (1 for none) in place of the one Power keys on
// r.Tokens.
func (m *Meter) PowerAt(r gpusim.Result, residency float64) float64 {
	d := m.Device
	if r.Time <= 0 {
		return d.IdlePower
	}
	occ := r.Occupancy
	if occ <= 0 {
		occ = 1
	}
	// Compute utilization relative to what the device can actually achieve
	// (SM busy fraction tracks achievable, not theoretical, peak).
	computeRel := r.ComputeUtil / d.ComputeEff
	if computeRel > 1 {
		computeRel = 1
	}
	bwFrac := r.BWUtil
	if bwFrac > 1 {
		bwFrac = 1
	}
	p := (d.IdlePower + m.BWSpan*bwFrac*occ + m.ComputeSpan*computeRel*occ) * residency
	if p > d.MaxPower {
		p = d.MaxPower
	}
	if m.QuantizeStates {
		p = m.quantize(p)
	}
	return p
}

// quantize snaps power onto the device's discrete DVFS ladder.
func (m *Meter) quantize(p float64) float64 {
	d := m.Device
	if d.PowerStates <= 1 {
		return p
	}
	step := (d.MaxPower - d.IdlePower) / float64(d.PowerStates)
	n := math.Round((p - d.IdlePower) / step)
	return d.IdlePower + n*step
}

// ObservedPower returns what a finite-rate power meter would report for
// the phase: the true power blended with idle when the phase is shorter
// than the sampling window.
func (m *Meter) ObservedPower(r gpusim.Result) float64 {
	p := m.Power(r)
	if m.SampleWindow <= 0 || r.Time >= m.SampleWindow {
		return p
	}
	return (p*r.Time + m.Device.IdlePower*(m.SampleWindow-r.Time)) / m.SampleWindow
}

// Energy returns the joules consumed by the phase (true power × time;
// the sampling window never distorts energy).
func (m *Meter) Energy(r gpusim.Result) float64 {
	return m.Power(r) * r.Time
}

// EnergyPerToken returns joules per processed token, or 0 for empty
// phases.
func (m *Meter) EnergyPerToken(r gpusim.Result) float64 {
	if r.Tokens <= 0 {
		return 0
	}
	return m.Energy(r) / float64(r.Tokens)
}

// GPUUtilization returns the utilization percentage a tool like
// tegrastats would report for the phase: the occupancy-weighted busy
// fraction (Fig 10c secondary axis).
func (m *Meter) GPUUtilization(r gpusim.Result) float64 {
	d := m.Device
	computeRel := r.ComputeUtil / d.ComputeEff
	bwRel := r.BWUtil / d.MemEff
	u := math.Max(computeRel, bwRel)
	if u > 1 {
		u = 1
	}
	occ := r.Occupancy
	if occ <= 0 {
		occ = 1
	}
	return 100 * u * occ
}
