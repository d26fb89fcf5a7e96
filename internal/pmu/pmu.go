// Package pmu implements a real-time simulator of a Phasor Measurement
// Unit in the style of Mingotti et al. (Sensors 2021; Section 2.5 of the
// paper): a virtual PMU samples a power-grid voltage waveform, estimates
// its synchrophasor (amplitude and phase), frequency, and ROCOF over
// sliding windows, and can run in a hardware-in-the-loop (HIL) closed loop
// where a controller steers the simulated signal — the digital-twin use the
// paper highlights for application 3.7.
//
// Its tests score accuracy as Total Vector Error (TVE), the IEEE C37.118
// metric: |estimated phasor − true phasor| / |true phasor|.
package pmu

import (
	"errors"
	"fmt"
	"math"
	prng "repro/internal/rng"
)

// Signal describes the simulated grid waveform:
//
//	v(t) = Amplitude·cos(2π·Frequency·t + Phase) + harmonics + noise
type Signal struct {
	Amplitude float64 // volts (peak)
	Frequency float64 // Hz (nominal 50 or 60)
	Phase     float64 // radians
	// Harmonics maps harmonic order (≥2) to relative amplitude (fraction
	// of the fundamental).
	Harmonics map[int]float64
	// NoiseStd is the standard deviation of additive Gaussian noise.
	NoiseStd float64
}

// Validate checks the signal.
func (s *Signal) Validate() error {
	if s.Amplitude <= 0 {
		return fmt.Errorf("pmu: non-positive amplitude %v", s.Amplitude)
	}
	if s.Frequency <= 0 {
		return fmt.Errorf("pmu: non-positive frequency %v", s.Frequency)
	}
	if s.NoiseStd < 0 {
		return fmt.Errorf("pmu: negative noise std %v", s.NoiseStd)
	}
	for k, a := range s.Harmonics {
		if k < 2 {
			return fmt.Errorf("pmu: harmonic order %d < 2", k)
		}
		if a < 0 {
			return fmt.Errorf("pmu: negative harmonic amplitude %v", a)
		}
	}
	return nil
}

// Sample returns v(t) with deterministic noise drawn from rng (nil = no
// noise regardless of NoiseStd).
func (s *Signal) Sample(t float64, rng *prng.Rand) float64 {
	v := s.Amplitude * math.Cos(2*math.Pi*s.Frequency*t+s.Phase)
	for k, rel := range s.Harmonics {
		v += s.Amplitude * rel * math.Cos(2*math.Pi*s.Frequency*float64(k)*t)
	}
	if rng != nil && s.NoiseStd > 0 {
		v += rng.NormFloat64() * s.NoiseStd
	}
	return v
}

// Phasor is a synchrophasor estimate.
type Phasor struct {
	Magnitude float64 // RMS-scaled magnitude (peak/√2 convention not used: peak magnitude)
	PhaseRad  float64
}

// Estimator is a DFT-based synchrophasor estimator.
type Estimator struct {
	// SampleRate in samples/second.
	SampleRate float64
	// NominalHz is the assumed grid frequency (window length = one cycle).
	NominalHz float64
}

// Validate checks the estimator configuration (needs several samples per
// cycle).
func (e *Estimator) Validate() error {
	if e.SampleRate <= 0 || e.NominalHz <= 0 {
		return errors.New("pmu: non-positive estimator parameters")
	}
	if e.SampleRate < 4*e.NominalHz {
		return fmt.Errorf("pmu: sample rate %v too low for %v Hz", e.SampleRate, e.NominalHz)
	}
	return nil
}

// WindowSamples returns the samples per one nominal cycle.
func (e *Estimator) WindowSamples() int {
	return int(math.Round(e.SampleRate / e.NominalHz))
}

// EstimatePhasor computes the fundamental phasor of one window of samples
// starting at time t0, via single-bin DFT at the nominal frequency.
func (e *Estimator) EstimatePhasor(samples []float64, t0 float64) (Phasor, error) {
	if err := e.Validate(); err != nil {
		return Phasor{}, err
	}
	n := len(samples)
	if n < 4 {
		return Phasor{}, fmt.Errorf("pmu: window of %d samples too short", n)
	}
	var re, im float64
	for i, v := range samples {
		t := t0 + float64(i)/e.SampleRate
		ang := 2 * math.Pi * e.NominalHz * t
		re += v * math.Cos(ang)
		im -= v * math.Sin(ang)
	}
	re *= 2 / float64(n)
	im *= 2 / float64(n)
	return Phasor{Magnitude: math.Hypot(re, im), PhaseRad: math.Atan2(im, re)}, nil
}

// Measurement is one reported PMU frame.
type Measurement struct {
	Time     float64
	Phasor   Phasor
	FreqHz   float64
	ROCOFHzS float64 // rate of change of frequency
}

// Run samples the signal for `frames` consecutive one-cycle windows and
// reports a measurement per window. Frequency is derived from consecutive
// phase estimates; ROCOF from consecutive frequencies.
func (e *Estimator) Run(sig *Signal, frames int, rng *prng.Rand) ([]Measurement, error) {
	if err := e.Validate(); err != nil {
		return nil, err
	}
	if err := sig.Validate(); err != nil {
		return nil, err
	}
	if frames <= 0 {
		return nil, fmt.Errorf("pmu: non-positive frame count %d", frames)
	}
	win := e.WindowSamples()
	frameDur := float64(win) / e.SampleRate
	out := make([]Measurement, 0, frames)
	prevPhase := math.NaN()
	prevFreq := math.NaN()
	for f := 0; f < frames; f++ {
		t0 := float64(f) * frameDur
		samples := make([]float64, win)
		for i := range samples {
			samples[i] = sig.Sample(t0+float64(i)/e.SampleRate, rng)
		}
		ph, err := e.EstimatePhasor(samples, t0)
		if err != nil {
			return nil, err
		}
		m := Measurement{Time: t0, Phasor: ph, FreqHz: e.NominalHz}
		if !math.IsNaN(prevPhase) {
			dphi := normalizeAngle(ph.PhaseRad - prevPhase)
			m.FreqHz = e.NominalHz + dphi/(2*math.Pi*frameDur)
			if !math.IsNaN(prevFreq) {
				m.ROCOFHzS = (m.FreqHz - prevFreq) / frameDur
			}
			prevFreq = m.FreqHz
		}
		prevPhase = ph.PhaseRad
		out = append(out, m)
	}
	return out, nil
}

func normalizeAngle(a float64) float64 {
	for a > math.Pi {
		a -= 2 * math.Pi
	}
	for a < -math.Pi {
		a += 2 * math.Pi
	}
	return a
}

// --- Hardware-in-the-loop closed loop ---------------------------------------

// Controller reacts to a measurement by returning a frequency adjustment
// for the signal source (the "hardware" side of HIL).
type Controller interface {
	Adjust(m Measurement) (deltaHz float64)
}

// DroopController is a proportional frequency-restoration controller: it
// pushes the signal back toward the nominal frequency.
type DroopController struct {
	NominalHz float64
	Gain      float64 // fraction of the error corrected per frame
}

// Adjust implements Controller.
func (c DroopController) Adjust(m Measurement) float64 {
	return -c.Gain * (m.FreqHz - c.NominalHz)
}

// RunHIL runs the closed loop: each frame is measured, the controller's
// adjustment is applied to the signal before the next frame — the
// hardware-in-the-loop pattern of the paper. It returns the measurement
// trace and the final signal frequency.
func (e *Estimator) RunHIL(sig *Signal, frames int, ctrl Controller, rng *prng.Rand) ([]Measurement, float64, error) {
	if ctrl == nil {
		return nil, 0, errors.New("pmu: nil controller")
	}
	if err := e.Validate(); err != nil {
		return nil, 0, err
	}
	if err := sig.Validate(); err != nil {
		return nil, 0, err
	}
	if frames <= 0 {
		return nil, 0, fmt.Errorf("pmu: non-positive frame count %d", frames)
	}
	win := e.WindowSamples()
	frameDur := float64(win) / e.SampleRate
	var out []Measurement
	prevPhase := math.NaN()
	for f := 0; f < frames; f++ {
		t0 := float64(f) * frameDur
		samples := make([]float64, win)
		for i := range samples {
			samples[i] = sig.Sample(t0+float64(i)/e.SampleRate, rng)
		}
		ph, err := e.EstimatePhasor(samples, t0)
		if err != nil {
			return nil, 0, err
		}
		m := Measurement{Time: t0, Phasor: ph, FreqHz: e.NominalHz}
		if !math.IsNaN(prevPhase) {
			dphi := normalizeAngle(ph.PhaseRad - prevPhase)
			m.FreqHz = e.NominalHz + dphi/(2*math.Pi*frameDur)
		}
		prevPhase = ph.PhaseRad
		out = append(out, m)
		if f > 0 { // first frame has no frequency estimate
			delta := ctrl.Adjust(m)
			// Keep the instantaneous phase 2πft+φ continuous across the
			// frequency change (a real oscillator accumulates phase; this
			// simulator recomputes it from t, so φ must absorb the jump).
			tAdj := t0 + frameDur
			sig.Phase = normalizeAngle(sig.Phase - 2*math.Pi*delta*tAdj)
			sig.Frequency += delta
		}
	}
	return out, sig.Frequency, nil
}
