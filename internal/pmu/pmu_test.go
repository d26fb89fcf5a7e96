package pmu

import (
	"math"
	"repro/internal/rng"
	"testing"
)

func cleanSignal() *Signal {
	return &Signal{Amplitude: 230 * math.Sqrt2, Frequency: 50, Phase: 0.3}
}

func nominalEstimator() *Estimator {
	return &Estimator{SampleRate: 10000, NominalHz: 50}
}

func TestSignalValidate(t *testing.T) {
	bad := []*Signal{
		{Amplitude: 0, Frequency: 50},
		{Amplitude: 1, Frequency: 0},
		{Amplitude: 1, Frequency: 50, NoiseStd: -1},
		{Amplitude: 1, Frequency: 50, Harmonics: map[int]float64{1: 0.1}},
		{Amplitude: 1, Frequency: 50, Harmonics: map[int]float64{3: -0.1}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad signal %d accepted", i)
		}
	}
	if err := cleanSignal().Validate(); err != nil {
		t.Error(err)
	}
}

func TestEstimatorValidate(t *testing.T) {
	if err := (&Estimator{SampleRate: 100, NominalHz: 50}).Validate(); err == nil {
		t.Error("undersampled estimator accepted")
	}
	if err := nominalEstimator().Validate(); err != nil {
		t.Error(err)
	}
	if got := nominalEstimator().WindowSamples(); got != 200 {
		t.Errorf("window = %d", got)
	}
}

// A clean on-nominal signal must be estimated with TVE ≪ 1% (the IEEE
// C37.118 compliance bound).
func TestPhasorEstimationCleanSignal(t *testing.T) {
	sig := cleanSignal()
	e := nominalEstimator()
	win := e.WindowSamples()
	samples := make([]float64, win)
	for i := range samples {
		samples[i] = sig.Sample(float64(i)/e.SampleRate, nil)
	}
	ph, err := e.EstimatePhasor(samples, 0)
	if err != nil {
		t.Fatal(err)
	}
	truth := Phasor{Magnitude: sig.Amplitude, PhaseRad: sig.Phase}
	if tve := tve(ph, truth); tve > 0.001 {
		t.Errorf("TVE = %.5f, want < 0.1%%", tve)
	}
}

func TestPhasorEstimationWithHarmonicsAndNoise(t *testing.T) {
	sig := cleanSignal()
	sig.Harmonics = map[int]float64{3: 0.05, 5: 0.03}
	sig.NoiseStd = 1.0
	e := nominalEstimator()
	win := e.WindowSamples()
	rng := rng.New(2)
	samples := make([]float64, win)
	for i := range samples {
		samples[i] = sig.Sample(float64(i)/e.SampleRate, rng)
	}
	ph, err := e.EstimatePhasor(samples, 0)
	if err != nil {
		t.Fatal(err)
	}
	truth := Phasor{Magnitude: sig.Amplitude, PhaseRad: sig.Phase}
	// Harmonics are off-bin over a full fundamental cycle: DFT rejects
	// them well; 1% TVE budget.
	if tve := tve(ph, truth); tve > 0.01 {
		t.Errorf("TVE = %.5f, want < 1%%", tve)
	}
}

func TestRunEstimatesOffNominalFrequency(t *testing.T) {
	sig := cleanSignal()
	sig.Frequency = 50.2 // off-nominal by +0.2 Hz
	e := nominalEstimator()
	ms, err := e.Run(sig, 20, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 20 {
		t.Fatalf("frames = %d", len(ms))
	}
	// After the first frame, the phase-difference frequency estimator must
	// track 50.2 Hz closely.
	for _, m := range ms[2:] {
		if math.Abs(m.FreqHz-50.2) > 0.01 {
			t.Errorf("t=%.3f freq = %.4f, want 50.2", m.Time, m.FreqHz)
		}
	}
	// Steady frequency → near-zero ROCOF.
	for _, m := range ms[3:] {
		if math.Abs(m.ROCOFHzS) > 0.5 {
			t.Errorf("t=%.3f ROCOF = %.4f, want ≈ 0", m.Time, m.ROCOFHzS)
		}
	}
}

func TestRunErrors(t *testing.T) {
	e := nominalEstimator()
	if _, err := e.Run(cleanSignal(), 0, nil); err == nil {
		t.Error("zero frames accepted")
	}
	if _, err := e.Run(&Signal{}, 5, nil); err == nil {
		t.Error("invalid signal accepted")
	}
	bad := &Estimator{SampleRate: 10, NominalHz: 50}
	if _, err := bad.Run(cleanSignal(), 5, nil); err == nil {
		t.Error("invalid estimator accepted")
	}
	if _, err := e.EstimatePhasor([]float64{1, 2}, 0); err == nil {
		t.Error("too-short window accepted")
	}
}

// The HIL loop: a droop controller must pull a drifted grid back toward
// nominal frequency.
func TestHILClosedLoopRestoresFrequency(t *testing.T) {
	sig := cleanSignal()
	sig.Frequency = 50.5 // disturbed grid
	e := nominalEstimator()
	ctrl := DroopController{NominalHz: 50, Gain: 0.4}
	ms, finalFreq, err := e.RunHIL(sig, 60, ctrl, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 60 {
		t.Fatalf("frames = %d", len(ms))
	}
	if math.Abs(finalFreq-50) > 0.02 {
		t.Errorf("final frequency = %.4f, want ≈ 50 (restored)", finalFreq)
	}
	// Open loop for contrast: frequency stays disturbed.
	sig2 := cleanSignal()
	sig2.Frequency = 50.5
	if _, err := e.Run(sig2, 60, nil); err != nil {
		t.Fatal(err)
	}
	if sig2.Frequency != 50.5 {
		t.Error("open loop should not modify the signal")
	}
}

func TestHILErrors(t *testing.T) {
	e := nominalEstimator()
	if _, _, err := e.RunHIL(cleanSignal(), 10, nil, nil); err == nil {
		t.Error("nil controller accepted")
	}
	if _, _, err := e.RunHIL(cleanSignal(), 0, DroopController{NominalHz: 50, Gain: 0.1}, nil); err == nil {
		t.Error("zero frames accepted")
	}
}

// tve returns the total vector error of an estimated phasor against the
// true one, per IEEE C37.118: the accuracy measure the estimator tests use.
func tve(est, truth Phasor) float64 {
	ex := est.Magnitude*math.Cos(est.PhaseRad) - truth.Magnitude*math.Cos(truth.PhaseRad)
	ey := est.Magnitude*math.Sin(est.PhaseRad) - truth.Magnitude*math.Sin(truth.PhaseRad)
	return math.Hypot(ex, ey) / truth.Magnitude
}

func TestTVEProperties(t *testing.T) {
	truth := Phasor{Magnitude: 100, PhaseRad: 1}
	if tve := tve(truth, truth); tve != 0 {
		t.Errorf("self TVE = %v", tve)
	}
	// 1% magnitude error → 1% TVE.
	est := Phasor{Magnitude: 101, PhaseRad: 1}
	if tve := tve(est, truth); math.Abs(tve-0.01) > 1e-12 {
		t.Errorf("magnitude-only TVE = %v", tve)
	}
	// Small phase error φ → TVE ≈ φ.
	est = Phasor{Magnitude: 100, PhaseRad: 1.001}
	if tve := tve(est, truth); math.Abs(tve-0.001) > 1e-5 {
		t.Errorf("phase-only TVE = %v", tve)
	}
}

func TestNormalizeAngle(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0},
		{math.Pi + 0.1, -math.Pi + 0.1},
		{-math.Pi - 0.1, math.Pi - 0.1},
		{5 * math.Pi, math.Pi},
	}
	for _, c := range cases {
		if got := normalizeAngle(c.in); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("normalizeAngle(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}
