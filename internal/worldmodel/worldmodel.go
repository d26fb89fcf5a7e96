// Package worldmodel implements a WorldDynamics.jl-style system-dynamics
// framework (application 3.7): integrated assessment models expressed as
// stocks, flows and interpolation-table functions, integrated with explicit
// Euler steps, with scenario analysis (parameter overrides) and sensitivity
// analysis (perturbing initial values) — the package's features mirror the
// ones the paper lists for WorldDynamics.jl.
//
// A compact World2-flavoured demo model (population, resources, pollution,
// capital) ships in Demo().
package worldmodel

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Table is a piecewise-linear interpolation table — the mechanism
// World1/2/3 use to approximate non-linear relations.
type Table struct {
	Xs []float64
	Ys []float64
}

// At interpolates the table at x (clamped at the ends).
func (t Table) At(x float64) float64 {
	n := len(t.Xs)
	if n == 0 {
		return 0
	}
	if x <= t.Xs[0] {
		return t.Ys[0]
	}
	if x >= t.Xs[n-1] {
		return t.Ys[n-1]
	}
	i := sort.SearchFloat64s(t.Xs, x)
	// t.Xs[i-1] < x <= t.Xs[i]
	frac := (x - t.Xs[i-1]) / (t.Xs[i] - t.Xs[i-1])
	return t.Ys[i-1] + frac*(t.Ys[i]-t.Ys[i-1])
}

// State maps stock names to values.
type State map[string]float64

// Clone copies the state.
func (s State) Clone() State {
	out := make(State, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// Model is a system-dynamics model: named stocks with derivative functions
// over the current state and parameters.
type Model struct {
	Name string
	// Stocks lists stock names (integration order is this order).
	Stocks []string
	// Derivative computes d(stock)/dt given state and parameters.
	Derivative func(stock string, s State, params map[string]float64) float64
	// Defaults holds the default parameter values.
	Defaults map[string]float64
	// Initial holds the initial stock values.
	Initial State
}

// Validate checks the model definition.
func (m *Model) Validate() error {
	if len(m.Stocks) == 0 {
		return errors.New("worldmodel: no stocks")
	}
	if m.Derivative == nil {
		return errors.New("worldmodel: nil derivative")
	}
	for _, s := range m.Stocks {
		if _, ok := m.Initial[s]; !ok {
			return fmt.Errorf("worldmodel: stock %q has no initial value", s)
		}
	}
	return nil
}

// Run integrates the model from Initial over [t0, t1] with step dt,
// applying parameter overrides, and returns the trajectory sampled at every
// step (including both endpoints).
type Trajectory struct {
	Times  []float64
	States []State
}

// Final returns the last state.
func (tr *Trajectory) Final() State {
	if len(tr.States) == 0 {
		return nil
	}
	return tr.States[len(tr.States)-1]
}

// Series extracts one stock's time series.
func (tr *Trajectory) Series(stock string) []float64 {
	out := make([]float64, len(tr.States))
	for i, s := range tr.States {
		out[i] = s[stock]
	}
	return out
}

// Run integrates the model (explicit Euler; dt must divide the horizon
// reasonably — no adaptive stepping).
func (m *Model) Run(t0, t1, dt float64, overrides map[string]float64) (*Trajectory, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if dt <= 0 || t1 <= t0 {
		return nil, fmt.Errorf("worldmodel: invalid time grid [%v,%v] dt=%v", t0, t1, dt)
	}
	params := map[string]float64{}
	for k, v := range m.Defaults {
		params[k] = v
	}
	for k, v := range overrides {
		if _, ok := params[k]; !ok {
			return nil, fmt.Errorf("worldmodel: unknown parameter %q", k)
		}
		params[k] = v
	}
	state := m.Initial.Clone()
	tr := &Trajectory{Times: []float64{t0}, States: []State{state.Clone()}}
	steps := int(math.Round((t1 - t0) / dt))
	for i := 0; i < steps; i++ {
		next := state.Clone()
		for _, stock := range m.Stocks {
			d := m.Derivative(stock, state, params)
			if math.IsNaN(d) || math.IsInf(d, 0) {
				return nil, fmt.Errorf("worldmodel: derivative of %q diverged at t=%v", stock, tr.Times[len(tr.Times)-1])
			}
			next[stock] = state[stock] + dt*d
			if next[stock] < 0 {
				next[stock] = 0 // stocks are physical quantities
			}
		}
		state = next
		tr.Times = append(tr.Times, t0+float64(i+1)*dt)
		tr.States = append(tr.States, state.Clone())
	}
	return tr, nil
}

// Sensitivity perturbs one initial stock by ±frac and reports the relative
// change of a target stock at the horizon — the sensitivity-analysis
// feature of WorldDynamics.jl.
func (m *Model) Sensitivity(stock, target string, frac, t0, t1, dt float64) (float64, error) {
	if _, ok := m.Initial[stock]; !ok {
		return 0, fmt.Errorf("worldmodel: unknown stock %q", stock)
	}
	base, err := m.Run(t0, t1, dt, nil)
	if err != nil {
		return 0, err
	}
	up := *m
	up.Initial = m.Initial.Clone()
	up.Initial[stock] *= 1 + frac
	hi, err := up.Run(t0, t1, dt, nil)
	if err != nil {
		return 0, err
	}
	b := base.Final()[target]
	if b == 0 {
		return 0, fmt.Errorf("worldmodel: target %q is zero at horizon", target)
	}
	return (hi.Final()[target] - b) / b, nil
}

// Demo returns a compact World2-flavoured model with four stocks:
//
//	population  grows with food-dependent births, shrinks with
//	            pollution-dependent deaths;
//	resources   deplete proportionally to population × industrial capital;
//	pollution   generated by capital, absorbed naturally;
//	capital     accumulates with investment, depreciates.
//
// The canonical run exhibits overshoot-and-decline when resources deplete —
// the qualitative World2 behaviour.
func Demo() *Model {
	crowding := Table{Xs: []float64{0, 1, 2, 4}, Ys: []float64{1.0, 0.9, 0.6, 0.2}}
	pollutionDeath := Table{Xs: []float64{0, 1, 4, 10}, Ys: []float64{1.0, 1.2, 2.0, 5.0}}
	resourceOutput := Table{Xs: []float64{0, 0.25, 0.5, 1}, Ys: []float64{0, 0.4, 0.85, 1}}
	return &Model{
		Name:   "world2-mini",
		Stocks: []string{"population", "resources", "pollution", "capital"},
		Defaults: map[string]float64{
			"birth_rate":      0.04,
			"death_rate":      0.015,
			"depletion_rate":  0.002,
			"pollution_rate":  0.02,
			"absorption_rate": 0.05,
			"investment_rate": 0.05,
			"depreciation":    0.025,
		},
		Initial: State{"population": 1, "resources": 1, "pollution": 0.1, "capital": 0.5},
		Derivative: func(stock string, s State, p map[string]float64) float64 {
			resFrac := s["resources"] // initial resources normalized to 1
			output := resourceOutput.At(resFrac) * s["capital"]
			switch stock {
			case "population":
				births := p["birth_rate"] * s["population"] * crowding.At(s["population"]) * (0.5 + output)
				deaths := p["death_rate"] * s["population"] * pollutionDeath.At(s["pollution"])
				return births - deaths
			case "resources":
				return -p["depletion_rate"] * s["population"] * output * 10
			case "pollution":
				return p["pollution_rate"]*output*10 - p["absorption_rate"]*s["pollution"]
			case "capital":
				return p["investment_rate"]*s["population"]*output - p["depreciation"]*s["capital"]
			}
			return 0
		},
	}
}
