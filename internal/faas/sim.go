package faas

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/clock"
	"repro/internal/continuum"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// Platform simulates a FaaS deployment over an infrastructure.
type Platform struct {
	Infra *continuum.Infrastructure
	Sched Scheduler
	// ColdStartS is the container start penalty paid when a function runs
	// on a node where it has no warm container.
	ColdStartS float64
	// WarmTTL is how long a container stays warm after an invocation.
	WarmTTL float64
	// UserLatency returns the one-way latency from a request source region
	// to a node; nil uses the infrastructure topology's region links via a
	// synthetic probe node.
	UserLatency func(source string, n *continuum.Node) float64
	// Metrics, when non-nil, receives per-run counters ("faas.invocations",
	// "faas.rejected", "faas.cold_starts", "faas.violations", per-node
	// "faas.served.<node>"), the "faas.response_s" latency series, and one
	// "faas.invoke" span per served invocation stamped with simulated time
	// (the engine clock), so the trace of a run is byte-stable.
	Metrics *telemetry.Registry
	// MetricsPrefix namespaces every metric and span kind this platform
	// emits — set it when several platforms share one registry (e.g.
	// scheduler comparisons).
	MetricsPrefix string

	functions map[string]*Function
}

// metric returns a metric name under the platform's prefix.
func (p *Platform) metric(name string) string { return p.MetricsPrefix + name }

// NewPlatform returns a platform with Serverledge-like defaults: 500 ms cold
// start, 10 min warm TTL.
func NewPlatform(inf *continuum.Infrastructure, sched Scheduler) *Platform {
	return &Platform{
		Infra:      inf,
		Sched:      sched,
		ColdStartS: 0.5,
		WarmTTL:    600,
		functions:  map[string]*Function{},
	}
}

// Deploy registers a function.
func (p *Platform) Deploy(fn Function) error {
	if err := fn.Validate(); err != nil {
		return err
	}
	if _, dup := p.functions[fn.Name]; dup {
		return fmt.Errorf("faas: function %q already deployed", fn.Name)
	}
	cp := fn
	p.functions[fn.Name] = &cp
	return nil
}

// Outcome records one simulated invocation.
type Outcome struct {
	Function     string
	NodeID       string
	ArrivalS     float64
	StartS       float64
	FinishS      float64
	ResponseS    float64 // finish - arrival + network round trip
	NetworkS     float64 // round-trip source↔node latency
	ColdStart    bool
	Rejected     bool
	DeadlineMiss bool
}

// Result aggregates a simulation run.
type Result struct {
	Scheduler  string
	Outcomes   []Outcome
	Rejected   int
	ColdStarts int
	Offloaded  int // invocations served by cloud nodes
	Violations int
	EnergyJ    float64
}

// Latencies returns the response times of successful invocations.
func (r *Result) Latencies() []float64 {
	var out []float64
	for _, o := range r.Outcomes {
		if !o.Rejected {
			out = append(out, o.ResponseS)
		}
	}
	return out
}

// LatencySummary summarizes response times.
func (r *Result) LatencySummary() (stats.Summary, error) {
	return stats.Summarize(r.Latencies())
}

// OffloadRate returns the fraction of served invocations that ran on cloud
// nodes.
func (r *Result) OffloadRate() float64 {
	served := len(r.Outcomes) - r.Rejected
	if served == 0 {
		return 0
	}
	return float64(r.Offloaded) / float64(served)
}

// userLatency resolves the request network latency.
func (p *Platform) userLatency(source string, n *continuum.Node) float64 {
	if p.UserLatency != nil {
		return p.UserLatency(source, n)
	}
	// Default: same region → 2 ms; different region → the topology's
	// region link latency via a synthetic probe.
	probe := &continuum.Node{ID: "\x00probe", Region: source}
	return p.Infra.Topology.LinkBetween(probe, n).LatencyS
}

// Run simulates a trace to completion and returns the aggregated result.
// Invocations that find no node (scheduler returns nil) are rejected.
func (p *Platform) Run(trace Trace) (*Result, error) {
	if len(p.functions) == 0 {
		return nil, errors.New("faas: no functions deployed")
	}
	for i := 1; i < len(trace); i++ {
		if trace[i].ArrivalS < trace[i-1].ArrivalS {
			return nil, fmt.Errorf("faas: trace not time-ordered at %d", i)
		}
	}
	eng := continuum.NewEngine()
	eng.MaxEvents = 10*len(trace) + 100

	res := &Result{Scheduler: p.Sched.Name()}
	res.Outcomes = make([]Outcome, len(trace))

	// Warm-container registry: (function, node) → warm-until time.
	warm := map[[2]string]float64{}

	var simErr error
	for i := range trace {
		inv := trace[i]
		fn, ok := p.functions[inv.Function]
		if !ok {
			return nil, fmt.Errorf("faas: trace references unknown function %q", inv.Function)
		}
		i := i
		eng.MustSchedule(inv.ArrivalS, func() {
			o := &res.Outcomes[i]
			o.Function = fn.Name
			o.ArrivalS = eng.Now()
			n := p.Sched.Pick(fn, inv.Source, p.Infra)
			if n == nil {
				o.Rejected = true
				res.Rejected++
				return
			}
			if err := p.Infra.Reserve(n.ID, 1); err != nil {
				simErr = err
				return
			}
			o.NodeID = n.ID
			if n.Kind == continuum.Cloud {
				res.Offloaded++
			}
			key := [2]string{fn.Name, n.ID}
			penalty := 0.0
			if warm[key] < eng.Now() {
				penalty = p.ColdStartS
				o.ColdStart = true
				res.ColdStarts++
			}
			exec, err := n.ExecSeconds(fn.WorkGFlop, 1)
			if err != nil {
				simErr = err
				_ = p.Infra.Release(n.ID, 1)
				return
			}
			o.StartS = eng.Now()
			net := p.userLatency(inv.Source, n)
			o.NetworkS = 2 * net
			dur := penalty + exec
			res.EnergyJ += (n.MaxW - n.IdleW) / float64(n.Cores) * dur
			eng.MustSchedule(dur, func() {
				o.FinishS = eng.Now()
				o.ResponseS = o.FinishS - o.ArrivalS + o.NetworkS
				if o.ResponseS > fn.DeadlineS {
					o.DeadlineMiss = true
					res.Violations++
				}
				warm[key] = eng.Now() + p.WarmTTL
				if err := p.Infra.Release(n.ID, 1); err != nil {
					simErr = err
				}
			})
		})
	}
	if err := eng.RunAll(); err != nil {
		return nil, err
	}
	if simErr != nil {
		return nil, simErr
	}
	// Charge the idle draw of every node that served work, over the whole
	// run: a woken node stays powered. This is what makes consolidation
	// (energy-aware scheduling) measurably cheaper than fan-out.
	active := map[string]bool{}
	var makespan float64
	for i := range res.Outcomes {
		o := &res.Outcomes[i]
		if o.Rejected || o.NodeID == "" {
			continue
		}
		active[o.NodeID] = true
		if o.FinishS > makespan {
			makespan = o.FinishS
		}
	}
	ids := make([]string, 0, len(active))
	for id := range active {
		ids = append(ids, id)
	}
	sort.Strings(ids) // deterministic float summation order
	for _, id := range ids {
		n, err := p.Infra.Node(id)
		if err != nil {
			return nil, err
		}
		res.EnergyJ += n.IdleW * makespan
	}
	if p.Metrics != nil {
		p.Metrics.Inc(p.metric("faas.invocations"), int64(len(res.Outcomes)))
		p.Metrics.Inc(p.metric("faas.rejected"), int64(res.Rejected))
		p.Metrics.Inc(p.metric("faas.cold_starts"), int64(res.ColdStarts))
		p.Metrics.Inc(p.metric("faas.violations"), int64(res.Violations))
		p.Metrics.SetGauge(p.metric("faas.energy_j"), res.EnergyJ)
		for _, o := range res.Outcomes {
			if o.Rejected {
				continue
			}
			p.Metrics.Inc(p.metric("faas.served."+o.NodeID), 1)
			p.Metrics.Observe(p.metric("faas.response_s"), o.ResponseS)
			// Span per served invocation, on the unified simulated
			// timeline (arrival → finish, network excluded).
			sp := telemetry.Span{
				Kind:  p.MetricsPrefix + "faas.invoke",
				Name:  o.Function + "@" + o.NodeID,
				Start: clock.FromSeconds(o.ArrivalS),
				End:   clock.FromSeconds(o.FinishS),
			}
			if o.DeadlineMiss {
				sp.Err = "deadline miss"
			}
			p.Metrics.RecordSpan(sp)
		}
	}
	return res, nil
}

// MigrationPlan describes moving a long-running function instance between
// nodes (the MoveQUIC integration): the instance freezes, its state ships
// over the inter-node link, and execution resumes remotely.
type MigrationPlan struct {
	Function string
	FromID   string
	ToID     string
	// RemainingGFlop is the work left at migration time.
	RemainingGFlop float64
}

// MigrationOutcome compares finishing in place against migrating.
type MigrationOutcome struct {
	DowntimeS       float64
	FinishInPlaceS  float64
	FinishMigratedS float64
	// Worthwhile is true when migrating finishes sooner despite downtime.
	Worthwhile bool
}

// EvaluateMigration computes whether moving the instance pays off, given
// the current infrastructure (uses link bandwidth for state transfer).
func (p *Platform) EvaluateMigration(plan MigrationPlan) (*MigrationOutcome, error) {
	fn, ok := p.functions[plan.Function]
	if !ok {
		return nil, fmt.Errorf("faas: unknown function %q", plan.Function)
	}
	from, err := p.Infra.Node(plan.FromID)
	if err != nil {
		return nil, err
	}
	to, err := p.Infra.Node(plan.ToID)
	if err != nil {
		return nil, err
	}
	if plan.RemainingGFlop < 0 {
		return nil, fmt.Errorf("faas: negative remaining work")
	}
	inPlace, err := from.ExecSeconds(plan.RemainingGFlop, 1)
	if err != nil {
		return nil, err
	}
	remote, err := to.ExecSeconds(plan.RemainingGFlop, 1)
	if err != nil {
		return nil, err
	}
	down := p.Infra.Topology.TransferSeconds(from, to, fn.StateBytes)
	out := &MigrationOutcome{
		DowntimeS:       down,
		FinishInPlaceS:  inPlace,
		FinishMigratedS: down + remote,
	}
	out.Worthwhile = out.FinishMigratedS < out.FinishInPlaceS
	return out, nil
}

// CompareOption tweaks the platforms CompareSchedulers builds.
type CompareOption func(*Platform)

// WithMetrics attaches reg to every compared platform, namespacing each
// scheduler's metrics and spans under "<scheduler name>." so they coexist
// in the one registry.
func WithMetrics(reg *telemetry.Registry) CompareOption {
	return func(p *Platform) {
		p.Metrics = reg
		p.MetricsPrefix = p.Sched.Name() + "."
	}
}

// CompareSchedulers runs the same trace under several schedulers on fresh
// copies of the infrastructure built by mkInf, returning results keyed by
// scheduler name and sorted name list for deterministic iteration.
func CompareSchedulers(fns []Function, trace Trace, mkInf func() *continuum.Infrastructure, scheds []Scheduler, opts ...CompareOption) (map[string]*Result, []string, error) {
	out := map[string]*Result{}
	var names []string
	for _, s := range scheds {
		p := NewPlatform(mkInf(), s)
		for _, o := range opts {
			o(p)
		}
		for _, fn := range fns {
			if err := p.Deploy(fn); err != nil {
				return nil, nil, err
			}
		}
		r, err := p.Run(trace)
		if err != nil {
			return nil, nil, fmt.Errorf("faas: scheduler %s: %w", s.Name(), err)
		}
		out[s.Name()] = r
		names = append(names, s.Name())
	}
	sort.Strings(names)
	return out, names, nil
}
