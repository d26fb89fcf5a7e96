package faas

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/continuum"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

func testFunctions() []Function {
	return []Function{
		{Name: "detect", WorkGFlop: 0.2, Class: LowLatency, DeadlineS: 0.8, StateBytes: 1e6, MemoryMB: 128},
		{Name: "train", WorkGFlop: 50, Class: Batch, DeadlineS: 10, StateBytes: 50e6, MemoryMB: 512},
	}
}

func TestFunctionValidate(t *testing.T) {
	bad := []Function{
		{},
		{Name: "x", WorkGFlop: 0, Class: Batch, DeadlineS: 1},
		{Name: "x", WorkGFlop: 1, Class: "turbo", DeadlineS: 1},
		{Name: "x", WorkGFlop: 1, Class: Batch, DeadlineS: 0},
	}
	for i, f := range bad {
		if err := f.Validate(); err == nil {
			t.Errorf("bad function %d accepted", i)
		}
	}
	for _, f := range testFunctions() {
		if err := f.Validate(); err != nil {
			t.Error(err)
		}
	}
}

func TestPoissonTrace(t *testing.T) {
	r := rng.New(9)
	tr := PoissonTrace(testFunctions(), 10, 100, r)
	if len(tr) < 500 || len(tr) > 2000 {
		t.Errorf("trace size = %d for rate 10 over 100 s", len(tr))
	}
	for i := 1; i < len(tr); i++ {
		if tr[i].ArrivalS < tr[i-1].ArrivalS {
			t.Fatal("trace not ordered")
		}
	}
	if tr[len(tr)-1].ArrivalS >= 100 {
		t.Error("arrival beyond horizon")
	}
	// Determinism under the same seed.
	tr2 := PoissonTrace(testFunctions(), 10, 100, rng.New(9))
	if len(tr2) != len(tr) || tr2[0].ArrivalS != tr[0].ArrivalS {
		t.Error("trace not reproducible")
	}
	if got := PoissonTrace(nil, 10, 100, r); got != nil {
		t.Error("empty function set should produce nil trace")
	}
}

func TestDeployErrors(t *testing.T) {
	p := NewPlatform(continuum.EdgeCloudTestbed(), EdgeFirst{})
	fn := testFunctions()[0]
	if err := p.Deploy(fn); err != nil {
		t.Fatal(err)
	}
	if err := p.Deploy(fn); err == nil {
		t.Error("duplicate deploy accepted")
	}
	if err := p.Deploy(Function{Name: "bad"}); err == nil {
		t.Error("invalid function accepted")
	}
	if _, err := p.Run(Trace{{Function: "ghost", ArrivalS: 0}}); err == nil {
		t.Error("trace with unknown function accepted")
	}
}

func TestRunEmptyPlatform(t *testing.T) {
	p := NewPlatform(continuum.EdgeCloudTestbed(), EdgeFirst{})
	if _, err := p.Run(nil); err == nil {
		t.Error("run with no functions accepted")
	}
}

func TestUnorderedTraceRejected(t *testing.T) {
	p := NewPlatform(continuum.EdgeCloudTestbed(), EdgeFirst{})
	_ = p.Deploy(testFunctions()[0])
	tr := Trace{{Function: "detect", ArrivalS: 5}, {Function: "detect", ArrivalS: 1}}
	if _, err := p.Run(tr); err == nil {
		t.Error("unordered trace accepted")
	}
}

func runWith(t *testing.T, s Scheduler, rate float64) *Result {
	t.Helper()
	p := NewPlatform(continuum.EdgeCloudTestbed(), s)
	for _, fn := range testFunctions() {
		if err := p.Deploy(fn); err != nil {
			t.Fatal(err)
		}
	}
	tr := PoissonTrace(testFunctions(), rate, 60, rng.New(4))
	r, err := p.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestEdgeFirstServesLocally(t *testing.T) {
	r := runWith(t, EdgeFirst{}, 5)
	if r.Rejected != 0 {
		t.Errorf("rejected = %d at low load", r.Rejected)
	}
	// Low-latency invocations stay at the edge; batch ones are offloaded by
	// design, so the overall offload rate sits near the batch share (~0.5).
	for _, o := range r.Outcomes {
		if o.Rejected {
			continue
		}
		if o.Function == "detect" && o.NodeID[:4] != "edge" {
			t.Errorf("low-latency invocation served by %s", o.NodeID)
		}
	}
}

func TestCloudOnlyAlwaysOffloads(t *testing.T) {
	r := runWith(t, CloudOnly{}, 5)
	if rate := r.OffloadRate(); rate != 1 {
		t.Errorf("cloud-only offload rate = %.2f, want 1", rate)
	}
}

// latenciesOf returns the response times of fn's successful invocations.
func latenciesOf(r *Result, fn string) []float64 {
	var out []float64
	for _, o := range r.Outcomes {
		if !o.Rejected && o.Function == fn {
			out = append(out, o.ResponseS)
		}
	}
	return out
}

// The near-data claim of Sections 2.2/2.5: for latency-class traffic,
// edge-first beats cloud-only on response time because it avoids WAN RTTs.
func TestEdgeFirstLatencyBeatsCloudOnly(t *testing.T) {
	edge := runWith(t, EdgeFirst{}, 5)
	cloud := runWith(t, CloudOnly{}, 5)
	se, err := stats.Summarize(latenciesOf(edge, "detect"))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := stats.Summarize(latenciesOf(cloud, "detect"))
	if err != nil {
		t.Fatal(err)
	}
	if se.Median >= sc.Median {
		t.Errorf("edge-first detect median %.4fs not below cloud-only %.4fs", se.Median, sc.Median)
	}
	// Overall summary exists for both.
	if _, err := edge.LatencySummary(); err != nil {
		t.Error(err)
	}
}

func TestWarmContainersReduceColdStarts(t *testing.T) {
	r := runWith(t, EdgeFirst{}, 5)
	// With a 10-minute TTL over a 60 s trace, colds happen only on first
	// touch of a (function, node) pair or when invocations overlap before
	// the first container warms; they must stay a small fraction of the
	// ~300 invocations.
	if r.ColdStarts > 40 {
		t.Errorf("cold starts = %d, want a small fraction of %d", r.ColdStarts, len(r.Outcomes))
	}
	if r.ColdStarts == 0 {
		t.Error("expected at least one cold start")
	}
}

func TestHighLoadOffloadsOrRejects(t *testing.T) {
	// 4 edge nodes × 8 cores = 32 edge cores; flood them.
	r := runWith(t, EdgeFirst{}, 400)
	if r.Offloaded == 0 {
		t.Error("saturated edge should offload to cloud")
	}
}

func TestEnergyAwareUsesLessEnergy(t *testing.T) {
	ea := runWith(t, EnergyAware{}, 5)
	cl := runWith(t, CloudOnly{}, 5)
	if ea.EnergyJ >= cl.EnergyJ {
		t.Errorf("energy-aware %.1fJ not below cloud-only %.1fJ", ea.EnergyJ, cl.EnergyJ)
	}
}

func TestReservationsReleased(t *testing.T) {
	inf := continuum.EdgeCloudTestbed()
	p := NewPlatform(inf, EdgeFirst{})
	for _, fn := range testFunctions() {
		_ = p.Deploy(fn)
	}
	tr := PoissonTrace(testFunctions(), 20, 30, rng.New(2))
	if _, err := p.Run(tr); err != nil {
		t.Fatal(err)
	}
	if freeCores(inf) != inf.TotalCores() {
		t.Errorf("leaked cores: %d free of %d", freeCores(inf), inf.TotalCores())
	}
}

func TestDeadlineViolationsDetected(t *testing.T) {
	// A function whose work cannot meet its deadline anywhere.
	p := NewPlatform(continuum.EdgeCloudTestbed(), EdgeFirst{})
	_ = p.Deploy(Function{Name: "hopeless", WorkGFlop: 1000, Class: LowLatency, DeadlineS: 0.01})
	r, err := p.Run(Trace{{Function: "hopeless", ArrivalS: 0, Source: "edge-site"}})
	if err != nil {
		t.Fatal(err)
	}
	if r.Violations != 1 {
		t.Errorf("violations = %d, want 1", r.Violations)
	}
}

func TestEvaluateMigration(t *testing.T) {
	p := NewPlatform(continuum.EdgeCloudTestbed(), EdgeFirst{})
	_ = p.Deploy(Function{Name: "long", WorkGFlop: 500, Class: Batch, DeadlineS: 100, StateBytes: 10e6})

	// Lots of work left, much faster target → worthwhile.
	out, err := p.EvaluateMigration(MigrationPlan{
		Function: "long", FromID: "edge-0", ToID: "cloud-0", RemainingGFlop: 400,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.DowntimeS <= 0 {
		t.Error("migration should have downtime")
	}
	if !out.Worthwhile {
		t.Errorf("migration should pay off: in-place %.1fs vs migrated %.1fs",
			out.FinishInPlaceS, out.FinishMigratedS)
	}

	// Nearly done → not worthwhile.
	out, err = p.EvaluateMigration(MigrationPlan{
		Function: "long", FromID: "edge-0", ToID: "cloud-0", RemainingGFlop: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Worthwhile {
		t.Error("migrating with almost no work left should not pay off")
	}

	// Errors.
	if _, err := p.EvaluateMigration(MigrationPlan{Function: "ghost", FromID: "edge-0", ToID: "cloud-0"}); err == nil {
		t.Error("unknown function accepted")
	}
	if _, err := p.EvaluateMigration(MigrationPlan{Function: "long", FromID: "ghost", ToID: "cloud-0"}); err == nil {
		t.Error("unknown source node accepted")
	}
	if _, err := p.EvaluateMigration(MigrationPlan{Function: "long", FromID: "edge-0", ToID: "cloud-0", RemainingGFlop: -1}); err == nil {
		t.Error("negative remaining work accepted")
	}
}

func TestCompareSchedulers(t *testing.T) {
	fns := testFunctions()
	tr := PoissonTrace(fns, 10, 30, rng.New(6))
	results, names, err := CompareSchedulers(fns, tr,
		continuum.EdgeCloudTestbed,
		[]Scheduler{EdgeFirst{}, CloudOnly{}, EnergyAware{}})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 || len(names) != 3 {
		t.Fatalf("results = %d, names = %v", len(results), names)
	}
	for _, n := range names {
		if results[n] == nil || len(results[n].Outcomes) != len(tr) {
			t.Errorf("scheduler %s: incomplete outcomes", n)
		}
	}
}

func TestResultDeterminism(t *testing.T) {
	a := runWith(t, EdgeFirst{}, 10)
	b := runWith(t, EdgeFirst{}, 10)
	if len(a.Outcomes) != len(b.Outcomes) || a.EnergyJ != b.EnergyJ ||
		a.ColdStarts != b.ColdStarts || a.Offloaded != b.Offloaded {
		t.Error("simulation not deterministic")
	}
}

func TestMetricsIntegration(t *testing.T) {
	p := NewPlatform(continuum.EdgeCloudTestbed(), EdgeFirst{})
	p.Metrics = telemetry.NewWithClock(clock.NewSim(1))
	for _, fn := range testFunctions() {
		_ = p.Deploy(fn)
	}
	tr := PoissonTrace(testFunctions(), 5, 20, rng.New(8))
	r, err := p.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Metrics.Counter("faas.invocations"); got != int64(len(r.Outcomes)) {
		t.Errorf("invocations counter = %d, want %d", got, len(r.Outcomes))
	}
	prom := p.Metrics.PromText()
	if want := fmt.Sprintf("faas_response_s_count %d\n", len(r.Outcomes)-r.Rejected); !strings.Contains(prom, want) {
		t.Errorf("latency samples: want %q in\n%s", want, prom)
	}
	if want := fmt.Sprintf("faas_energy_j %s\n", strconv.FormatFloat(r.EnergyJ, 'g', -1, 64)); !strings.Contains(prom, want) {
		t.Errorf("energy gauge: want %q in\n%s", want, prom)
	}
}

// Two identical seeded runs through the metrics layer must expose
// byte-identical PromText and trace output — the observability artifacts are
// as deterministic as the simulation itself.
func TestMetricsPromTextDeterministic(t *testing.T) {
	render := func() (string, string) {
		reg := telemetry.NewWithClock(clock.NewSim(3))
		p := NewPlatform(continuum.EdgeCloudTestbed(), EdgeFirst{})
		p.Metrics = reg
		for _, fn := range testFunctions() {
			if err := p.Deploy(fn); err != nil {
				t.Fatal(err)
			}
		}
		tr := PoissonTrace(testFunctions(), 5, 20, rng.New(8))
		if _, err := p.Run(tr); err != nil {
			t.Fatal(err)
		}
		return reg.PromText(), fmt.Sprint(reg.Spans())
	}
	prom1, trace1 := render()
	prom2, trace2 := render()
	if prom1 != prom2 {
		t.Errorf("PromText differs across identical runs:\n--- first\n%s--- second\n%s", prom1, prom2)
	}
	if trace1 != trace2 {
		t.Errorf("spans differ across identical runs")
	}
	if !strings.Contains(prom1, "faas_invocations") {
		t.Errorf("PromText missing faas metrics:\n%s", prom1)
	}
	if !strings.Contains(trace1, "faas.invoke") {
		t.Errorf("TraceText missing invoke spans:\n%s", trace1)
	}
}

// WithMetrics namespaces each compared scheduler's metrics and spans by its
// name, so one registry can hold a whole comparison without collisions.
func TestCompareSchedulersWithMetrics(t *testing.T) {
	fns := testFunctions()
	tr := PoissonTrace(fns, 10, 30, rng.New(6))
	reg := telemetry.NewWithClock(clock.NewSim(1))
	results, names, err := CompareSchedulers(fns, tr,
		continuum.EdgeCloudTestbed,
		[]Scheduler{EdgeFirst{}, CloudOnly{}},
		WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if got := reg.Counter(n + ".faas.invocations"); got != int64(len(results[n].Outcomes)) {
			t.Errorf("%s invocations counter = %d, want %d", n, got, len(results[n].Outcomes))
		}
	}
	kinds := map[string]bool{}
	for _, sp := range reg.Spans() {
		kinds[sp.Kind] = true
	}
	for _, n := range names {
		if !kinds[n+".faas.invoke"] {
			t.Errorf("no spans recorded for scheduler %s (kinds: %v)", n, kinds)
		}
	}
}

// freeCores sums the free cores of every node of inf.
func freeCores(inf *continuum.Infrastructure) int {
	n := 0
	for _, node := range inf.Nodes() {
		n += node.FreeCores()
	}
	return n
}
