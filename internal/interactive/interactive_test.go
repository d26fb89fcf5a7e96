package interactive

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/workflow"
)

func TestAnalyzeDefinesAndUses(t *testing.T) {
	c := Cell{ID: "c1", Code: "import numpy\nx = numpy.zeros(10)\ny = x + z\nprint(y)\n# x = hidden"}
	info := Analyze(c)
	wantDef := []string{"numpy", "x", "y"}
	if strings.Join(info.Defines, ",") != strings.Join(wantDef, ",") {
		t.Errorf("defines = %v, want %v", info.Defines, wantDef)
	}
	// z is used before definition; numpy and x are defined locally first.
	if strings.Join(info.Uses, ",") != "z" {
		t.Errorf("uses = %v, want [z]", info.Uses)
	}
}

func TestAnalyzeEdgeCases(t *testing.T) {
	// Comparison operators are not assignments.
	info := Analyze(Cell{ID: "c", Code: "a == b\nc <= d\ne != f"})
	if len(info.Defines) != 0 {
		t.Errorf("comparisons defined %v", info.Defines)
	}
	if len(info.Uses) != 6 {
		t.Errorf("uses = %v, want 6 identifiers", info.Uses)
	}
	// Tuple assignment.
	info = Analyze(Cell{ID: "c", Code: "a, b = f(x)"})
	if strings.Join(info.Defines, ",") != "a,b" {
		t.Errorf("tuple defines = %v", info.Defines)
	}
	// String literals are not identifiers.
	info = Analyze(Cell{ID: "c", Code: `s = "hello world" + name`})
	if strings.Join(info.Uses, ",") != "name" {
		t.Errorf("string literal leaked identifiers: %v", info.Uses)
	}
	// Attribute access after dot skipped.
	info = Analyze(Cell{ID: "c", Code: "v = obj.field.sub"})
	if strings.Join(info.Uses, ",") != "obj" {
		t.Errorf("attribute uses = %v, want [obj]", info.Uses)
	}
}

func sampleNotebook() *Notebook {
	return &Notebook{
		Name: "analysis",
		Cells: []Cell{
			{ID: "load", Code: "import pandas\ndata = pandas.read('x.csv')"},
			{ID: "clean", Code: "clean = data.dropna()"},
			{ID: "stats", Code: "mean = clean.mean()"},
			{ID: "plot", Code: "fig = clean.plotAgainst(mean)"},
		},
	}
}

func TestCompileNotebookDAG(t *testing.T) {
	wf, err := sampleNotebook().Compile(CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if wf.Len() != 4 {
		t.Fatalf("steps = %d", wf.Len())
	}
	s, _ := wf.Step("clean")
	if len(s.After) != 1 || s.After[0] != "load" {
		t.Errorf("clean deps = %v", s.After)
	}
	s, _ = wf.Step("plot")
	if len(s.After) != 2 { // clean + stats
		t.Errorf("plot deps = %v", s.After)
	}
	// stats and plot both read clean; levels: load → clean → stats → plot?
	// plot depends on stats(mean) and clean → level 3.
	levels, err := wf.Levels()
	if err != nil {
		t.Fatal(err)
	}
	if len(levels) != 4 {
		t.Errorf("levels = %v", levels)
	}
}

func TestCompileShadowing(t *testing.T) {
	nb := &Notebook{Name: "shadow", Cells: []Cell{
		{ID: "a", Code: "x = 1"},
		{ID: "b", Code: "x = 2"},
		{ID: "c", Code: "y = x"},
	}}
	wf, err := nb.Compile(CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := wf.Step("c")
	if len(s.After) != 1 || s.After[0] != "b" {
		t.Errorf("c should depend on the latest definition: %v", s.After)
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := (&Notebook{Name: "e"}).Compile(CompileOptions{}); err == nil {
		t.Error("empty notebook accepted")
	}
	nb := &Notebook{Name: "unbound", Cells: []Cell{{ID: "a", Code: "y = ghost + 1"}}}
	if _, err := nb.Compile(CompileOptions{}); err == nil {
		t.Error("unbound variable accepted")
	}
	dup := &Notebook{Name: "dup", Cells: []Cell{{ID: "a", Code: "x = 1"}, {ID: "a", Code: "y = 2"}}}
	if _, err := dup.Compile(CompileOptions{}); err == nil {
		t.Error("duplicate cell accepted")
	}
}

func TestCompileOptionsApplied(t *testing.T) {
	wf, err := sampleNotebook().Compile(CompileOptions{
		WorkGFlop:   func(c Cell) float64 { return 7 },
		OutputBytes: func(c Cell) float64 { return 42 },
	})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := wf.Step("load")
	if s.WorkGFlop != 7 || s.OutputBytes != 42 {
		t.Errorf("options not applied: %+v", s)
	}
}

func TestCompiledNotebookIsRunnable(t *testing.T) {
	wf, err := sampleNotebook().Compile(CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wf.TopoOrder(); err != nil {
		t.Fatal(err)
	}
	bodies := map[string]workflow.StepFunc{}
	for _, s := range wf.Steps() {
		bodies[s.ID] = func(context.Context, map[string]any) (any, error) { return nil, nil }
	}
	if _, err := workflow.Run(context.Background(), wf, bodies); err != nil {
		t.Errorf("compiled notebook does not run: %v", err)
	}
}

func TestTimeline(t *testing.T) {
	tl := newTimeline(10)
	tl.add(0, 10, 4)
	tl.add(5, 15, 3)
	if got := tl.maxUsage(0, 5); got != 4 {
		t.Errorf("maxUsage(0,5) = %d", got)
	}
	if got := tl.maxUsage(0, 20); got != 7 {
		t.Errorf("maxUsage(0,20) = %d", got)
	}
	if got := tl.maxUsage(12, 20); got != 3 {
		t.Errorf("maxUsage(12,20) = %d", got)
	}
	if !tl.fits(0, 5, 6) || tl.fits(5, 10, 4) {
		t.Error("fits miscalculates")
	}
	// Boundary: a job ending exactly when another starts shares no instant.
	tl2 := newTimeline(4)
	tl2.add(0, 10, 4)
	if !tl2.fits(10, 20, 4) {
		t.Error("back-to-back intervals should not conflict")
	}
}

func TestClusterFCFS(t *testing.T) {
	c, err := NewCluster(10)
	if err != nil {
		t.Fatal(err)
	}
	// Two 6-core jobs cannot overlap on 10 cores.
	_ = c.Submit(Job{ID: "j1", Cores: 6, Duration: 100, SubmitAt: 0})
	_ = c.Submit(Job{ID: "j2", Cores: 6, Duration: 100, SubmitAt: 0})
	traces, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]JobTrace{}
	for _, tr := range traces {
		byID[tr.Job.ID] = tr
	}
	if byID["j1"].StartS != 0 {
		t.Errorf("j1 start = %v", byID["j1"].StartS)
	}
	if byID["j2"].StartS != 100 {
		t.Errorf("j2 start = %v, want 100", byID["j2"].StartS)
	}
	if byID["j2"].WaitS != 100 {
		t.Errorf("j2 wait = %v", byID["j2"].WaitS)
	}
}

func TestClusterBackfill(t *testing.T) {
	c, _ := NewCluster(10)
	// j1 runs now (8 cores); j2 (8 cores) must wait until 100; j3 (2 cores,
	// short) can backfill immediately alongside j1.
	_ = c.Submit(Job{ID: "j1", Cores: 8, Duration: 100, SubmitAt: 0})
	_ = c.Submit(Job{ID: "j2", Cores: 8, Duration: 50, SubmitAt: 1})
	_ = c.Submit(Job{ID: "j3", Cores: 2, Duration: 10, SubmitAt: 2})
	traces, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]JobTrace{}
	for _, tr := range traces {
		byID[tr.Job.ID] = tr
	}
	if byID["j3"].StartS != 2 {
		t.Errorf("j3 should backfill at submit: start = %v", byID["j3"].StartS)
	}
	if byID["j2"].StartS != 100 {
		t.Errorf("j2 start = %v, want 100", byID["j2"].StartS)
	}
}

func TestReservationGivesInstantAccess(t *testing.T) {
	c, _ := NewCluster(10)
	// Fill the machine with batch work.
	_ = c.Submit(Job{ID: "big", Cores: 10, Duration: 1000, SubmitAt: 0})
	// Without a reservation, an interactive session would wait 1000 s.
	_ = c.Submit(Job{ID: "late", Cores: 4, Duration: 50, SubmitAt: 10})
	// The reservation carves 4 cores at t=500 — but it must be made before
	// the batch job fills the machine, so reserve on a fresh cluster.
	c2, _ := NewCluster(10)
	if err := c2.Reserve(Reservation{ID: "res1", Cores: 4, Start: 500, End: 600}); err != nil {
		t.Fatal(err)
	}
	_ = c2.Submit(Job{ID: "big", Cores: 10, Duration: 1000, SubmitAt: 0})
	_ = c2.Submit(Job{ID: "session", Cores: 4, Duration: 80, SubmitAt: 450, ReservationID: "res1"})
	traces, err := c2.Run()
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]JobTrace{}
	for _, tr := range traces {
		byID[tr.Job.ID] = tr
	}
	if byID["session"].StartS != 500 {
		t.Errorf("session start = %v, want 500 (reservation start)", byID["session"].StartS)
	}
	if byID["session"].WaitS != 50 {
		t.Errorf("session wait = %v, want 50", byID["session"].WaitS)
	}
	// The 10-core batch job cannot start at 0 anymore: the reservation
	// blocks [500,600) and the job would span it.
	if byID["big"].StartS < 600 && byID["big"].StartS+1000 > 500 && byID["big"].StartS != 600 {
		// It must start at 600 (after the reservation) since 10 cores never
		// fit alongside 4 reserved.
		t.Errorf("big start = %v, want 600", byID["big"].StartS)
	}
	// Mean waits, split by reservation use.
	var bSum, rSum float64
	var bN, rN int
	for _, tr := range traces {
		if tr.Job.ReservationID != "" {
			rSum += tr.WaitS
			rN++
		} else {
			bSum += tr.WaitS
			bN++
		}
	}
	if bm, rm := bSum/float64(bN), rSum/float64(rN); rm >= bm {
		t.Errorf("reserved mean wait %v should beat batch mean %v", rm, bm)
	}
}

func TestReservationValidation(t *testing.T) {
	c, _ := NewCluster(8)
	if err := c.Reserve(Reservation{ID: "", Cores: 1, Start: 0, End: 1}); err == nil {
		t.Error("empty ID accepted")
	}
	if err := c.Reserve(Reservation{ID: "r", Cores: 9, Start: 0, End: 1}); err == nil {
		t.Error("oversized reservation accepted")
	}
	if err := c.Reserve(Reservation{ID: "r", Cores: 1, Start: 5, End: 5}); err == nil {
		t.Error("empty window accepted")
	}
	if err := c.Reserve(Reservation{ID: "r", Cores: 5, Start: 0, End: 10}); err != nil {
		t.Fatal(err)
	}
	if err := c.Reserve(Reservation{ID: "r", Cores: 1, Start: 20, End: 30}); err == nil {
		t.Error("duplicate ID accepted")
	}
	if err := c.Reserve(Reservation{ID: "r2", Cores: 5, Start: 5, End: 15}); err == nil {
		t.Error("overlapping over-capacity reservation accepted")
	}
	if err := c.Reserve(Reservation{ID: "r3", Cores: 3, Start: 5, End: 15}); err != nil {
		t.Errorf("fitting reservation rejected: %v", err)
	}
}

func TestSubmitValidation(t *testing.T) {
	c, _ := NewCluster(8)
	_ = c.Reserve(Reservation{ID: "res", Cores: 4, Start: 100, End: 200})
	bad := []Job{
		{},
		{ID: "a", Cores: 0, Duration: 1},
		{ID: "a", Cores: 1, Duration: 0},
		{ID: "a", Cores: 99, Duration: 1},
		{ID: "a", Cores: 1, Duration: 1, ReservationID: "ghost"},
		{ID: "a", Cores: 8, Duration: 1, ReservationID: "res"},                // > reservation cores
		{ID: "a", Cores: 1, Duration: 500, ReservationID: "res"},              // longer than window
		{ID: "a", Cores: 1, Duration: 1, SubmitAt: 150, ReservationID: "res"}, // submitted late
	}
	for i, j := range bad {
		if err := c.Submit(j); err == nil {
			t.Errorf("bad job %d accepted", i)
		}
	}
	if err := c.Submit(Job{ID: "ok", Cores: 2, Duration: 10}); err != nil {
		t.Error(err)
	}
	if err := c.Submit(Job{ID: "ok", Cores: 2, Duration: 10}); err == nil {
		t.Error("duplicate job accepted")
	}
}

func TestCalendarBookingAndCredits(t *testing.T) {
	cal, err := NewCalendar(16, 10) // 10 credits per core-hour
	if err != nil {
		t.Fatal(err)
	}
	if err := cal.Deposit("ada", 100); err != nil {
		t.Fatal(err)
	}
	// 4 cores × 0.5 h × 10 = 20 credits.
	b, err := cal.Book("ada", 4, 0, 1800)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b.Cost-20) > 1e-9 {
		t.Errorf("cost = %v, want 20", b.Cost)
	}
	if got := cal.accounts["ada"].Credits; math.Abs(got-80) > 1e-9 {
		t.Errorf("balance = %v, want 80", got)
	}
	// Insufficient credits.
	if _, err := cal.Book("ada", 16, 0, 36000); err == nil {
		t.Error("unaffordable booking accepted")
	}
	// Capacity.
	if _, err := cal.Book("ada", 13, 0, 1800); err == nil {
		t.Error("over-capacity booking accepted")
	}
}

func TestCalendarValidation(t *testing.T) {
	if _, err := NewCalendar(0, 1); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := NewCalendar(1, 0); err == nil {
		t.Error("zero rate accepted")
	}
	cal, _ := NewCalendar(8, 1)
	if _, err := cal.Book("ghost", 1, 0, 1); err == nil {
		t.Error("unknown user accepted")
	}
	_ = cal.Deposit("u", 1000)
	if _, err := cal.Book("u", 0, 0, 1); err == nil {
		t.Error("zero cores accepted")
	}
	if _, err := cal.Book("u", 1, 5, 5); err == nil {
		t.Error("empty window accepted")
	}
	if err := cal.Deposit("", 5); err == nil {
		t.Error("empty user accepted")
	}
	if err := cal.Deposit("u", -1); err == nil {
		t.Error("negative deposit accepted")
	}
}

// End-to-end BookedSlurm flow: book on the calendar, convert to a queue
// reservation, run an interactive session through it.
func TestBookingToReservationFlow(t *testing.T) {
	cal, _ := NewCalendar(32, 5)
	_ = cal.Deposit("eva", 1000)
	b, err := cal.Book("eva", 8, 3600, 7200)
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := NewCluster(128) // the HPC portion of the standard testbed
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.Reserve(b.ToReservation()); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Submit(Job{ID: "nb", Cores: 8, Duration: 1800, SubmitAt: 3000, ReservationID: b.ID}); err != nil {
		t.Fatal(err)
	}
	traces, err := cluster.Run()
	if err != nil {
		t.Fatal(err)
	}
	if traces[0].StartS != 3600 {
		t.Errorf("interactive session start = %v, want 3600", traces[0].StartS)
	}
	if got := len(cal.bookings); got != 1 {
		t.Errorf("bookings = %d", got)
	}
}
