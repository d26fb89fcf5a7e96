package mlir

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func vec(n int, f func(int) float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = f(i)
	}
	return v
}

func axpyInputs(n int) map[string][]float64 {
	return map[string][]float64{
		"%x": vec(n, func(i int) float64 { return float64(i) }),
		"%y": vec(n, func(i int) float64 { return 100 - float64(i) }),
	}
}

func TestModuleValidate(t *testing.T) {
	m := AXPY("demo", 8, 2)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := AXPY("demo", 0, 2)
	if err := bad.Validate(); err == nil {
		t.Error("zero size accepted")
	}
	dup := AXPY("demo", 8, 2)
	dup.Ops = append(dup.Ops, Op{Dialect: DialectTensor, Name: "const", Result: "%a",
		Attrs: map[string]float64{"value": 1}})
	if err := dup.Validate(); err == nil {
		t.Error("duplicate def accepted")
	}
	undef := AXPY("demo", 8, 2)
	undef.Ops[1].Args[1] = "%ghost"
	if err := undef.Validate(); err == nil {
		t.Error("undefined use accepted")
	}
	noOut := AXPY("demo", 8, 2)
	noOut.Output = "%nothing"
	if err := noOut.Validate(); err == nil {
		t.Error("undefined output accepted")
	}
}

func TestInterpretTensorLevel(t *testing.T) {
	m := AXPY("demo", 8, 2)
	out, err := Interpret(m, axpyInputs(8))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		want := 2*float64(i) + 100 - float64(i)
		if math.Abs(v-want) > 1e-12 {
			t.Errorf("out[%d] = %v, want %v", i, v, want)
		}
	}
	// Missing input.
	if _, err := Interpret(m, nil); err == nil {
		t.Error("missing inputs accepted")
	}
	// Wrong length.
	if _, err := Interpret(m, map[string][]float64{"%x": {1}, "%y": {2}}); err == nil {
		t.Error("wrong-length input accepted")
	}
}

func TestConstFold(t *testing.T) {
	m := &Module{
		Name: "cf", Size: 4, Output: "%r",
		Ops: []Op{
			{Dialect: DialectTensor, Name: "const", Result: "%a", Attrs: map[string]float64{"value": 3}},
			{Dialect: DialectTensor, Name: "const", Result: "%b", Attrs: map[string]float64{"value": 4}},
			{Dialect: DialectTensor, Name: "mul", Result: "%ab", Args: []string{"%a", "%b"}},
			{Dialect: DialectTensor, Name: "sum", Result: "%r", Args: []string{"%ab"}},
		},
	}
	want, err := Interpret(clone(m), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := (ConstFold{}).Run(m); err != nil {
		t.Fatal(err)
	}
	// Everything folds: mul → const 12, sum → const 48.
	for _, op := range m.Ops {
		if op.Name != "const" {
			t.Errorf("unfolded op %s.%s", op.Dialect, op.Name)
		}
	}
	got, err := Interpret(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("fold changed semantics: %v vs %v", got[i], want[i])
		}
	}
	if got[0] != 48 {
		t.Errorf("folded value = %v, want 48", got[0])
	}
}

func TestDCERemovesDeadOps(t *testing.T) {
	m := AXPY("demo", 4, 2)
	// Dead chain: %d1 = x - y; %d2 = d1 * d1 (never used).
	m.Ops = append(m.Ops,
		Op{Dialect: DialectTensor, Name: "sub", Result: "%d1", Args: []string{"%x", "%y"}},
		Op{Dialect: DialectTensor, Name: "mul", Result: "%d2", Args: []string{"%d1", "%d1"}},
	)
	before := m.CountOps()
	if err := (DCE{}).Run(m); err != nil {
		t.Fatal(err)
	}
	if m.CountOps() != before-2 {
		t.Errorf("DCE kept dead ops: %d → %d", before, m.CountOps())
	}
	out, err := Interpret(m, axpyInputs(4))
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 100 {
		t.Errorf("out[0] = %v", out[0])
	}
}

func TestFullLoweringPipelinePreservesSemantics(t *testing.T) {
	const n = 16
	ref := AXPY("demo", n, 2.5)
	want, err := Interpret(ref, axpyInputs(n))
	if err != nil {
		t.Fatal(err)
	}

	m := AXPY("demo", n, 2.5)
	pm := DefaultPipeline()
	if err := pm.Run(m); err != nil {
		t.Fatal(err)
	}
	got, err := Interpret(m, axpyInputs(n))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("lowering changed semantics at %d: %v vs %v", i, got[i], want[i])
		}
	}
	// The lowered module must contain rv ops and no loop ops.
	ds := map[Dialect]bool{}
	var walk func(ops []Op)
	walk = func(ops []Op) {
		for _, op := range ops {
			ds[op.Dialect] = true
			walk(op.Body)
		}
	}
	walk(m.Ops)
	hasRV, hasLoop := ds[DialectRV], ds[DialectLoop]
	if !hasRV {
		t.Errorf("no rv dialect after lowering: %v", ds)
	}
	if hasLoop {
		t.Errorf("loop dialect survived lowering: %v", ds)
	}
	// Pipeline trace recorded.
	if len(pm.Trace) != 5 {
		t.Errorf("trace = %+v", pm.Trace)
	}
}

func TestLoopFusionReducesLoops(t *testing.T) {
	m := AXPY("demo", 8, 2)
	if err := (LowerTensorToLoop{}).Run(m); err != nil {
		t.Fatal(err)
	}
	countLoops := func() int {
		n := 0
		for _, op := range m.Ops {
			if op.Dialect == DialectLoop && op.Name == "for" {
				n++
			}
		}
		return n
	}
	before := countLoops()
	if before < 2 {
		t.Fatalf("expected several loops before fusion, got %d", before)
	}
	if err := (LoopFusion{}).Run(m); err != nil {
		t.Fatal(err)
	}
	after := countLoops()
	if after != 1 {
		t.Errorf("fusion left %d loops (from %d)", after, before)
	}
	out, err := Interpret(m, axpyInputs(8))
	if err != nil {
		t.Fatal(err)
	}
	if out[3] != 2*3+100-3 {
		t.Errorf("fused semantics wrong: %v", out[3])
	}
}

// Property: for random DAG-shaped tensor programs, the full pipeline
// preserves the interpreter's output.
func TestPipelineSemanticsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 40; trial++ {
		n := 4 + rng.Intn(12)
		m := &Module{Name: "rand", Size: n, Inputs: []string{"%x", "%y"}}
		vals := []string{"%x", "%y"}
		nOps := 1 + rng.Intn(8)
		for i := 0; i < nOps; i++ {
			r := len(vals)
			name := []string{"add", "mul", "sub"}[rng.Intn(3)]
			res := "%v" + string(rune('0'+i))
			m.Ops = append(m.Ops, Op{
				Dialect: DialectTensor, Name: name, Result: res,
				Args: []string{vals[rng.Intn(r)], vals[rng.Intn(r)]},
			})
			vals = append(vals, res)
		}
		m.Output = vals[len(vals)-1]

		inputs := map[string][]float64{
			"%x": vec(n, func(i int) float64 { return rng.Float64()*4 - 2 }),
			"%y": vec(n, func(i int) float64 { return rng.Float64()*4 - 2 }),
		}
		want, err := Interpret(clone(m), inputs)
		if err != nil {
			t.Fatal(err)
		}
		lowered := clone(m)
		if err := DefaultPipeline().Run(lowered); err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, m)
		}
		got, err := Interpret(lowered, inputs)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("trial %d: semantics diverged at %d: %v vs %v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestModuleString(t *testing.T) {
	s := AXPY("demo", 4, 2).String()
	for _, want := range []string{"module demo", "tensor.mul", "%out", "value=2"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering missing %q:\n%s", want, s)
		}
	}
}

// clone must share nothing with its source, or a pass run on the copy
// would change the module the semantics tests compare it against.
func TestCloneIndependence(t *testing.T) {
	m := AXPY("demo", 4, 2)
	c := clone(m)
	c.Ops[0].Attrs["value"] = 99
	c.Ops[1].Args[0] = "%x"
	if m.Ops[0].Attrs["value"] == 99 || m.Ops[1].Args[0] == "%x" {
		t.Error("clone shares state")
	}
}

func TestInterpretNoOutput(t *testing.T) {
	m := &Module{Name: "x", Size: 2, Ops: []Op{
		{Dialect: DialectTensor, Name: "const", Result: "%a", Attrs: map[string]float64{"value": 1}},
	}}
	if _, err := Interpret(m, nil); err != ErrNoOutput {
		t.Errorf("err = %v, want ErrNoOutput", err)
	}
}

// clone deep-copies a module so a pass's output can be compared with its
// input.
func clone(m *Module) *Module {
	cp := *m
	cp.Inputs = append([]string(nil), m.Inputs...)
	cp.Ops = cloneOps(m.Ops)
	return &cp
}

func cloneOps(ops []Op) []Op {
	out := make([]Op, len(ops))
	for i, op := range ops {
		out[i] = op
		out[i].Args = append([]string(nil), op.Args...)
		if op.Attrs != nil {
			out[i].Attrs = map[string]float64{}
			for k, v := range op.Attrs {
				out[i].Attrs[k] = v
			}
		}
		out[i].Body = cloneOps(op.Body)
	}
	return out
}
