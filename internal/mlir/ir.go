// Package mlir implements a miniature Multi-Level Intermediate
// Representation compiler (Lattner et al., CGO 2021 — the MLIR tool of
// Section 2.4 and application 3.10): several abstraction levels ("dialects")
// co-exist in one IR, domain-specific optimization passes run at the level
// where they are natural, and progressive lowering takes a high-level
// tensor program down to a RISC-V-flavoured instruction stream.
//
// Dialects:
//
//	tensor : whole-array ops   (tensor.add, tensor.mul, tensor.sum, ...)
//	loop   : explicit loops    (loop.for with a scalar body)
//	rv     : RISC-ish register instructions (rv.load, rv.add, rv.store ...)
//
// Passes: constant folding and dead-code elimination (tensor level),
// loop fusion (loop level), and the two lowering passes. An interpreter per
// dialect lets tests assert that every pass preserves semantics.
package mlir

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Dialect identifies an abstraction level.
type Dialect string

// The three dialects, highest first.
const (
	DialectTensor Dialect = "tensor"
	DialectLoop   Dialect = "loop"
	DialectRV     Dialect = "rv"
)

// Op is one IR operation in SSA form: it produces one value (Result) from
// operand values. Attributes carry op-specific constants.
type Op struct {
	Dialect Dialect
	Name    string   // e.g. "add", "const", "for"
	Result  string   // SSA value name, "" for ops with side effects only
	Args    []string // operand value names
	// Attrs holds constants: "value" for const, "size" for alloc, etc.
	Attrs map[string]float64
	// Body holds nested ops (loop.for bodies).
	Body []Op
}

// Module is a function-less compilation unit: a list of ops plus the names
// of its external inputs and its single output value.
type Module struct {
	Name   string
	Inputs []string // externally supplied vectors
	Output string   // SSA name of the result
	Ops    []Op
	// Size is the vector length every tensor value shares (a deliberately
	// simple shape system).
	Size int
}

// Validate checks SSA well-formedness: defs before uses, unique defs,
// output defined, known ops.
func (m *Module) Validate() error {
	if m.Size <= 0 {
		return fmt.Errorf("mlir: module %s has size %d", m.Name, m.Size)
	}
	defined := map[string]bool{}
	for _, in := range m.Inputs {
		if defined[in] {
			return fmt.Errorf("mlir: duplicate input %q", in)
		}
		defined[in] = true
	}
	var check func(ops []Op, defined map[string]bool) error
	check = func(ops []Op, defined map[string]bool) error {
		for _, op := range ops {
			for _, a := range op.Args {
				if !defined[a] {
					return fmt.Errorf("mlir: op %s.%s uses undefined value %q", op.Dialect, op.Name, a)
				}
			}
			if len(op.Body) > 0 {
				inner := map[string]bool{}
				for k := range defined {
					inner[k] = true
				}
				// Loop induction variable.
				if iv, ok := op.Attrs["__iv__"]; ok {
					_ = iv
				}
				inner["%iv"] = true
				if err := check(op.Body, inner); err != nil {
					return err
				}
			}
			if op.Result != "" {
				if defined[op.Result] {
					return fmt.Errorf("mlir: value %q defined twice", op.Result)
				}
				defined[op.Result] = true
			}
		}
		return nil
	}
	if err := check(m.Ops, defined); err != nil {
		return err
	}
	if m.Output != "" && !defined[m.Output] {
		return fmt.Errorf("mlir: output %q undefined", m.Output)
	}
	return nil
}

// String renders the module in a textual MLIR-ish syntax.
func (m *Module) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "module %s (inputs: %s) -> %s {\n", m.Name, strings.Join(m.Inputs, ", "), m.Output)
	var render func(ops []Op, indent string)
	render = func(ops []Op, indent string) {
		for _, op := range ops {
			b.WriteString(indent)
			if op.Result != "" {
				fmt.Fprintf(&b, "%s = ", op.Result)
			}
			fmt.Fprintf(&b, "%s.%s(%s)", op.Dialect, op.Name, strings.Join(op.Args, ", "))
			if len(op.Attrs) > 0 {
				keys := make([]string, 0, len(op.Attrs))
				for k := range op.Attrs {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				parts := make([]string, len(keys))
				for i, k := range keys {
					parts[i] = fmt.Sprintf("%s=%g", k, op.Attrs[k])
				}
				fmt.Fprintf(&b, " {%s}", strings.Join(parts, ", "))
			}
			if len(op.Body) > 0 {
				b.WriteString(" {\n")
				render(op.Body, indent+"  ")
				b.WriteString(indent + "}")
			}
			b.WriteString("\n")
		}
	}
	render(m.Ops, "  ")
	b.WriteString("}\n")
	return b.String()
}

// CountOps returns the number of ops (recursively).
func (m *Module) CountOps() int {
	var count func(ops []Op) int
	count = func(ops []Op) int {
		n := 0
		for _, op := range ops {
			n += 1 + count(op.Body)
		}
		return n
	}
	return count(m.Ops)
}

// --- Tensor-dialect interpreter -------------------------------------------

// ErrNoOutput is returned when interpreting a module without an output.
var ErrNoOutput = errors.New("mlir: module has no output value")

// Interpret evaluates the module over named input vectors and returns the
// output vector. It understands all three dialects, so semantics can be
// checked before and after every pass.
func Interpret(m *Module, inputs map[string][]float64) ([]float64, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if m.Output == "" {
		return nil, ErrNoOutput
	}
	env := map[string][]float64{}
	for _, in := range m.Inputs {
		v, ok := inputs[in]
		if !ok {
			return nil, fmt.Errorf("mlir: missing input %q", in)
		}
		if len(v) != m.Size {
			return nil, fmt.Errorf("mlir: input %q has length %d, module size %d", in, len(v), m.Size)
		}
		env[in] = v
	}
	if err := evalOps(m, m.Ops, env); err != nil {
		return nil, err
	}
	out, ok := env[m.Output]
	if !ok {
		return nil, fmt.Errorf("mlir: output %q not computed", m.Output)
	}
	return out, nil
}

func evalOps(m *Module, ops []Op, env map[string][]float64) error {
	for _, op := range ops {
		if err := evalOp(m, op, env); err != nil {
			return err
		}
	}
	return nil
}

func evalOp(m *Module, op Op, env map[string][]float64) error {
	get := func(name string) ([]float64, error) {
		v, ok := env[name]
		if !ok {
			return nil, fmt.Errorf("mlir: value %q unavailable", name)
		}
		return v, nil
	}
	switch op.Dialect {
	case DialectTensor:
		switch op.Name {
		case "const":
			v := make([]float64, m.Size)
			c := op.Attrs["value"]
			for i := range v {
				v[i] = c
			}
			env[op.Result] = v
		case "add", "mul", "sub":
			a, err := get(op.Args[0])
			if err != nil {
				return err
			}
			bv, err := get(op.Args[1])
			if err != nil {
				return err
			}
			out := make([]float64, m.Size)
			for i := range out {
				switch op.Name {
				case "add":
					out[i] = a[i] + bv[i]
				case "mul":
					out[i] = a[i] * bv[i]
				case "sub":
					out[i] = a[i] - bv[i]
				}
			}
			env[op.Result] = out
		case "sum":
			a, err := get(op.Args[0])
			if err != nil {
				return err
			}
			s := 0.0
			for _, x := range a {
				s += x
			}
			v := make([]float64, m.Size)
			for i := range v {
				v[i] = s
			}
			env[op.Result] = v
		default:
			return fmt.Errorf("mlir: unknown tensor op %q", op.Name)
		}
	case DialectLoop:
		switch op.Name {
		case "alloc":
			env[op.Result] = make([]float64, m.Size)
		case "for":
			// Body executes Size times; %iv is the induction index made
			// visible as a 1-hot style scalar via env["%iv"] (a full vector
			// whose entries equal the index — simple but sufficient).
			for i := 0; i < m.Size; i++ {
				iv := make([]float64, m.Size)
				for j := range iv {
					iv[j] = float64(i)
				}
				env["%iv"] = iv
				for _, inner := range op.Body {
					if err := evalLoopBody(m, inner, env, i); err != nil {
						return err
					}
				}
			}
			delete(env, "%iv")
		default:
			return fmt.Errorf("mlir: unknown loop op %q", op.Name)
		}
	case DialectRV:
		return evalRV(m, op, env)
	default:
		return fmt.Errorf("mlir: unknown dialect %q", op.Dialect)
	}
	return nil
}

// evalLoopBody executes one scalar body op at index i. Body ops are
// "loop.load dst <- src" (read element i), "loop.addf/mulf/subf", and
// "loop.store buffer <- value".
func evalLoopBody(m *Module, op Op, env map[string][]float64, i int) error {
	scalarOf := func(name string) (float64, error) {
		v, ok := env[name]
		if !ok {
			return 0, fmt.Errorf("mlir: value %q unavailable", name)
		}
		return v[i], nil
	}
	switch op.Name {
	case "load":
		src, ok := env[op.Args[0]]
		if !ok {
			return fmt.Errorf("mlir: load from unknown %q", op.Args[0])
		}
		buf, ok := env[op.Result]
		if !ok {
			buf = make([]float64, m.Size)
			env[op.Result] = buf
		}
		buf[i] = src[i]
	case "addf", "mulf", "subf":
		a, err := scalarOf(op.Args[0])
		if err != nil {
			return err
		}
		b, err := scalarOf(op.Args[1])
		if err != nil {
			return err
		}
		buf, ok := env[op.Result]
		if !ok {
			buf = make([]float64, m.Size)
			env[op.Result] = buf
		}
		switch op.Name {
		case "addf":
			buf[i] = a + b
		case "mulf":
			buf[i] = a * b
		case "subf":
			buf[i] = a - b
		}
	case "constf":
		buf, ok := env[op.Result]
		if !ok {
			buf = make([]float64, m.Size)
			env[op.Result] = buf
		}
		buf[i] = op.Attrs["value"]
	case "store":
		dst, ok := env[op.Args[0]]
		if !ok {
			return fmt.Errorf("mlir: store to unknown %q", op.Args[0])
		}
		v, err := scalarOf(op.Args[1])
		if err != nil {
			return err
		}
		dst[i] = v
	default:
		return fmt.Errorf("mlir: unknown loop-body op %q", op.Name)
	}
	return nil
}
