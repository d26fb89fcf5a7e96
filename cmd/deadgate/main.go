// Command deadgate is the reachability gate behind `make deadgate`. It reads
// the `go tool nm` listings of the module's binaries on stdin, lists every
// non-test function declared under the module's internal/ tree, and fails on
// any function that no binary contains unless the allowlist names it.
//
// Usage:
//
//	for b in bin/*; do go tool nm $b; done | deadgate -allow cmd/deadgate/allow.txt .
//
// The directory argument is the module root: its go.mod gives the import
// path prefix. The binaries must be built with -gcflags=all=-l, so that a
// function the compiler would inline into every caller keeps a symbol of its
// own and counts as reached.
//
// A function is named as the linker names it: pkg.F, pkg.T.M or pkg.(*T).M,
// with pkg the full import path and value and pointer receivers distinct.
// Only text symbols (nm types T and t) mark a function reached, so a data
// symbol such as pkg.F.stkobj, which the linker may share between functions
// with identical content, never does. Before matching, a text symbol loses
// its generic shape brackets (pkg.Map[go.shape.int] is pkg.Map) and its
// closure and wrapper suffixes (.funcN, .gowrapN, .deferwrapN and the .N of
// a nested closure), so a closure marks its enclosing function reached.
// Functions named init are not listed: they run whenever their package is
// linked.
//
// Each allowlist line is `name category reason`, with category one of
// oracle, claim or accessor and a reason of at least one word; blank lines
// and lines starting with # are skipped. The gate also fails on an entry
// that is malformed, that names a function no longer declared, or that names
// a function some binary now contains: each entry is a decision that must
// still hold.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// categories are the reasons a function may stay unreached.
var categories = map[string]bool{
	"oracle":   true, // a reference or validator that tests compare reached code or data against
	"claim":    true, // code behind an EXPERIMENTS.md ablation row that the root bench_test.go measures
	"accessor": true, // a read-only view that tests need and that no reached API offers
}

// A fn is one declared function: its linker name and where it is written.
type fn struct {
	name  string
	pos   string // file:line of the declaration
	lines int    // lines from its doc comment to its closing brace
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "deadgate:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fset := flag.NewFlagSet("deadgate", flag.ContinueOnError)
	allowPath := fset.String("allow", "", "allowlist file of `name category reason` lines")
	if err := fset.Parse(args); err != nil {
		return err
	}
	if fset.NArg() != 1 || *allowPath == "" {
		return errors.New("usage: go tool nm BINARY... | deadgate -allow FILE MODULE_ROOT")
	}
	reached, err := readSymbols(stdin)
	if err != nil {
		return err
	}
	if len(reached) == 0 {
		return errors.New("no text symbols on stdin: pipe in the binaries' go tool nm output")
	}
	fns, err := declared(fset.Arg(0))
	if err != nil {
		return err
	}
	allow, err := readAllow(*allowPath)
	if err != nil {
		return err
	}

	var problems []string
	exists := make(map[string]bool, len(fns))
	unreached := 0
	for _, f := range fns {
		exists[f.name] = true
		if reached[f.name] {
			continue
		}
		unreached++
		if !allow[f.name] {
			problems = append(problems, fmt.Sprintf("%s: %s is reached by no binary (%d lines): delete it, or allowlist it with a category and reason", f.pos, f.name, f.lines))
		}
	}
	for _, name := range sortedKeys(allow) {
		switch {
		case !exists[name]:
			problems = append(problems, fmt.Sprintf("%s: allowlisted %s is not declared: drop its entry", *allowPath, name))
		case reached[name]:
			problems = append(problems, fmt.Sprintf("%s: allowlisted %s is reached by a binary: drop its entry", *allowPath, name))
		}
	}
	for _, p := range problems {
		fmt.Fprintln(stdout, p)
	}
	if len(problems) > 0 {
		return fmt.Errorf("%d problems", len(problems))
	}
	fmt.Fprintf(stdout, "dead gate: clean (%d functions, %d unreached, all allowlisted)\n", len(fns), unreached)
	return nil
}

// readSymbols returns the function names behind the text symbols of
// concatenated `go tool nm` listings: lines of address, type and name, where
// the name may contain spaces.
func readSymbols(r io.Reader) (map[string]bool, error) {
	reached := make(map[string]bool)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 || (fields[1] != "T" && fields[1] != "t") {
			continue
		}
		reached[funcName(strings.Join(fields[2:], " "))] = true
	}
	return reached, sc.Err()
}

// closureSuffix matches one trailing closure or wrapper element.
var closureSuffix = regexp.MustCompile(`\.(func|gowrap|deferwrap)?[0-9]+$`)

// funcName maps a text symbol to the function that declares its code.
func funcName(sym string) string {
	var b strings.Builder
	depth := 0
	for _, c := range sym {
		switch {
		case c == '[':
			depth++
		case c == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(c)
		}
	}
	name := b.String()
	for {
		trimmed := closureSuffix.ReplaceAllString(name, "")
		if trimmed == name {
			return name
		}
		name = trimmed
	}
}

// declared lists the non-test functions under root/internal, named with the
// import path that root/go.mod gives.
func declared(root string) ([]fn, error) {
	module, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	var fns []fn
	fset := token.NewFileSet()
	err = filepath.WalkDir(filepath.Join(root, "internal"), func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); n == "testdata" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		pkg := module + "/" + filepath.ToSlash(rel)
		for _, decl := range file.Decls {
			d, ok := decl.(*ast.FuncDecl)
			if !ok || d.Name.Name == "init" || d.Name.Name == "_" {
				continue
			}
			start := d.Pos()
			if d.Doc != nil {
				start = d.Doc.Pos()
			}
			p := fset.Position(d.Pos())
			fns = append(fns, fn{
				name:  pkg + "." + receiver(d) + d.Name.Name,
				pos:   fmt.Sprintf("%s:%d", filepath.ToSlash(p.Filename), p.Line),
				lines: fset.Position(d.End()).Line - fset.Position(start).Line + 1,
			})
		}
		return nil
	})
	return fns, err
}

// receiver renders a method's receiver as the linker does, "T." or "(*T).",
// without type parameters; it is empty for a function.
func receiver(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return ""
	}
	t := d.Recv.List[0].Type
	ptr := false
	if star, ok := t.(*ast.StarExpr); ok {
		ptr, t = true, star.X
	}
	switch g := t.(type) {
	case *ast.IndexExpr:
		t = g.X
	case *ast.IndexListExpr:
		t = g.X
	}
	name := t.(*ast.Ident).Name
	if ptr {
		return "(*" + name + ")."
	}
	return name + "."
}

// modulePath reads the module line of a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return f[1], nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

// readAllow parses the allowlist into the set of names it lists, checking
// that each line has a known category and a reason.
func readAllow(path string) (map[string]bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	allow := make(map[string]bool)
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		switch {
		case len(f) < 3:
			return nil, fmt.Errorf("%s:%d: want `name category reason`, got %q", path, i+1, line)
		case !categories[f[1]]:
			return nil, fmt.Errorf("%s:%d: category %q is not oracle, claim or accessor", path, i+1, f[1])
		}
		if allow[f[0]] {
			return nil, fmt.Errorf("%s:%d: %s is listed twice", path, i+1, f[0])
		}
		allow[f[0]] = true
	}
	return allow, nil
}

func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
