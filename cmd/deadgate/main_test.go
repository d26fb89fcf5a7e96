package main

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The fixture tree declares these functions, named as the linker names them.
var fixtureFuncs = []string{
	"example/internal/pkg.(*S).M",
	"example/internal/pkg.(*V).Ptr",
	"example/internal/pkg.F",
	"example/internal/pkg.Listed",
	"example/internal/pkg.Map",
	"example/internal/pkg.V.Val",
	"example/internal/pkg/sub.Go",
}

// goodAllow lists exactly the fixture functions testdata/nm.txt does not
// reach.
const goodAllow = `# fixture allowlist
example/internal/pkg.F oracle only a stack-object data symbol carries its name
example/internal/pkg.Listed accessor kept for the tests
example/internal/pkg.V.Val claim only the pointer wrapper is linked
`

func TestFuncName(t *testing.T) {
	for sym, want := range map[string]string{
		"pkg.Map[go.shape.struct { Files []string; RawSize int },go.shape.int].func1.deferwrap1": "pkg.Map",
		"pkg.(*S[go.shape.int]).M": "pkg.(*S).M",
		"pkg.S[go.shape.int].M":    "pkg.S.M",
		"pkg.(*V).Val":             "pkg.(*V).Val",
		"pkg.V.Val":                "pkg.V.Val",
		"pkg.F.func1.2.1":          "pkg.F",
		"pkg.F.gowrap3":            "pkg.F",
		"pkg.Pair[go.shape.[]uint8,go.shape.map[string]int].Get": "pkg.Pair.Get",
		"example/internal/pkg/sub.Go":                            "example/internal/pkg/sub.Go",
	} {
		if got := funcName(sym); got != want {
			t.Errorf("funcName(%q) = %q, want %q", sym, got, want)
		}
	}
}

// Only text symbols count: a data symbol named after a function, such as
// the linker's shared pkg.F.stkobj, never marks it reached.
func TestReadSymbolsTextOnly(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "nm.txt"))
	if err != nil {
		t.Fatal(err)
	}
	reached, err := readSymbols(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"example/internal/pkg.Map", "example/internal/pkg.(*S).M", "example/internal/pkg.(*V).Val", "example/internal/pkg/sub.Go"} {
		if !reached[name] {
			t.Errorf("%s not reached", name)
		}
	}
	for _, name := range []string{"example/internal/pkg.F", "example/internal/pkg.Listed", "example/internal/pkg.V.Val"} {
		if reached[name] {
			t.Errorf("%s reached by a data symbol or a pointer wrapper", name)
		}
	}
}

// declared names value and pointer receivers apart, drops type parameters,
// and skips init, test files and testdata directories.
func TestDeclared(t *testing.T) {
	fns, err := declared(filepath.Join("testdata", "tree"))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range fns {
		got = append(got, f.name)
	}
	sort.Strings(got)
	if strings.Join(got, "\n") != strings.Join(fixtureFuncs, "\n") {
		t.Errorf("declared:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(fixtureFuncs, "\n"))
	}
}

// gate runs deadgate over the fixtures with the given allowlist text.
func gate(t *testing.T, allow string) (string, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "allow.txt")
	if err := os.WriteFile(path, []byte(allow), 0o644); err != nil {
		t.Fatal(err)
	}
	nm, err := os.ReadFile(filepath.Join("testdata", "nm.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err = run([]string{"-allow", path, filepath.Join("testdata", "tree")}, bytes.NewReader(nm), &out)
	return out.String(), err
}

func TestGatePasses(t *testing.T) {
	out, err := gate(t, goodAllow)
	if err != nil {
		t.Fatalf("gate failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "clean (7 functions, 3 unreached, all allowlisted)") {
		t.Errorf("output = %q", out)
	}
}

func TestGateFails(t *testing.T) {
	for _, c := range []struct {
		name, allow, want string
	}{
		{"unlisted unreached function",
			strings.Replace(goodAllow, "example/internal/pkg.F oracle only a stack-object data symbol carries its name\n", "", 1),
			"example/internal/pkg.F is reached by no binary"},
		{"listed function a binary reaches",
			goodAllow + "example/internal/pkg.Map oracle listed although linked\n",
			"allowlisted example/internal/pkg.Map is reached by a binary"},
		{"listed function that is gone",
			goodAllow + "example/internal/pkg.Gone oracle deleted long ago\n",
			"allowlisted example/internal/pkg.Gone is not declared"},
		{"entry without category", goodAllow + "example/internal/pkg.Extra\n", "want `name category reason`"},
		{"entry without reason", goodAllow + "example/internal/pkg.Extra oracle\n", "want `name category reason`"},
		{"unknown category", goodAllow + "example/internal/pkg.Extra helper used by tests\n", `category "helper"`},
		{"deferred category",
			strings.Replace(goodAllow, "pkg.Listed accessor kept for the tests", "pkg.Listed deferred deleted with its tests later", 1),
			`category "deferred"`},
		{"duplicate entry", goodAllow + "example/internal/pkg.F oracle again\n", "listed twice"},
	} {
		t.Run(c.name, func(t *testing.T) {
			out, err := gate(t, c.allow)
			if err == nil {
				t.Fatalf("gate passed:\n%s", out)
			}
			if !strings.Contains(out+err.Error(), c.want) {
				t.Errorf("want %q in output:\n%s%v", c.want, out, err)
			}
		})
	}
}

// An empty listing means the binaries were not built or not piped in; the
// gate must not report every function unreached, nor pass.
func TestGateRejectsEmptyListing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "allow.txt")
	if err := os.WriteFile(path, []byte(goodAllow), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := run([]string{"-allow", path, filepath.Join("testdata", "tree")}, strings.NewReader(""), &out)
	if err == nil || !strings.Contains(err.Error(), "no text symbols") {
		t.Fatalf("empty listing: err = %v", err)
	}
}
