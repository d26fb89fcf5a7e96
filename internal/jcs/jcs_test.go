package jcs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestCanonicalizeSortsKeys(t *testing.T) {
	in := []byte(`{"b": 2, "a": 1, "c": {"z": true, "y": null}}`)
	want := `{"a":1,"b":2,"c":{"y":null,"z":true}}`
	got, err := Canonicalize(in)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatalf("canonical = %s, want %s", got, want)
	}
}

func TestReorderedKeysCanonicalizeIdentically(t *testing.T) {
	a := []byte(`{"seed": 7, "name": "x", "params": {"p": 1, "q": [1, 2]}}`)
	b := []byte(`{"params":{"q":[1,2],"p":1},"name":"x","seed":7}`)
	ca, err := Canonicalize(a)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := Canonicalize(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ca, cb) {
		t.Fatalf("reordered documents canonicalize differently:\n%s\n%s", ca, cb)
	}
}

func TestNumberCanonicalForm(t *testing.T) {
	cases := []struct{ in, want string }{
		{`0`, `0`},
		{`-0`, `0`},
		{`007`, `7`}, // json.Decoder rejects 007; guard below skips invalid
		{`1.0`, `1`},
		{`1e3`, `1000`},
		{`-2.5`, `-2.5`},
		{`0.25`, `0.25`},
		{`1e-7`, `1e-07`},
		{`1e21`, `1e+21`},
		{`9223372036854775807`, `9223372036854775807`}, // int64 max, exact
		{`-9223372036854775808`, `-9223372036854775808`},
		{`123456789.125`, `1.23456789125e+08`},
	}
	for _, c := range cases {
		got, err := Canonicalize([]byte(c.in))
		if err != nil {
			if c.in == `007` {
				continue // leading zeros are invalid JSON; rejection is fine
			}
			t.Fatalf("Canonicalize(%s): %v", c.in, err)
		}
		if string(got) != c.want {
			t.Errorf("Canonicalize(%s) = %s, want %s", c.in, got, c.want)
		}
	}
}

func TestStringEscaping(t *testing.T) {
	got, err := Marshal("a\"b\\c\n\t\x01é")
	if err != nil {
		t.Fatal(err)
	}
	want := `"a\"b\\c\n\t\u0001é"`
	if string(got) != want {
		t.Fatalf("Marshal string = %s, want %s", got, want)
	}
	// No HTML-safety escapes: < > & pass through raw.
	got, err = Marshal("<a>&</a>")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != `"<a>&</a>"` {
		t.Fatalf("HTML characters must not be escaped, got %s", got)
	}
}

func TestMarshalStructSortsFields(t *testing.T) {
	type s struct {
		Z int    `json:"z"`
		A string `json:"a"`
	}
	got, err := Marshal(s{Z: 1, A: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != `{"a":"x","z":1}` {
		t.Fatalf("struct canonical = %s", got)
	}
}

func TestIdempotence(t *testing.T) {
	in := []byte(`{"m": {"b": [1.5, "x", {"k": 1e2}], "a": true}, "n": -0.0}`)
	once, err := Canonicalize(in)
	if err != nil {
		t.Fatal(err)
	}
	twice, err := Canonicalize(once)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(once, twice) {
		t.Fatalf("not idempotent:\n%s\n%s", once, twice)
	}
	if !IsCanonical(once) {
		t.Fatal("IsCanonical(false) on canonical output")
	}
	if IsCanonical(in) {
		t.Fatal("IsCanonical(true) on non-canonical input")
	}
}

func TestInvalidInputs(t *testing.T) {
	for _, in := range []string{``, `{`, `{"a":}`, `{} {}`, `nope`} {
		if _, err := Canonicalize([]byte(in)); err == nil {
			t.Errorf("Canonicalize(%q): expected error", in)
		}
		if IsCanonical([]byte(in)) {
			t.Errorf("IsCanonical(%q) = true", in)
		}
	}
}

func TestLargeDocumentRoundTrip(t *testing.T) {
	var b strings.Builder
	b.WriteString(`{"entries":[`)
	for i := 0; i < 1000; i++ {
		if i > 0 {
			b.WriteString(",")
		}
		b.WriteString(`{"i":`)
		b.WriteString(strings.Repeat("1", 1+i%5))
		b.WriteString(`,"s":"value"}`)
	}
	b.WriteString(`]}`)
	c, err := Canonicalize([]byte(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !IsCanonical(c) {
		t.Fatal("large document canonical form unstable")
	}
}

// FuzzCanonicalize feeds arbitrary bytes to Canonicalize. It never panics;
// input it accepts canonicalizes to bytes that IsCanonical accepts and that
// canonicalize to themselves, and that encoding/json decodes to the same
// value as the input.
func FuzzCanonicalize(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		out, err := Canonicalize(data)
		if err != nil {
			return
		}
		if !IsCanonical(out) {
			t.Fatalf("canonical form %q is not canonical", out)
		}
		again, err := Canonicalize(out)
		if err != nil || !bytes.Equal(again, out) {
			t.Fatalf("re-canonicalizing %q gave %q (%v)", out, again, err)
		}
		var in, back any
		if err := json.Unmarshal(data, &in); err != nil {
			t.Fatalf("accepted input %q does not decode: %v", data, err)
		}
		if err := json.Unmarshal(out, &back); err != nil {
			t.Fatalf("canonical form %q does not decode: %v", out, err)
		}
		if !reflect.DeepEqual(in, back) {
			t.Fatalf("canonical form %q decodes to %v, input to %v", out, back, in)
		}
	})
}

// One document and nothing after it but whitespace: a second value, or
// bytes that start no value, are trailing data.
func TestCanonicalizeRejectsTrailingData(t *testing.T) {
	for _, in := range []string{`{} {}`, `0A0`, `{"a":1}x`, `[1] ]`, `"s" "t"`, `1 2`} {
		if out, err := Canonicalize([]byte(in)); err == nil {
			t.Errorf("%q canonicalized to %q", in, out)
		}
	}
	for _, in := range []string{"{}", " {} \n", "0", "\t[1]\r\n"} {
		if _, err := Canonicalize([]byte(in)); err != nil {
			t.Errorf("%q: %v", in, err)
		}
	}
}
