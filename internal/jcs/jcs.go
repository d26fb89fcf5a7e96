// Package jcs is the canonical-JSON encoder behind runpack manifests: a
// deterministic serialization in the spirit of RFC 8785 (JSON
// Canonicalization Scheme). Two JSON documents that denote the same value
// always canonicalize to the same bytes, so a SHA-256 over the canonical
// form is a stable identity — the property the provenance-differencing
// literature (Missier et al.) relies on when it compares workflow runs at
// the byte level.
//
// Canonical form:
//
//   - Object members are sorted by key (byte-wise over the UTF-8 key).
//   - No insignificant whitespace.
//   - Strings escape only what JSON requires: `"` and `\` plus control
//     characters (short forms \b \t \n \f \r, otherwise \u00xx with
//     lowercase hex). Everything else is emitted as raw UTF-8 — no \u
//     escapes for non-ASCII, no HTML-safety escapes.
//   - Numbers whose literal parses as an int64 render in minimal base-10
//     form ("-0" → "0", "007" → "7"). Every other number renders as the
//     shortest float64 round-trip (strconv 'g' with precision -1), so
//     "1.0" and "1" both canonicalize to "1". Literals that fit neither
//     int64 nor float64 exactly lose precision like any IEEE pipeline —
//     manifest fields are int64 seeds and float64 metrics, both exact.
//   - NaN and Infinity have no JSON literal and therefore cannot occur.
//
// The encoder is pure: no clocks, no randomness, no maps iterated in
// runtime order.
package jcs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// Marshal encodes v as canonical JSON: a json.Marshal round-trip (which
// resolves struct tags and custom marshalers) followed by Canonicalize.
func Marshal(v any) ([]byte, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("jcs: marshaling: %w", err)
	}
	return Canonicalize(data)
}

// Canonicalize re-encodes a JSON document into canonical form. The input
// must be a single valid JSON value; trailing garbage is an error.
func Canonicalize(data []byte) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, fmt.Errorf("jcs: parsing: %w", err)
	}
	// A second Decode must hit EOF: neither "{} {}" nor "0A0" is one
	// document.
	var trailing any
	if err := dec.Decode(&trailing); err != io.EOF {
		return nil, fmt.Errorf("jcs: trailing data after JSON value")
	}
	var buf bytes.Buffer
	if err := appendValue(&buf, v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// IsCanonical reports whether data already is the canonical encoding of the
// value it denotes. Invalid JSON is not canonical.
func IsCanonical(data []byte) bool {
	c, err := Canonicalize(data)
	return err == nil && bytes.Equal(c, data)
}

func appendValue(buf *bytes.Buffer, v any) error {
	switch t := v.(type) {
	case nil:
		buf.WriteString("null")
	case bool:
		if t {
			buf.WriteString("true")
		} else {
			buf.WriteString("false")
		}
	case string:
		appendString(buf, t)
	case json.Number:
		return appendNumber(buf, t)
	case []any:
		buf.WriteByte('[')
		for i, e := range t {
			if i > 0 {
				buf.WriteByte(',')
			}
			if err := appendValue(buf, e); err != nil {
				return err
			}
		}
		buf.WriteByte(']')
	case map[string]any:
		keys := make([]string, 0, len(t))
		for k := range t {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		buf.WriteByte('{')
		for i, k := range keys {
			if i > 0 {
				buf.WriteByte(',')
			}
			appendString(buf, k)
			buf.WriteByte(':')
			if err := appendValue(buf, t[k]); err != nil {
				return err
			}
		}
		buf.WriteByte('}')
	default:
		return fmt.Errorf("jcs: unexpected decoded type %T", v)
	}
	return nil
}

// appendNumber renders the canonical number form (see the package comment).
func appendNumber(buf *bytes.Buffer, n json.Number) error {
	lit := string(n)
	if i, err := strconv.ParseInt(lit, 10, 64); err == nil {
		buf.WriteString(strconv.FormatInt(i, 10))
		return nil
	}
	f, err := strconv.ParseFloat(lit, 64)
	if err != nil {
		return fmt.Errorf("jcs: number %q: %w", lit, err)
	}
	// Integral float64 values that also fit int64 merge with the integer
	// form ("1.0" → "1", "1e3" → "1000"); everything else is shortest 'g'.
	if f >= -9.2e18 && f <= 9.2e18 && f == float64(int64(f)) {
		buf.WriteString(strconv.FormatInt(int64(f), 10))
		return nil
	}
	buf.WriteString(strconv.FormatFloat(f, 'g', -1, 64))
	return nil
}

// appendString writes s with minimal JSON escaping.
func appendString(buf *bytes.Buffer, s string) {
	buf.WriteByte('"')
	for _, c := range []byte(s) {
		switch {
		case c == '"':
			buf.WriteString(`\"`)
		case c == '\\':
			buf.WriteString(`\\`)
		case c == '\b':
			buf.WriteString(`\b`)
		case c == '\t':
			buf.WriteString(`\t`)
		case c == '\n':
			buf.WriteString(`\n`)
		case c == '\f':
			buf.WriteString(`\f`)
		case c == '\r':
			buf.WriteString(`\r`)
		case c < 0x20:
			fmt.Fprintf(buf, `\u%04x`, c)
		default:
			buf.WriteByte(c)
		}
	}
	buf.WriteByte('"')
}
