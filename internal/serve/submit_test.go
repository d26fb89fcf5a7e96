package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/runpack"
)

// maxAnswer bounds the length of any error answer to POST /experiments.
const maxAnswer = 16 * maxQuoted

// TestSubmitBody covers what POST /experiments makes of its body: exactly
// one JSON object of at most maxSubmitBytes, naming a registered
// experiment. An error answer quotes at most maxQuoted bytes of the name or
// of the decoder's error, and is at most maxAnswer bytes long.
func TestSubmitBody(t *testing.T) {
	x := strings.Repeat("x", 1000)
	// 670 escaped control bytes: %q spells each as \x01, and JSON doubles
	// the backslash, so the decoder's whole error would answer in 3,410 bytes.
	escapes := `{"` + strings.Repeat(`\u0001`, 670) + `":1}`
	atLimit := `{"name":"synth/a","seed":5}`
	atLimit += strings.Repeat(" ", maxSubmitBytes-len(atLimit))
	for _, c := range []struct {
		name, body string
		code       int
		quotes     string // for an error, a part of its message
	}{
		{"one object", `{"name":"synth/a","seed":3}`, http.StatusAccepted, ""},
		{"trailing whitespace", "{\"name\":\"synth/a\",\"seed\":4}\n\t ", http.StatusAccepted, ""},
		{"at the limit", atLimit, http.StatusAccepted, ""},
		{"trailing garbage", `{"name":"synth/a","seed":3} trailing garbage`, http.StatusBadRequest, "invalid character"},
		{"second object", `{"name":"synth/a","seed":3}{"name":"synth/a"}`, http.StatusBadRequest, "more than one JSON value"},
		{"torn second value", `{"name":"synth/a","seed":3} {`, http.StatusBadRequest, "unexpected EOF"},
		{"empty", ``, http.StatusBadRequest, "EOF"},
		{"unknown field of escapes", escapes, http.StatusBadRequest, `unknown field "\x01`},
		{"unknown name", `{"name":"no/such"}`, http.StatusNotFound, `"no/such"`},
		{"long unknown name", `{"name":"` + x + `"}`, http.StatusNotFound, `"` + x[:maxQuoted] + `..."`},
		{"over the limit", atLimit + " ", http.StatusRequestEntityTooLarge, "exceeds"},
		{"long name over the limit", `{"name":"` + strings.Repeat("x", maxSubmitBytes) + `"}`, http.StatusRequestEntityTooLarge, "exceeds"},
	} {
		t.Run(c.name, func(t *testing.T) {
			srv := newTestServer(t, Config{Registry: synthRegistry(t, nil, "synth/a")})
			w := do(srv, http.MethodPost, "/experiments", c.body)
			if w.Code != c.code {
				t.Fatalf("submit = %d, want %d: %s", w.Code, c.code, w.Body.String())
			}
			if got := srv.Metrics().Counter(countCode(c.code)); got != 1 {
				t.Errorf("%s = %d, want 1", countCode(c.code), got)
			}
			if c.quotes == "" {
				return
			}
			if w.Body.Len() > maxAnswer {
				t.Errorf("answer of %d bytes to a %d-byte body, want at most %d", w.Body.Len(), len(c.body), maxAnswer)
			}
			var e errorResponse
			if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(e.Error, c.quotes) || strings.Contains(e.Error, x[:maxQuoted+1]) {
				t.Errorf("answer %q, want it to quote %s and at most %d bytes of the name", e.Error, c.quotes, maxQuoted)
			}
		})
	}
}

// as reads as an endless run of 'a'.
type as struct{}

func (as) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'a'
	}
	return len(p), nil
}

// A 64 MiB body is refused after reading maxSubmitBytes of it: the handler
// allocates a small multiple of the limit, not of the body.
func TestSubmitOversizedBodyAllocs(t *testing.T) {
	srv := newTestServer(t, Config{Registry: synthRegistry(t, nil, "synth/a")})
	rest := &io.LimitedReader{R: as{}, N: 64 << 20}
	req := httptest.NewRequest(http.MethodPost, "/experiments", io.MultiReader(strings.NewReader(`{"name":"`), rest))
	w := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	srv.ServeHTTP(w, req)
	runtime.ReadMemStats(&after)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("64 MiB submit = %d, want 413: %.200s", w.Code, w.Body.String())
	}
	if rest.N == 0 {
		t.Error("handler read the whole 64 MiB body")
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("64 MiB body: %d bytes left unread, %d bytes allocated (limit %d)", rest.N, alloc, maxSubmitBytes)
	if alloc > 8*maxSubmitBytes {
		t.Errorf("handler allocated %d bytes for a 64 MiB body, want at most %d", alloc, 8*maxSubmitBytes)
	}
}

// FuzzSubmit drives POST /experiments with arbitrary bodies, each on a fresh
// server over a one-experiment registry, so an answer depends on its body
// alone. No body may panic the handler; every answer is one of the submit
// contract's codes; an admitted job is the registered experiment; and a 400
// or 404 answer is at most maxAnswer bytes.
func FuzzSubmit(f *testing.F) {
	reg := synthRegistry(f, nil, "synth/a")
	key := runpack.NewHMACKey([]byte("fuzz"))
	f.Fuzz(func(t *testing.T, body []byte) {
		srv, err := NewServer(Config{Registry: reg, Clock: clock.NewSim(1), Workers: 1, QueueDepth: 1, PackKey: key})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/experiments", bytes.NewReader(body)))
		switch w.Code {
		case http.StatusOK, http.StatusAccepted:
			var st StatusResponse
			if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil || st.Experiment != "synth/a" {
				t.Fatalf("submit %q = %d with status %q (%v)", body, w.Code, w.Body.String(), err)
			}
		case http.StatusBadRequest, http.StatusNotFound:
			if w.Body.Len() > maxAnswer {
				t.Fatalf("%d answer of %d bytes for a %d-byte body", w.Code, w.Body.Len(), len(body))
			}
		case http.StatusRequestEntityTooLarge, http.StatusTooManyRequests, http.StatusServiceUnavailable:
		default:
			t.Fatalf("submit %q = %d: %s", body, w.Code, w.Body.String())
		}
	})
}
