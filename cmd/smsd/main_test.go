package main

import (
	"errors"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// The loadtest report is a deterministic artifact: identical bytes across
// repeated runs and across worker counts, down to the sha256 of the final
// /metrics exposition.
func TestLoadtestDeterministic(t *testing.T) {
	render := func(workers string) string {
		var sb strings.Builder
		err := run([]string{
			"-loadtest", "2000",
			"-lt-names", "continuum/io,continuum/energy",
			"-seed", "42",
			"-workers", workers,
		}, &sb)
		if err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	first := render("4")
	if got := render("4"); got != first {
		t.Fatalf("loadtest differs across identical runs:\n%s\nvs\n%s", first, got)
	}
	for _, w := range []string{"1", "8"} {
		got := render(w)
		// Only the echoed workers= header may differ.
		a := first[strings.Index(first, "\n"):]
		b := got[strings.Index(got, "\n"):]
		if a != b {
			t.Fatalf("loadtest differs between 4 and %s workers:\n%s\nvs\n%s", w, first, got)
		}
	}
	for _, want := range []string{"endpoint status", "code 200", "prom_sha256", "latency_us"} {
		if !strings.Contains(first, want) {
			t.Errorf("report missing %q:\n%s", want, first)
		}
	}
}

func TestLoadtestUnknownName(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-loadtest", "10", "-lt-names", "no/such"}, &sb); err == nil {
		t.Fatal("unknown -lt-names accepted")
	}
}

// corpus/classify and corpus/stats classify one corpus, so their jobs share
// every shard key. Run at once, each shard is computed by one of them and
// recalled by the other, so the exposition (shard exec/hit counters
// included) is the -workers 1 bytes at every worker count.
func TestLoadtestSharedShardsDeterministic(t *testing.T) {
	render := func(workers string) string {
		var sb strings.Builder
		if err := run([]string{"-loadtest", "2000", "-lt-names", "corpus/classify,corpus/stats",
			"-workers", workers}, &sb); err != nil {
			t.Fatal(err)
		}
		out := sb.String()
		return out[strings.Index(out, "\n"):] // past the echoed workers= header
	}
	want := render("1")
	for i := 0; i < 20; i++ {
		for _, w := range []string{"4", "8"} {
			if got := render(w); got != want {
				t.Fatalf("run %d at %s workers differs from 1 worker:\n%s\nvs\n%s", i, w, got, want)
			}
		}
	}
}

// The daemon's listener sets all four timeouts, and one whose header
// timeout is lowered disconnects a client that sends half a header.
func TestHTTPServerTimeouts(t *testing.T) {
	hs := newHTTPServer(http.NotFoundHandler())
	for name, c := range map[string][2]time.Duration{
		"ReadHeaderTimeout": {hs.ReadHeaderTimeout, readHeaderTimeout},
		"ReadTimeout":       {hs.ReadTimeout, readTimeout},
		"WriteTimeout":      {hs.WriteTimeout, writeTimeout},
		"IdleTimeout":       {hs.IdleTimeout, idleTimeout},
	} {
		if c[0] != c[1] || c[0] <= 0 {
			t.Errorf("%s = %v, want %v", name, c[0], c[1])
		}
	}

	slow := newHTTPServer(http.NotFoundHandler())
	slow.ReadHeaderTimeout = 50 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- slow.Serve(ln) }()
	defer func() {
		slow.Close()
		<-done
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /metrics HTTP/1.1\r\nHost: smsd\r\n")); err != nil {
		t.Fatal(err)
	}
	// The server closes the connection; the deadline only stops a hang.
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	n, err := conn.Read(make([]byte, 1))
	var ne net.Error
	if n != 0 || err == nil || errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("half a header: read %d bytes, err %v; want the server to hang up", n, err)
	}
}
