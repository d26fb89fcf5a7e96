// Command smsd serves the repository's experiment registry over HTTP: the
// daemon face of the unified exp contract. Submissions run on a bounded
// worker pool, results are memoized through a content-addressed store, and
// /metrics exposes the Prometheus-text telemetry.
//
// Usage:
//
//	smsd                               # daemon on :8347 (wall clock)
//	smsd -addr :9000 -workers 8        # tune listener and pool
//	smsd -store .smsd                  # persist results/artifacts on disk
//	smsd -loadtest 1000000             # deterministic in-process load replay
//	smsd -loadtest 50000 -lt-names continuum/io,continuum/energy
//
// Endpoints:
//
//	POST /experiments                          {"name": "...", "seed": 7}
//	GET  /experiments                          registered names + submissions
//	GET  /experiments/{id}                     poll status
//	GET  /experiments/{id}/artifacts/{name}    stream one artifact
//	GET  /experiments/{id}/runpack             sealed, signed runpack bundle
//	GET  /metrics                              Prometheus text exposition
//
// -loadtest runs the internal/serve/loadgen replay instead of listening:
// the whole daemon stack on a simulated clock with the deterministic
// admission model, ending in a report whose every byte — including the
// sha256 of the final /metrics exposition — is a pure function of the
// flags. Identical across repeated runs and across -workers values.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/cas"
	"repro/internal/clock"
	"repro/internal/experiments"
	"repro/internal/serve"
	"repro/internal/serve/loadgen"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "smsd:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("smsd", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", ":8347", "listen address for daemon mode")
		storeDir = fs.String("store", "", "content-addressed store directory (default: in-memory)")
		seed     = fs.Int64("seed", 1, "default root seed for submissions that omit one")
		workers  = fs.Int("workers", 4, "execution pool size (results are identical for any value)")
		queue    = fs.Int("queue", 64, "admission queue depth (full queue answers 429)")
		loadtest = fs.Int("loadtest", 0, "replay N synthetic requests in-process on a simulated clock and print the deterministic report (no listener)")
		ltNames  = fs.String("lt-names", "", "with -loadtest: comma-separated experiment names (default: whole registry)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	reg, err := experiments.Default()
	if err != nil {
		return err
	}
	var store cas.Store
	if *storeDir != "" {
		store, err = cas.NewDiskStore(*storeDir)
		if err != nil {
			return err
		}
	}

	if *loadtest > 0 {
		names := reg.Names()
		if *ltNames != "" {
			names = strings.Split(*ltNames, ",")
			sort.Strings(names)
		}
		return runLoadtest(stdout, serve.Config{
			Registry: reg,
			Store:    store,
			Seed:     *seed,
			Workers:  *workers,
			QueueDepth: func() int {
				// The warmup phase submits every name before the first
				// drain; the queue must absorb them all.
				if *queue <= len(names) {
					return len(names) + 1
				}
				return *queue
			}(),
		}, *loadtest, *seed, names)
	}

	srv, err := serve.NewServer(serve.Config{
		Registry:   reg,
		Store:      store,
		Seed:       *seed,
		Workers:    *workers,
		QueueDepth: *queue,
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "smsd: serving %d experiments on %s\n", reg.Len(), ln.Addr())
	// Publishing the pack key at startup is what makes every served runpack
	// verifiable offline: `runpack verify -pubkey <key> <bundle>`.
	fmt.Fprintf(stdout, "smsd: runpack public key %s\n", srv.PackPublicKey())
	return newHTTPServer(srv).Serve(ln)
}

// The listener's timeouts, so no client holds a connection and its
// goroutine for as long as it likes. A request's header must arrive within
// readHeaderTimeout and the whole request (its body is at most 4 KiB)
// within readTimeout; writeTimeout bounds the handler and its response from
// the end of the header on; a keep-alive connection idles at most
// idleTimeout between requests.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 10 * time.Second
	writeTimeout      = 30 * time.Second
	idleTimeout       = 60 * time.Second
)

// newHTTPServer returns the http.Server that serves h with the timeouts
// above.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// runLoadtest replays the standard profile in-process and prints the
// deterministic report: endpoint/code tallies, latency quantiles, and the
// digest of the final /metrics exposition.
func runLoadtest(stdout io.Writer, cfg serve.Config, requests int, seed int64, names []string) error {
	sim := clock.NewSim(seed)
	cfg.Clock = sim
	cfg.Cost = serve.NewCostModel(seed, 4, 0.025)
	srv, err := serve.NewServer(cfg)
	if err != nil {
		return err
	}
	defer srv.Close()
	rep, err := loadgen.Run(srv, sim, loadgen.DefaultProfile(requests, seed, names))
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "smsd loadtest: %d requests over %d experiments, seed=%d, workers=%d\n",
		rep.Requests, len(names), seed, cfg.Workers)
	eps := make([]string, 0, len(rep.Endpoints))
	for ep := range rep.Endpoints {
		eps = append(eps, ep)
	}
	sort.Strings(eps)
	for _, ep := range eps {
		fmt.Fprintf(stdout, "  endpoint %-10s %d\n", ep, rep.Endpoints[ep])
	}
	codes := make([]int, 0, len(rep.Codes))
	for c := range rep.Codes {
		codes = append(codes, c)
	}
	sort.Ints(codes)
	for _, c := range codes {
		fmt.Fprintf(stdout, "  code %d        %d\n", c, rep.Codes[c])
	}
	fmt.Fprintf(stdout, "  rejected       %d\n", rep.Rejected)
	fmt.Fprintf(stdout, "  latency_us     p50=%.1f p95=%.1f p99=%.1f mean=%.1f max=%.1f\n",
		rep.Latency.P50*1e6, rep.Latency.P95*1e6, rep.Latency.P99*1e6,
		rep.Latency.Mean*1e6, rep.Latency.Max*1e6)
	fmt.Fprintf(stdout, "  prom_bytes     %d\n", len(rep.Prom))
	fmt.Fprintf(stdout, "  prom_sha256    %s\n", cas.KeyOf([]byte(rep.Prom)))
	return nil
}
