package loadgen

import (
	"net/http"
	"testing"

	"repro/internal/clock"
	"repro/internal/serve"
)

// benchServer assembles a warmed server + driver pair: every experiment
// already completed, so the measured loop is pure serving-path cost.
func benchServer(b *testing.B, cost *serve.CostModel) (*serve.Server, *Driver, *clock.Sim) {
	b.Helper()
	sim := clock.NewSim(9)
	srv, err := serve.NewServer(serve.Config{
		Registry:   synthRegistry(b),
		Clock:      sim,
		Seed:       11,
		Workers:    4,
		QueueDepth: 64,
		Cost:       cost,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(srv.Close)
	d, err := NewDriver(srv, sim, DefaultProfile(0, 13, synthNames))
	if err != nil {
		b.Fatal(err)
	}
	return srv, d, sim
}

// BenchmarkServeStatusPoll measures the warm status path: job lookup plus
// the cached terminal-status bytes — no marshalling, no body execution.
func BenchmarkServeStatusPoll(b *testing.B) {
	_, d, _ := benchServer(b, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.sink.status = 0
		d.dispatch(&d.sink, http.MethodGet, "/experiments/"+d.ids[i%len(d.ids)], nil)
		if d.sink.status != http.StatusOK {
			b.Fatalf("status poll answered %d", d.sink.status)
		}
	}
}

// BenchmarkServeArtifactFetch measures the warm artifact path: link
// resolution plus a content-addressed blob read — zero experiment bodies.
func BenchmarkServeArtifactFetch(b *testing.B) {
	_, d, _ := benchServer(b, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.sink.status = 0
		d.dispatch(&d.sink, http.MethodGet, "/experiments/"+d.ids[i%len(d.ids)]+"/artifacts/table.csv", nil)
		if d.sink.status != http.StatusOK {
			b.Fatalf("artifact fetch answered %d", d.sink.status)
		}
	}
}

// BenchmarkServeMixed measures the full steady-state mix under the
// admission model, reporting throughput and the modeled latency quantiles
// alongside ns/op and allocs/op (all recorded into BENCH_serve.json).
func BenchmarkServeMixed(b *testing.B) {
	srv, d, _ := benchServer(b, serve.NewCostModel(5, 4, 0.025))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Step()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
	lat := srv.LatencySummary()
	b.ReportMetric(lat.P50*1e6, "model_p50_us")
	b.ReportMetric(lat.P95*1e6, "model_p95_us")
	b.ReportMetric(lat.P99*1e6, "model_p99_us")
}
