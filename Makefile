# Reproduction of "A Systematic Mapping Study of Italian Research on
# Workflows" (SC-W 2023). Standard-library Go only; everything runs offline.

GO ?= go

.PHONY: all build vet test race audit clockgate randgate experiments regress bench bench-compare bench-kernels bench-gate bench-cache bench-events bench-serve bench-runpack bench-corpus bench-scen artifacts examples outputs clean

# audit (vet + race + clock gate + rand gate) is part of all: the parallel
# substrate (internal/par) and every hot path wired onto it must stay clean
# under the race detector, no simulator code may read the wall clock
# directly, and no experiment-registered package may seed math/rand.
# experiments runs every registered experiment under clock.Sim;
# bench-cache records the cold-vs-warm content-addressed report build;
# bench-serve records the smsd serving-path benchmarks (throughput and
# modeled latency quantiles included);
# bench-gate re-measures the kernel, serving, cas, runpack, corpus and
# generated-scenario benchmarks and fails the build if any regresses against
# the committed BENCH_kernels.json / BENCH_serve.json / BENCH_cas.json /
# BENCH_runpack.json / BENCH_corpus.json / BENCH_scen.json baselines;
# bench-events records the event-engine and
# sweep benchmarks; regress re-executes the committed golden runpacks at
# workers 1, 4 and 8 and fails on any byte of material drift (DESIGN.md §8).
all: build test audit experiments regress bench-cache bench-serve bench-gate bench-events

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# audit = static checks + race detector + the wall-clock gate (DESIGN.md §4)
# + the randomness gate (DESIGN.md §6).
audit: vet race clockgate randgate

# Enforce the clock contract: time.Now/time.Since/time.Sleep may appear in
# internal/ only inside internal/clock (the single wall-clock boundary) and
# in tests. The sweep covers every internal package, internal/cas included:
# the store, memo layer and checkpoint journal must stamp entries through
# the injected clock so journals are byte-identical under clock.Sim.
clockgate:
	@bad=$$(grep -rn --include='*.go' -E 'time\.(Now|Since|Sleep)\(' internal/ \
		| grep -v '^internal/clock/' | grep -v '_test\.go:' || true); \
	if [ -n "$$bad" ]; then \
		echo "clock gate: wall-clock reads outside internal/clock:"; \
		echo "$$bad"; exit 1; \
	fi
	@echo "clock gate: clean"

# Packages whose code is reachable from a registered experiment body: the
# determinism obligations of DESIGN.md §6 apply to all of them.
EXP_PKGS = internal/exp internal/experiments internal/scenarios internal/report \
	internal/orchestrator internal/ppc internal/pmu internal/bigdata \
	internal/fog internal/edgeml internal/serve internal/runpack internal/jcs \
	internal/corpus internal/scengen examples cmd

# Enforce the experiment randomness contract: experiment-registered packages
# (and the examples/CLIs that drive them) must derive every random stream
# from internal/rng seed-splitting — importing math/rand or calling time.Now
# there breaks Spec-fingerprint memoization and worker-count invariance.
# Tests keep their freedom; _test.go files are exempt.
randgate:
	@bad=$$(grep -rn --include='*.go' -E '"math/rand(/v2)?"|time\.Now\(' $(EXP_PKGS) \
		| grep -v '_test\.go:' || true); \
	if [ -n "$$bad" ]; then \
		echo "rand gate: math/rand or time.Now in experiment-registered packages:"; \
		echo "$$bad"; exit 1; \
	fi
	@echo "rand gate: clean"

# Run every registered experiment under clock.Sim through the registry —
# the uniform "all Table 2 checkmarks are executable" check, plus the
# report build, orchestrator sweeps and continuum what-ifs.
experiments:
	$(GO) run ./cmd/smsreport -run all

# The reproducibility gate: verify the committed golden runpacks, re-execute
# each one's Spec from its sealed manifest at three worker counts, and fail
# on any material drift (artifact bytes, metrics, fingerprint, seeds).
regress:
	$(GO) run ./cmd/runpack regress -workers 1,4,8 goldens/runpacks

bench:
	$(GO) test -bench=. -benchmem ./...

# Convert `go test -bench -benchmem` output into the benchmark record
# format cmd/benchdiff consumes: [{name, ns_per_op, allocs_per_op}, …].
BENCH_TO_JSON = awk 'BEGIN { print "[" } \
	  /^Benchmark/ { \
	    name=$$1; ns=""; allocs=""; \
	    for (i = 2; i < NF; i++) { \
	      if ($$(i+1) == "ns/op") ns = $$i; \
	      if ($$(i+1) == "allocs/op") allocs = $$i; \
	    } \
	    if (ns == "") next; \
	    if (allocs == "") allocs = 0; \
	    if (n++) printf ",\n"; \
	    printf "  {\"name\": \"%s\", \"ns_per_op\": %s, \"allocs_per_op\": %s}", name, ns, allocs; \
	  } \
	  END { print "\n]" }'

# The kernel, serve, runpack, corpus and scen baselines were recorded at
# GOMAXPROCS=1: their names carry no -N suffix. With more than one CPU,
# par's worker goroutines add allocations, enough to trip the 10% alloc
# gate on KMeansPar and CorpusClassifySharded, so allocs/op measured at
# another GOMAXPROCS is not comparable with those baselines. Every leg that
# records or gates them runs at one CPU.
BENCH_CPU = -cpu 1

# The Monte-Carlo / clustering kernel benchmarks gated by bench-gate.
KERNEL_BENCH_RE = (KMeans(Seq|Par)|FindHotspots|BootstrapQ3(Seq|Par))$$
KERNEL_BENCH_PKGS = ./internal/bigdata ./internal/core

# Run the sequential-vs-parallel benchmark pairs (…Seq / …Par) and record
# them as BENCH_par.json: [{name, ns_per_op, allocs_per_op}, …].
bench-compare:
	$(GO) test -run '^$$' -bench '(Seq|Par)$$' -benchmem ./... | tee bench_par.txt
	$(BENCH_TO_JSON) bench_par.txt > BENCH_par.json
	@echo wrote BENCH_par.json

# Refresh the committed kernel-benchmark baseline (BENCH_kernels.json).
bench-kernels:
	$(GO) test -run '^$$' -bench '$(KERNEL_BENCH_RE)' -benchmem $(BENCH_CPU) -count 5 $(KERNEL_BENCH_PKGS) | tee bench_kernels.txt
	$(BENCH_TO_JSON) bench_kernels.txt > BENCH_kernels.json
	@echo wrote BENCH_kernels.json

# The smsd serving-path benchmarks gated by bench-gate: warm status polls,
# content-addressed artifact fetches, and the full steady-state mix under
# the deterministic admission model.
SERVE_BENCH_RE = Serve(StatusPoll|ArtifactFetch|Mixed)$$
SERVE_BENCH_PKGS = ./internal/serve/loadgen

# Convert serve benchmark output into BENCH_serve.json: the benchdiff
# record fields (name, ns_per_op, allocs_per_op) plus the informational
# throughput and modeled latency quantiles BenchmarkServeMixed reports.
SERVE_TO_JSON = awk 'BEGIN { print "[" } \
	  /^Benchmark/ { \
	    name=$$1; ns=""; allocs=""; rps=""; p50=""; p95=""; p99=""; \
	    for (i = 2; i < NF; i++) { \
	      if ($$(i+1) == "ns/op") ns = $$i; \
	      if ($$(i+1) == "allocs/op") allocs = $$i; \
	      if ($$(i+1) == "req/s") rps = $$i; \
	      if ($$(i+1) == "p50_us") p50 = $$i; \
	      if ($$(i+1) == "p95_us") p95 = $$i; \
	      if ($$(i+1) == "p99_us") p99 = $$i; \
	    } \
	    if (ns == "") next; \
	    if (allocs == "") allocs = 0; \
	    if (n++) printf ",\n"; \
	    printf "  {\"name\": \"%s\", \"ns_per_op\": %s, \"allocs_per_op\": %s", name, ns, allocs; \
	    if (rps != "") printf ", \"req_per_s\": %s", rps; \
	    if (p50 != "") printf ", \"p50_us\": %s, \"p95_us\": %s, \"p99_us\": %s", p50, p95, p99; \
	    printf "}"; \
	  } \
	  END { print "\n]" }'

# Refresh the committed serving-benchmark baseline (BENCH_serve.json).
bench-serve:
	$(GO) test -run '^$$' -bench '$(SERVE_BENCH_RE)' -benchmem $(BENCH_CPU) -count 5 $(SERVE_BENCH_PKGS) | tee bench_serve.txt
	$(SERVE_TO_JSON) bench_serve.txt > BENCH_serve.json
	@echo wrote BENCH_serve.json

# Re-measure the kernel, serving and cas benchmarks and diff against the
# committed baselines and fail the build on regressions. allocs/op is
# gated tight (10%): allocation counts are exact and deterministic, and
# an extra allocation per op is the regression that matters on these
# paths. ns/op against the *committed* kernel/serve baselines gets 25%
# headroom — wall-clock throughput on shared hardware drifts by more
# than 10% between sessions, and a tighter gate only measures the
# machine. The cas leg stays at 10% ns/op because bench-cache re-records
# its baseline in the same `make all` run, so head and baseline see the
# same machine conditions. Refresh a baseline with `make bench-kernels`
# / `make bench-serve` / `make bench-cache` after an intentional change
# to that path.
bench-gate:
	$(GO) test -run '^$$' -bench '$(KERNEL_BENCH_RE)' -benchmem $(BENCH_CPU) -count 5 $(KERNEL_BENCH_PKGS) | tee bench_gate.txt
	$(BENCH_TO_JSON) bench_gate.txt > bench_gate_head.json
	$(GO) run ./cmd/benchdiff -threshold 0.25 -alloc-threshold 0.10 BENCH_kernels.json bench_gate_head.json
	$(GO) test -run '^$$' -bench '$(SERVE_BENCH_RE)' -benchmem $(BENCH_CPU) -count 5 $(SERVE_BENCH_PKGS) | tee bench_gate.txt
	$(BENCH_TO_JSON) bench_gate.txt > bench_gate_head.json
	$(GO) run ./cmd/benchdiff -threshold 0.25 -alloc-threshold 0.10 BENCH_serve.json bench_gate_head.json
	$(GO) test -run '^$$' -bench 'ReportBuild(Cold|Warm)$$' -count 3 ./internal/report | tee bench_gate.txt
	$(CAS_TO_JSON) bench_gate.txt > bench_gate_head.json
	$(GO) run ./cmd/benchdiff -threshold 0.10 BENCH_cas.json bench_gate_head.json
	$(GO) test -run '^$$' -bench '$(RUNPACK_BENCH_RE)' -benchmem $(BENCH_CPU) -count 5 $(RUNPACK_BENCH_PKGS) | tee bench_gate.txt
	$(BENCH_TO_JSON) bench_gate.txt > bench_gate_head.json
	$(GO) run ./cmd/benchdiff -threshold 0.25 -alloc-threshold 0.10 BENCH_runpack.json bench_gate_head.json
	$(GO) test -run '^$$' -bench '$(CORPUS_BENCH_RE)' -benchmem $(BENCH_CPU) -count 5 $(CORPUS_BENCH_PKGS) | tee bench_gate.txt
	$(BENCH_TO_JSON) bench_gate.txt > bench_gate_head.json
	$(GO) run ./cmd/benchdiff -threshold 0.25 -alloc-threshold 0.10 BENCH_corpus.json bench_gate_head.json
	$(GO) test -run '^$$' -bench '$(SCEN_BENCH_RE)' -benchmem $(BENCH_CPU) -count 5 $(SCEN_BENCH_PKGS) | tee bench_gate.txt
	$(BENCH_TO_JSON) bench_gate.txt > bench_gate_head.json
	$(GO) run ./cmd/benchdiff -threshold 0.25 -alloc-threshold 0.10 BENCH_scen.json bench_gate_head.json
	@rm -f bench_gate.txt bench_gate_head.json

# The discrete-event engine and million-event sweep benchmarks: the engine
# hot loop (Push/Pop must stay allocation-free), the 1M-event Reset/reuse
# cycle, cancel-heavy compaction, and the 512-candidate × 420-step fault
# sweep that exercises the compiled-schedule + pooled-scratch path end to
# end. Recorded as BENCH_events.json in the benchdiff record format.
EVENT_BENCH_RE = (EngineMillionEvents|EnginePushPop|EngineCancelHeavy|FaultSweepLarge(Seq)?)$$
EVENT_BENCH_PKGS = ./internal/continuum ./internal/orchestrator

bench-events:
	$(GO) test -run '^$$' -bench '$(EVENT_BENCH_RE)' -benchmem $(EVENT_BENCH_PKGS) | tee bench_events.txt
	$(BENCH_TO_JSON) bench_events.txt > BENCH_events.json
	@echo wrote BENCH_events.json

# The runpack seal/verify hot paths gated by bench-gate: canonical-JSON
# manifest encoding + blob digesting (Pack), full HMAC verification, and
# full ed25519 verification.
RUNPACK_BENCH_RE = Runpack(Pack|Verify|VerifyEd25519)$$
RUNPACK_BENCH_PKGS = ./internal/runpack

# Refresh the committed runpack-benchmark baseline (BENCH_runpack.json).
bench-runpack:
	$(GO) test -run '^$$' -bench '$(RUNPACK_BENCH_RE)' -benchmem $(BENCH_CPU) -count 5 $(RUNPACK_BENCH_PKGS) | tee bench_runpack.txt
	$(BENCH_TO_JSON) bench_runpack.txt > BENCH_runpack.json
	@echo wrote BENCH_runpack.json

# The corpus-at-scale hot paths gated by bench-gate: the compiled keyword
# automaton (must stay allocation-free) against its strings.Contains
# baseline, raw corpus generation, one shard body, and the cold and warm
# sharded pipelines. Allocation counts on all of these are deterministic,
# so the 10% alloc gate effectively pins them exactly.
CORPUS_BENCH_RE = (ClassifyKernel(Baseline)?|ClassifyDescription|CorpusGen|CorpusShard|CorpusClassify(Sharded|Warm))$$
CORPUS_BENCH_PKGS = ./internal/core ./internal/corpus

# Refresh the committed corpus-benchmark baseline (BENCH_corpus.json).
bench-corpus:
	$(GO) test -run '^$$' -bench '$(CORPUS_BENCH_RE)' -benchmem $(BENCH_CPU) -count 5 $(CORPUS_BENCH_PKGS) | tee bench_corpus.txt
	$(BENCH_TO_JSON) bench_corpus.txt > BENCH_corpus.json
	@echo wrote BENCH_corpus.json

# The generated-scenario hot paths gated by bench-gate: pure (seed, i) →
# composition generation, the cold sharded family sweep, and the warm sweep
# (every shard a cas hit, zero configuration bodies).
SCEN_BENCH_RE = Scen(GenConfigs|FamilyCold|FamilyWarm)$$
SCEN_BENCH_PKGS = ./internal/scengen

# Refresh the committed generated-scenario baseline (BENCH_scen.json).
bench-scen:
	$(GO) test -run '^$$' -bench '$(SCEN_BENCH_RE)' -benchmem $(BENCH_CPU) -count 5 $(SCEN_BENCH_PKGS) | tee bench_scen.txt
	$(BENCH_TO_JSON) bench_scen.txt > BENCH_scen.json
	@echo wrote BENCH_scen.json

# Convert the report-build benchmark output into the cas benchmark record:
# ns/op plus the cached-step count, deliberately *without* allocs/op (the
# report benchmarks self-report allocations; the cas gate tracks wall time
# and step counts, and recording allocs on only one side of the diff would
# make benchdiff compare a real count against an absent-therefore-zero one).
CAS_TO_JSON = awk 'BEGIN { print "[" } \
	  /^BenchmarkReportBuild(Cold|Warm)(-[0-9]+)?[ \t]/ { \
	    name=$$1; ns=""; steps=""; \
	    for (i = 2; i < NF; i++) { \
	      if ($$(i+1) == "ns/op") ns = $$i; \
	      if ($$(i+1) == "steps/op") steps = $$i; \
	    } \
	    if (ns == "") next; \
	    if (n++) printf ",\n"; \
	    printf "  {\"name\": \"%s\", \"ns_per_op\": %s, \"steps_per_op\": %s}", name, ns, steps; \
	  } \
	  END { print "\n]" }'

# Benchmark the content-addressed report build, cold (fresh store: every
# section renders) vs warm (primed store: zero step bodies execute), and
# record BENCH_cas.json: [{name, ns_per_op, steps_per_op}, …].
bench-cache:
	$(GO) test -run '^$$' -bench 'ReportBuild(Cold|Warm)$$' -count 3 ./internal/report | tee bench_cas.txt
	$(CAS_TO_JSON) bench_cas.txt > BENCH_cas.json
	@echo wrote BENCH_cas.json

# Regenerate every paper artifact (tables 1-2, figures 1-4, full report)
# in every supported format under artifacts/.
artifacts:
	$(GO) run ./cmd/smsreport -out artifacts/
	$(GO) run ./cmd/smsreport -table 2 -format svg > artifacts/table2.svg

# Run every example end to end.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/compression
	$(GO) run ./examples/serverledge
	$(GO) run ./examples/galaxyio
	$(GO) run ./examples/divexplorer
	$(GO) run ./examples/worlddynamics

# The final experiment record (see the reproduction protocol).
outputs:
	$(GO) test ./... 2>&1 | tee test_output.txt
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

clean:
	rm -rf artifacts/ test_output.txt bench_output.txt bench_par.txt BENCH_par.json \
		bench_kernels.txt BENCH_kernels.json bench_cas.txt BENCH_cas.json \
		bench_gate.txt bench_gate_head.json bench_events.txt BENCH_events.json \
		bench_serve.txt BENCH_serve.json bench_runpack.txt BENCH_runpack.json \
		bench_corpus.txt BENCH_corpus.json bench_scen.txt BENCH_scen.json
