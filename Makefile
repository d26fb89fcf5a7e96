# Reproduction of "A Systematic Mapping Study of Italian Research on
# Workflows" (SC-W 2023). Standard-library Go only; everything runs offline.

GO ?= go

.PHONY: all build vet test race audit clockgate randgate deadgate experiments regress fuzz bench bench-harness bench-gate bench-record artifacts examples outputs clean

# audit (vet + race + clock gate + rand gate + dead gate) is part of all: the
# parallel substrate (internal/par) and every hot path wired onto it must stay
# clean under the race detector, no simulator code may read the wall clock
# directly, no experiment-registered package may seed math/rand, and every
# function under internal/ must be reached by a binary or allowlisted.
# experiments runs every registered experiment under clock.Sim; regress
# re-executes the committed golden runpacks at workers 1, 4 and 8 and fails
# on any byte of material drift (DESIGN.md §8); bench-harness builds and
# short-tests the end-to-end benchmark; bench-gate re-measures every bench
# leg against its committed baseline. all records no baseline and writes no
# tracked file.
all: build test audit experiments regress bench-harness bench-gate

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# audit = static checks + race detector + the wall-clock gate (DESIGN.md §4)
# + the randomness gate (DESIGN.md §6) + the reachability gate.
audit: vet race clockgate randgate deadgate

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
	internal/serve internal/runpack internal/jcs \
	internal/corpus internal/scengen examples cmd

# Enforce the experiment randomness contract: experiment-registered packages
# (and the examples/CLIs that drive them) must derive every random stream
# from internal/rng seed-splitting — importing math/rand or calling time.Now
# there breaks Spec-fingerprint memoization and worker-count invariance.
# Tests keep their freedom; _test.go files are exempt. A listed path that
# does not exist fails the gate: grep would only warn, and the gate would
# report clean for code it never read.
randgate:
	@for p in $(EXP_PKGS); do \
		[ -e "$$p" ] || { echo "rand gate: EXP_PKGS path $$p does not exist"; exit 1; }; \
	done
	@bad=$$(grep -rn --include='*.go' -E '"math/rand(/v2)?"|time\.Now\(' $(EXP_PKGS) \
		| grep -v '_test\.go:' || true); \
	if [ -n "$$bad" ]; then \
		echo "rand gate: math/rand or time.Now in experiment-registered packages:"; \
		echo "$$bad"; exit 1; \
	fi
	@echo "rand gate: clean"

# The reachability gate: every non-test function under internal/ is in some
# binary the module builds (every package main and the bench/ harness), or
# cmd/deadgate/allow.txt names it with a category and a reason. Inlining is
# off, so a function inlined into every caller still has a symbol of its
# own. The binaries and their nm listings live in a temporary directory.
deadgate:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && mkdir "$$dir/bin" && \
	mains=$$($(GO) list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./...) && \
	$(GO) build -gcflags=all=-l -o "$$dir/bin/" $$mains && \
	(cd bench && $(GO) build -gcflags=all=-l -o "$$dir/bin/bench" .) && \
	for b in "$$dir"/bin/*; do $(GO) tool nm "$$b" || exit 1; done > "$$dir/nm.txt" && \
	$(GO) run ./cmd/deadgate -allow cmd/deadgate/allow.txt . < "$$dir/nm.txt"

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

# Native fuzzing, outside all: every Fuzz* target in the tree for 30 s each.
# go test -list finds the targets, so a new one needs no edit here; their
# seed corpora under testdata/fuzz/ already run on every go test.
fuzz:
	@list=$$($(GO) test -list '^Fuzz' ./...) || { echo "$$list"; exit 1; }; \
	echo "$$list" \
	  | awk '/^Fuzz/ { t = t " " $$1; next } /^ok/ { if (t != "") print $$2 t; t = "" }' \
	  | while read -r pkg targets; do \
	      for target in $$targets; do \
	        echo "== fuzz $$pkg $$target"; \
	        $(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime 30s $$pkg || exit 1; \
	      done; \
	    done

bench:
	$(GO) test -bench=. -benchmem ./...

# The end-to-end benchmark (bench/run.sh) is its own module, so go test
# ./... never builds it: vet it and run its short tests.
bench-harness:
	cd bench && $(GO) vet . && $(GO) test -short .

# The legs of the bench gate, one row each:
#   name:-bench regexp:packages:-count:ns/op bound
# Leg <name> is gated against its committed baseline BENCH_<name>.json, and
# every BENCH_*.json needs a row. Two settings are the same on every leg:
# - -cpu 1: every baseline was recorded at GOMAXPROCS=1 (no name carries a
#   -N suffix), and with more CPUs par's worker goroutines add allocations,
#   so allocs/op measured at another GOMAXPROCS is not comparable;
# - the 10% allocs/op bound: allocation counts are exact, and an extra
#   allocation per op is the regression that matters on these paths.
# ns/op gets 25% over the best of 5 runs, because wall time on shared
# hardware drifts by more than 10% between sessions. The cas leg keeps the
# 10% and best of 3 it had when its baseline was re-recorded in the same
# run as the gate; against a committed baseline it reads host drift.
BENCH_LEGS = \
	'kernels:(BootstrapQ3(Seq|Par)|FaultSweep(Seq|Par)|MapReduce(Seq|Par)|ReportFull(Seq|Par))$$:./internal/core ./internal/orchestrator ./internal/par ./internal/report:5:0.25' \
	'serve:Serve(StatusPoll|ArtifactFetch|Mixed)$$:./internal/serve/loadgen:5:0.25' \
	'cas:ReportBuild(Cold|Warm)$$:./internal/report:3:0.10' \
	'runpack:Runpack(Pack|Verify|VerifyEd25519)$$:./internal/runpack:5:0.25' \
	'corpus:(ClassifyKernel(Baseline)?|ClassifyDescription|CorpusGen|CorpusShard|CorpusClassify(Sharded|Warm))$$:./internal/core ./internal/corpus:5:0.25' \
	'scen:Scen(GenConfigs|FamilyCold|FamilyWarm)$$:./internal/scengen:5:0.25' \
	'events:(EngineMillionEvents|EnginePushPop|FaultSweepLarge(Seq)?)$$:./internal/continuum ./internal/orchestrator:5:0.25'

# In a loop over BENCH_LEGS: split the shell's $row into $1..$5 (name,
# regexp, packages, count, bound), then run that leg's benchmarks into the
# pipe that follows.
BENCH_ROW = set -f; IFS=:; set -- $$row; unset IFS; set +f
BENCH_RUN = $(GO) test -run '^$$' -bench "$$2" -benchmem -cpu 1 -count $$4 $$3

# Re-measure every leg and diff it against its baseline with cmd/benchdiff.
# Every leg runs and prints its table; the gate fails at the end if any leg
# failed or a BENCH_*.json has no row.
bench-gate:
	@failed=; legs=; \
	for row in $(BENCH_LEGS); do \
	  $(BENCH_ROW); legs="$$legs $$1"; echo "== bench leg $$1"; \
	  $(BENCH_RUN) | $(GO) run ./cmd/benchdiff -threshold $$5 -alloc-threshold 0.10 BENCH_$$1.json \
	    || failed="$$failed $$1"; \
	done; \
	for f in BENCH_*.json; do \
	  leg=$${f#BENCH_}; case " $$legs " in *" $${leg%.json} "*) ;; \
	    *) echo "bench-gate: $$f has no row in BENCH_LEGS"; failed="$$failed $$f";; esac; \
	done; \
	if [ -n "$$failed" ]; then echo "bench-gate: FAILED:$$failed"; exit 1; fi; \
	echo "bench-gate: every leg passed"

# Re-measure one leg and rewrite its baseline after an intentional change
# to that path: make bench-record LEG=cas. To re-measure only some of a
# leg's benchmarks, pipe a narrower go test run into
# `go run ./cmd/benchdiff -write BENCH_<leg>.json`; rows it does not name stay.
bench-record:
	@for row in $(BENCH_LEGS); do \
	  $(BENCH_ROW); [ "$$1" = "$(LEG)" ] || continue; \
	  $(BENCH_RUN) | $(GO) run ./cmd/benchdiff -write BENCH_$$1.json; exit; \
	done; \
	echo "bench-record: LEG=$(LEG) names no row of BENCH_LEGS"; exit 1

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

# Remove untracked outputs; every committed file (artifacts/, baselines,
# goldens) stays.
clean:
	rm -rf test_output.txt bench_output.txt .bench_build
