# Convenience targets for the rtsync reproduction.

GO ?= go

.PHONY: all build test test-short bench bench-analysis bench-experiments bench-sim bench-check bench-regress fuzz-smoke vet fmt cover experiments verify-results trace-smoke rtsyncd-smoke examples clean

all: build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -l . && test -z "$$(gofmt -l .)"

test: build vet
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

bench:
	$(GO) test -run NONE -bench=. -benchmem ./...

# Rerun the analysis hot-path benchmarks and rewrite the "after" section of
# BENCH_analysis.json in place (description, "before" and notes survive).
# The recorders and bench-regress run every benchmark five times and keep
# the median time (tools/benchjson -count): one timing on a shared machine
# can land anywhere in a spread wider than the regression gate.
bench-analysis:
	$(GO) run ./tools/benchjson -out BENCH_analysis.json -count 5 \
		-pkg ./internal/analysis -bench 'BenchmarkAnalyze|BenchmarkIncremental|BenchmarkDemand' -benchtime 10x

# The experiments pipeline benchmarks plus the record-store path:
# BenchmarkSweepJSONL - BenchmarkSweep is the full result-store overhead per
# 16-system sweep, and BenchmarkRecordEncode/Decode isolate the per-record
# canonical-JSON + content-hash cost.
bench-experiments:
	$(GO) run ./tools/benchjson -out BENCH_experiments.json -count 5 \
		-pkg ./internal/experiments,./internal/record \
		-bench 'BenchmarkSweep|BenchmarkRecord' -benchtime 10x

# Engine hot-path benchmarks: the end-to-end BenchmarkSimulate* figures from
# the root package plus the steady-state engine and queue micro-benchmarks
# from internal/sim, merged into one trajectory. These run with
# observability disabled (the engines' Config.Stats is nil, the zero-cost
# path); TestSimStatsZeroAllocs separately proves that attaching an
# obs.SimStats adds zero allocations per event, so the numbers here also
# describe instrumented runs. BenchmarkSpanRecord and BenchmarkPromText
# price the tracing-enabled extras: one span append and one full /metrics
# exposition render.
bench-sim:
	$(GO) run ./tools/benchjson -out BENCH_sim.json -count 5 \
		-pkg .,./internal/sim,./internal/obs \
		-bench 'BenchmarkSimulate|BenchmarkEngine|BenchmarkEventQueue|BenchmarkReadyQueue|BenchmarkSpanRecord|BenchmarkPromText' \
		-benchtime 1s

# Verify every benchmark named in a BENCH_*.json baseline still exists
# (one 1x iteration per benchmark, no file rewrite) — the CI bench smoke.
bench-check:
	$(GO) run ./tools/benchjson -check -out BENCH_sim.json \
		-pkg .,./internal/sim,./internal/obs \
		-bench 'BenchmarkSimulate|BenchmarkEngine|BenchmarkEventQueue|BenchmarkReadyQueue|BenchmarkSpanRecord|BenchmarkPromText' \
		-benchtime 1x
	$(GO) run ./tools/benchjson -check -out BENCH_analysis.json \
		-pkg ./internal/analysis -bench 'BenchmarkAnalyze|BenchmarkIncremental|BenchmarkDemand' -benchtime 1x
	$(GO) run ./tools/benchjson -check -out BENCH_experiments.json \
		-pkg ./internal/experiments,./internal/record \
		-bench 'BenchmarkSweep|BenchmarkRecord' -benchtime 1x

# Regression gate: rerun each trajectory's benchmarks at the SAME benchtime
# its baseline was captured with (a 1x run measures cold-start, not steady
# state), five times each, and fail when the median ns/op, ns/event or
# ns/term slips more than MAX_REGRESS percent or allocs/op more than
# MAX_REGRESS_ALLOCS percent (+2 allocs absolute slack) against the
# committed "after" numbers. Benchmarks are noisy across
# machines, so the default thresholds are generous; tighten them on a quiet
# box. An INTENTIONAL regression re-baselines with
#
#	make bench-regress UPDATE=1
#
# which accepts the new numbers and rewrites the BENCH_*.json after
# sections in place (benchjson -update).
MAX_REGRESS ?= 30
MAX_REGRESS_ALLOCS ?= 10
UPDATE_FLAG = $(if $(UPDATE),-update,)
bench-regress:
	$(GO) run ./tools/benchjson -check $(UPDATE_FLAG) -count 5 \
		-max-regress $(MAX_REGRESS) -max-regress-allocs $(MAX_REGRESS_ALLOCS) \
		-out BENCH_sim.json -pkg .,./internal/sim,./internal/obs \
		-bench 'BenchmarkSimulate|BenchmarkEngine|BenchmarkEventQueue|BenchmarkReadyQueue|BenchmarkSpanRecord|BenchmarkPromText' \
		-benchtime 1s
	$(GO) run ./tools/benchjson -check $(UPDATE_FLAG) -count 5 \
		-max-regress $(MAX_REGRESS) -max-regress-allocs $(MAX_REGRESS_ALLOCS) \
		-out BENCH_analysis.json -pkg ./internal/analysis \
		-bench 'BenchmarkAnalyze|BenchmarkIncremental|BenchmarkDemand' -benchtime 10x
	$(GO) run ./tools/benchjson -check $(UPDATE_FLAG) -count 5 \
		-max-regress $(MAX_REGRESS) -max-regress-allocs $(MAX_REGRESS_ALLOCS) \
		-out BENCH_experiments.json -pkg ./internal/experiments,./internal/record \
		-bench 'BenchmarkSweep|BenchmarkRecord' -benchtime 10x

# Fuzz for 30s each: the analytic bounds against simulation (no observed
# end-to-end response above a finite SA/DS, SA/PM, MPCP or DPCP bound),
# critical-section segments against the legacy whole-execution locks, the
# analyzer's single-division demand kernel and shortcut per-instance loop
# against the reference kernel, and rtsyncd's delta path (cache,
# incremental) against a fresh full analysis, with hostile deltas that must
# be rejected, not panic. What CI's fuzz smoke runs; crank -fuzztime
# locally for a deeper soak.
fuzz-smoke:
	$(GO) test -run NONE -fuzz FuzzBoundsSound -fuzztime 30s ./internal/sim
	$(GO) test -run NONE -fuzz FuzzLockingEquivalence -fuzztime 30s ./internal/sim
	$(GO) test -run NONE -fuzz FuzzDemandExact -fuzztime 30s ./internal/analysis
	$(GO) test -run NONE -fuzz FuzzAnalyzeExact -fuzztime 30s ./internal/analysis
	$(GO) test -run NONE -fuzz FuzzApplyDelta -fuzztime 30s ./internal/admission

cover:
	$(GO) test -cover ./...

# Regenerate every paper figure + ablation at moderate replication into
# results/. Each sweep also streams its CellRecord store to
# results/<name>.jsonl; `go run ./cmd/rtreport -in results/<name>.jsonl`
# regenerates the figure from the store alone, and tools/verify-results.sh
# proves that round trip byte-identical. Figures 14, 15, 16, rg-rule2 and
# jitter are views over one avgeer-study sweep, so that sweep runs once
# (for figure 14) and the other four render from its store.
experiments: build
	mkdir -p results
	$(GO) run ./cmd/rtexperiments -figure 12 -systems 200 -jsonl results/fig12.jsonl > results/fig12.txt
	$(GO) run ./cmd/rtexperiments -figure 13 -systems 200 -jsonl results/fig13.jsonl > results/fig13.txt
	$(GO) run ./cmd/rtexperiments -figure 14 -systems 50 -jsonl results/fig14.jsonl > results/fig14.txt
	$(GO) run ./cmd/rtreport -in results/fig14.jsonl -verify -figure 15 > results/fig15.txt
	$(GO) run ./cmd/rtreport -in results/fig14.jsonl -verify -figure 16 > results/fig16.txt
	$(GO) run ./cmd/rtreport -in results/fig14.jsonl -verify -figure rg-rule2 > results/rg-rule2.txt
	$(GO) run ./cmd/rtreport -in results/fig14.jsonl -verify -figure jitter > results/jitter.txt
	$(GO) run ./cmd/rtexperiments -figure release-jitter -systems 20 -jsonl results/release-jitter.jsonl > results/release-jitter.txt
	$(GO) run ./cmd/rtexperiments -figure tightness -systems 40 -jsonl results/tightness.jsonl > results/tightness.txt
	$(GO) run ./cmd/rtexperiments -figure edf -systems 30 -horizon-periods 10 -jsonl results/edf.jsonl > results/edf.txt
	$(GO) run ./cmd/rtexperiments -figure exec-variation -systems 10 -horizon-periods 10 -jsonl results/exec-variation.jsonl > results/exec-variation.txt
	$(GO) run ./cmd/rtexperiments -figure sensitivity -systems 15 -horizon-periods 10 -jsonl results/sensitivity.jsonl > results/sensitivity.txt
	$(GO) run ./cmd/rtexperiments -figure overhead > results/overhead.txt

# Prove every committed results/*.txt regenerates byte-identically — live
# sweep AND rtreport replay from the JSONL store — plus store determinism
# across GOMAXPROCS settings. What CI runs.
verify-results:
	sh tools/verify-results.sh

# Smoke the observability layer: -trace-pipeline must not perturb results
# (stdout + JSONL byte-identical across GOMAXPROCS), emitted
# traces must be valid nesting Chrome trace-event JSON, and /metrics must
# speak Prometheus exposition format. What CI runs.
trace-smoke:
	sh tools/trace-smoke.sh

# Smoke the rtsyncd admission service: start it, check verdict parity with
# batch rtanalyze, drive add/modify/remove deltas through the incremental
# and cache paths, and validate the /metrics exposition. What CI runs.
rtsyncd-smoke:
	sh tools/rtsyncd-smoke.sh

examples: build
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/example2
	$(GO) run ./examples/monitor
	$(GO) run ./examples/jitterstudy
	$(GO) run ./examples/sensorhub
	$(GO) run ./examples/edfstudy
	$(GO) run ./examples/fleet -systems 3

# The experiments target writes results/*.txt and results/*.jsonl record
# stores; clean removes those plus CSV exports, run manifests
# (results/*.json, written by the CLIs' -manifest flag), profiling and
# test-binary droppings. The golden fixtures under internal/*/testdata
# are committed INPUTS — regenerated only by a deliberate `go test
# ./internal/analysis -run Golden -update` (CI never passes -update) — so
# clean must never reach into testdata.
clean:
	rm -f results/*.txt results/*.jsonl results/*.csv results/*.json *.prof *.test cpu.out mem.out
