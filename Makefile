# Convenience targets; everything is plain `go` underneath (stdlib only).

GO ?= go

.PHONY: all build test vet bench bench-smoke bench-analyze bench-analyze-smoke bench-attack bench-verify bench-serve bench-serve-cluster serve-smoke cluster-smoke partition-smoke chaos-cluster attack-smoke chaos experiments reproduce doccheck fuzz cover ci clean

all: build vet test

# Everything the CI workflow runs: formatting, vet, doc lint, build, the
# full race-enabled test suite, vet and tests of the separate perfbench
# module (it builds against this module's packages), one iteration of the
# root verification, simulation, tracing, analysis, .bench codec and
# async job benchmarks, a 10-second pass over every fuzz target (make
# fuzz), the fault-injected chaos smoke, the daemon, cluster and
# partition process-level smokes, and the red-team attack smoke.
ci: doccheck
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test -race ./...
	cd perfbench && $(GO) vet ./... && $(GO) test ./...
	$(MAKE) bench-smoke
	$(MAKE) fuzz FUZZTIME=10s
	$(MAKE) chaos
	$(MAKE) serve-smoke
	$(MAKE) cluster-smoke
	$(MAKE) partition-smoke
	$(MAKE) attack-smoke
	$(MAKE) bench-analyze-smoke

# Chaos smoke: the daemon's fault-injection suite (DESIGN.md §10) under the
# race detector — injected store failures, SAT stalls and budget exhaustion,
# pool saturation — asserting no acknowledged issuance is lost, no slot or
# goroutine leaks, and every degraded response is labeled. The run's metric
# snapshot lands in chaos-metrics.json (CI uploads it as an artifact).
chaos:
	CHAOS_METRICS_OUT=$(CURDIR)/chaos-metrics.json \
		$(GO) test -race -count=1 -run 'TestChaos' ./internal/serve/

# Daemon smoke: start odcfpd, run a concurrent loadgen burst, SIGTERM-drain,
# restart on the same store and prove no issued fingerprint was lost, then
# drive /issue/batch and a durable async job end-to-end, requiring the batch
# path to beat serial issue by ≥5× (scripts/serve_smoke.sh). The
# race-enabled service tests run first.
serve-smoke:
	$(GO) test -race -count=1 ./internal/serve/...
	GO=$(GO) MIN_SPEEDUP=5 scripts/serve_smoke.sh

# Full-size service benchmark: ≥1000 mixed issue/trace requests over 8
# concurrent clients with a mid-run restart, then a 4096-copy async batch
# mint that must beat serial issue by ≥20×; writes BENCH_serve.json.
bench-serve:
	GO=$(GO) MIN_SPEEDUP=20 scripts/serve_smoke.sh 1000 8 BENCH_serve.json 4096

# Red-team smoke: the security-evaluation gates on c432 only — DIP-loop
# IO-indistinguishability certificate, hardening must cut bits-recovered,
# and a live 3-coalition trace against an in-process daemon must keep the
# coalition implicated without accusing innocents (cmd/attackbench -smoke).
attack-smoke:
	$(GO) run ./cmd/attackbench -smoke -o BENCH_attack.json

# Full red-team benchmark over c432/c880/c1355 with the default campaign
# spec: per-circuit bits-recovered vs fingerprint size, unhardened and
# hardened, DIP certificates, and live coalition-trace outcomes for every
# merge strategy; writes BENCH_attack.json (EXPERIMENTS.md security section).
bench-attack:
	$(GO) run ./cmd/attackbench -o BENCH_attack.json

# Cluster smoke: three odcfpd replicas on loopback, a mixed issue/trace load
# across all of them, kill -9 one replica mid-run, then require zero failures
# and full registry convergence on the survivors (scripts/cluster_smoke.sh).
cluster-smoke:
	GO=$(GO) scripts/cluster_smoke.sh 400 8 cluster_smoke.json

# Partition smoke: the in-process partition and bit-flip chaos tests under
# the race detector, then three real odcfpd processes with an armed
# net.partition fault plan severing one replica — the majority must keep
# acking, hinted handoff must drain after the heal, and all three replicas
# must converge without an explicit sync (scripts/partition_smoke.sh). The
# per-replica metric snapshots land in partition-metrics.json (CI artifact).
partition-smoke:
	$(GO) test -race -count=1 -run 'TestChaosClusterPartition|TestChaosClusterScrubBitFlip' ./internal/serve/
	GO=$(GO) scripts/partition_smoke.sh 300 8 partition_smoke.json

# Full partition chaos run: a longer load, a longer partition window and a
# tighter failure budget than the CI smoke, for soak-testing the handoff
# and scrubber paths on dedicated hardware.
chaos-cluster:
	$(GO) test -race -count=5 -run 'TestChaosClusterPartition|TestChaosClusterScrubBitFlip' ./internal/serve/
	GO=$(GO) PART_FOR=8s MAXFAIL=20 scripts/partition_smoke.sh 2000 16 partition_smoke.json

# Cluster benchmark: the BENCH_serve.json `cluster` section. Measures a
# single-node baseline on mature registries (20k preseeded copies per design,
# where the snapshot store pays an O(n) rewrite per issuance), then the same
# load over 4 replicas on the O(1)-append WAL store; fails below a 3× scale.
bench-serve-cluster:
	GO=$(GO) KILL=0 REPLICAS=4 DESIGNS=4 PRESEED=20000 MIN_SCALE=3 \
		scripts/cluster_smoke.sh 2000 16 BENCH_serve.json

# Godoc lint: every package needs a package comment, every exported
# declaration a doc comment (internal/tools/doccheck).
doccheck:
	$(GO) run ./internal/tools/doccheck .

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Regenerate every table/figure of the paper (also: go test -bench=Table2 .)
experiments:
	$(GO) run ./cmd/experiments -all

# Full reproduction pipeline (README "Reproducing the paper's tables"):
# run every experiment, emit the machine-readable manifest, render it to
# Markdown. The tables in EXPERIMENTS.md come from exactly this pipeline.
reproduce:
	$(GO) run ./cmd/experiments -all -report runreport.json
	$(GO) run ./cmd/report -o tables.md runreport.json
	@echo "wrote runreport.json and tables.md"

bench:
	$(GO) test -bench=. -benchmem .

# One iteration of each root benchmark CI exercises: the verification
# engines, embedding issued copies, the simulation kernels, registry
# tracing, snapshot writes and replay, the ODC and SDC analysis scans, the
# .bench reader and writer,
# a trace's suspect → assignment step in .bench and Verilog,
# one 10 000-copy async job through an in-process daemon, and the design
# digest (internal/core). Catches a benchmark that no longer builds or runs.
bench-smoke:
	$(GO) test -run xxx -bench 'BenchmarkVerifyWindows|BenchmarkCertifierCompose|BenchmarkSweepWorking|BenchmarkEmbedExtract|BenchmarkEmbedIssue|BenchmarkVerifySession|BenchmarkVerifyColdCEC|BenchmarkPackedSim|BenchmarkSimRun|BenchmarkExhaustive|BenchmarkTraceScores|BenchmarkTraceResponse|BenchmarkRegistrySave|BenchmarkRegistryAdopt|BenchmarkLocalAppendAfterGC|BenchmarkAnalyze|BenchmarkSDCAnalyze|BenchmarkBenchParse|BenchmarkBenchWrite|BenchmarkTraceExtract|BenchmarkUpload|BenchmarkAsyncJob' -benchtime 1x -benchmem .
	$(GO) test -run xxx -bench '^BenchmarkDesignDigest$$' -benchtime 1x -benchmem ./internal/core/

# Incremental-verification baseline: 64 fingerprint copies through the
# persistent cec.Session vs 64 cold cec.Check miters; writes BENCH_verify.json
# and fails below a 3× speedup or on any verdict mismatch.
bench-verify:
	$(GO) run ./cmd/benchverify

# Analysis-core baseline: packed Analyze vs the reference baseline scan;
# writes BENCH_analyze.json and fails below a 10× cold speedup on c7552.
bench-analyze:
	$(GO) run ./cmd/benchanalyze -min-cold 10

# CI smoke variant: the two smaller circuits only, with the cold gate relaxed
# to 3× so shared CI runners don't flake; the full gate above runs on
# dedicated hardware.
bench-analyze-smoke:
	$(GO) run ./cmd/benchanalyze -circuits c880,c5315 -min-cold 3

cover:
	$(GO) test -cover ./...

# Every fuzz target, as package:target: the three netlist parsers, the
# .bench codec against its legacy oracle, the netlist text writer, the
# red-team campaign-spec reader, the hand-written trace JSON appender and
# registry snapshots (against encoding/json), the registry snapshot reader
# (every loaded snapshot round-trips), and the SAT solver (against brute
# force, and Reset against New). This is the one list; make ci and
# the CI workflow run it through make fuzz FUZZTIME=10s.
FUZZ_TARGETS = \
	internal/blif:FuzzParse \
	internal/verilog:FuzzParse \
	internal/benchfmt:FuzzParse \
	internal/benchfmt:FuzzParseMatchesLegacy \
	internal/circuit:FuzzText \
	internal/redteam:FuzzParseSpec \
	internal/serve:FuzzAppendJSON \
	internal/registry:FuzzSnapshotJSON \
	internal/registry:FuzzSnapshotLoad \
	internal/sat:FuzzSolve
FUZZTIME ?= 30s

# Fuzz every target in FUZZ_TARGETS for FUZZTIME each.
fuzz:
	@set -e; for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; fn=$${t##*:}; \
		echo "$(GO) test -run '^$$fn\$$' -fuzz '^$$fn\$$' -fuzztime=$(FUZZTIME) ./$$pkg/"; \
		$(GO) test -run "^$$fn\$$" -fuzz "^$$fn\$$" -fuzztime=$(FUZZTIME) ./$$pkg/; \
	done

# Removes only untracked run artifacts. The BENCH_*.json baselines and the
# seed corpora under internal/*/testdata/fuzz are committed and stay.
clean:
	rm -f runreport.json tables.md chaos-metrics.json serve_smoke.json cluster_smoke.json partition_smoke.json partition-metrics.json
