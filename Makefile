GO ?= go

.PHONY: build test vet race verify loc closure-prop obs-smoke stress-drain cluster-chaos cluster-tcp cluster-obs bench-module docs-check fuzz bench bench-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# race runs the whole suite under the race detector — the supervision code
# (bgp.Reconnector, the multi-connection IPFIX ServeBatch, faultnet) is
# concurrent, so this is the tier the resilience layer is gated on.
race:
	$(GO) test -race ./...

# verify is the CI entry point: static checks, the plain suite (tier-1's
# command — the allocation-count tests skip under the race detector, so this
# is the pass that holds them), the race-checked suite, the
# parallel-compilation equivalence property, the observability smoke, the
# drain-engine stress run, the cluster chaos suite, the cluster
# observability-plane gate, every benchmark in the module run once, the
# identifier check over the docs, and the nested benchmark module's own vet
# and tests.
verify: vet test race closure-prop obs-smoke stress-drain cluster-chaos cluster-tcp cluster-obs bench-smoke docs-check bench-module

# bench-module vets and tests the repository benchmark where it lives:
# benchmark/ is a nested module (its go.mod has only the replace, so no
# network), which the root ./... patterns above do not descend into although
# it imports internal/ packages — an API subtraction that breaks it fails
# here, on the builder's machine, not first in CI.
bench-module:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# docs-check resolves what the documents that describe the tree as it is name
# in backticks against the tree: every `make <target>` is a target of this
# file, every token ending .go/.json/.md/.sh/.yml is a tracked file (whole
# path, or its tail from any /), and every Test*/Benchmark*/Fuzz* name is
# declared in a tracked _test.go (by prefix when written with a trailing *).
# EXPERIMENTS.md and CHANGES.md are history and name what is gone on purpose.
docs-check:
	@fail=0; files=$$(git ls-files); \
	spans=$$(grep -oh '`[^`]*`' README.md DESIGN.md .claude/skills/verify/SKILL.md); \
	for t in $$(echo "$$spans" | grep -oE '^`make [a-z][a-z-]*' | cut -d' ' -f2 | sort -u); do \
		grep -q "^$$t:" Makefile || { echo "docs-check: make $$t is not a Makefile target"; fail=1; }; \
	done; \
	for f in $$(echo "$$spans" | grep -oP '(?<![\w.*/-])[A-Za-z0-9][\w./-]*\.(go|json|md|sh|yml)\b' | sort -u); do \
		echo "$$files" | grep -qE "(^|/)$$f$$" || { echo "docs-check: $$f is not a tracked file"; fail=1; }; \
	done; \
	for n in $$(echo "$$spans" | grep -oE '\b(Test|Benchmark|Fuzz)[A-Z][A-Za-z0-9_]*\*?' | sort -u); do \
		case $$n in *\*) pat="^func $${n%\*}";; *) pat="^func $$n\(";; esac; \
		git grep -qE "$$pat" -- '*_test.go' || { echo "docs-check: $$n is not declared in a tracked _test.go"; fail=1; }; \
	done; \
	exit $$fail

# loc prints the Go line counts ROADMAP quotes at every re-anchor: non-test
# and test lines for the root module, and for the nested benchmark module.
loc:
	@printf 'root non-test  %6d\n' $$(find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' | xargs cat | wc -l)
	@printf 'root tests     %6d\n' $$(find . -name '*_test.go' -not -path './benchmark/*' | xargs cat | wc -l)
	@printf 'bench non-test %6d\n' $$(find benchmark -name '*.go' -not -name '*_test.go' | xargs cat | wc -l)
	@printf 'bench tests    %6d\n' $$(find benchmark -name '*_test.go' | xargs cat | wc -l)

# closure-prop runs the parallel-closure property tests explicitly (random
# cyclic topologies: ConeClosures at 1/2/4/8 workers must match the
# sequential constructors element-for-element). They are in the race suite
# too; the dedicated target keeps the equivalence gate visible in CI logs.
closure-prop:
	$(GO) test -race -run 'TestConeClosures' -count=1 ./internal/astopo

# obs-smoke drives a live parallel run with telemetry enabled and asserts the
# /metrics scrape matches the Aggregator exactly and /healthz walks
# unready -> ok (see obs_smoke_test.go).
obs-smoke:
	$(GO) test -race -run TestObsSmoke -count=1 .

# stress-drain repeats the drain engine's tests under the race detector:
# where a batch lands — in place, or in a worker's private shard — depends on
# who holds the aggregate lock at that instant, so one pass sees only a few
# of the interleavings; twenty see enough that a fold or quiescence bug which
# needs a particular one does not get through.
stress-drain:
	$(GO) test -race -count=20 -run 'RunParallel|Drain|Spill|Merge|Reset' ./internal/core

# cluster-chaos is the fault-tolerance gate: kill/stall/partition workers
# mid-run (internal/cluster chaos suite) plus the end-to-end acceptance run
# over the simulated IXP — every scenario must produce a merged checkpoint
# byte-identical to the fault-free single-process run. Raced, because the
# whole layer is concurrent by construction. The cluster-tcp prerequisite
# reruns the discipline over real loopback TCP.
cluster-chaos: cluster-tcp
	$(GO) test -race -run 'TestClusterSurvives|TestClusterRepeatedKillsConverge' -count=1 ./internal/cluster
	$(GO) test -race -run TestResilientClusterMatchesSingleProcess -count=1 .

# cluster-tcp is the deployment-transport gate: the chaos and failover
# scenarios again, but over real loopback TCP with authenticated hellos —
# a stalled link, an injected accept failure, a SIGKILL-equivalent
# coordinator death resumed from the shard ledger, and a warm-standby
# takeover. Byte-identity against the fault-free single-process run is the
# bar in every scenario.
cluster-tcp:
	$(GO) test -race -timeout 120s -run 'TestClusterTCPChaos|TestStandbyTakeover|TestClusterSurvivesCoordinatorKill' -count=1 ./internal/cluster

# cluster-obs is the observability-plane gate: a two-TCP-worker run whose
# federated per-class counters must converge to the merged checkpoint
# tallies exactly (with populated epoch-propagation histograms and a fleet
# status that matches the shard ledger), plus the chaos-scrape run — a
# worker killed mid-flight while a concurrent scraper asserts the fleet-wide
# sums never overshoot the final truth and every handoff span that opened
# was closed. Raced, like every cluster tier.
cluster-obs:
	$(GO) test -race -timeout 120s -run 'TestClusterTelemetryFederation|TestChaosScrapeConsistency' -count=1 ./internal/cluster

# bench is the quick way to look at one function while working: the drain at
# every worker count of 1/2/4/8 the host's GOMAXPROCS can run, the ingest
# path (wire-image IPFIX decode -> batched queue -> drain -> classify ->
# aggregate), pipeline compilation (cold at 1/2/4/8 build workers and
# incremental, at paper and ~50K-AS full-table scale), the checkpoint codec
# (encode/decode × typical/attack-shaped state), the spill episode and the
# single-core classify hot path, printed as `go test` prints them. It records
# nothing and gates nothing: a mean from one process moves with the host, so
# timings are claimed with the repository benchmark (benchmark/README.md,
# paired medians against the parent commit) and counts are `go test`
# assertions.
bench:
	$(GO) test -run='^$$' -bench=BenchmarkRuntimeThroughput -benchtime=3x .
	$(GO) test -run='^$$' -bench=BenchmarkIngestPath -benchtime=10x -benchmem .
	$(GO) test -run='^$$' -bench=BenchmarkCheckpointCodec -benchtime=50x -benchmem .
	$(GO) test -run='^$$' -bench=BenchmarkMergeSpill -benchtime=20000x -benchmem .
	$(GO) test -run='^$$' -bench=BenchmarkPipelineBuild -benchtime=1x .
	$(GO) test -run='^$$' -bench=BenchmarkClassifyHotPath -benchtime=2s -benchmem .

# bench-smoke is the row-existence check: every benchmark in the module runs
# once and the target fails if one panics or b.Fatals. -short picks
# BenchmarkPipelineBuild's reduced scales.
bench-smoke:
	$(GO) test -short -run='^$$' -bench=. -benchtime=1x ./...

# fuzz gives the stream-framing paths a short adversarial workout beyond the
# seeded corpus that runs in `make test`.
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzServeStream -fuzztime=20s ./internal/ipfix
	$(GO) test -run=^$$ -fuzz=FuzzUnmarshalUpdate -fuzztime=20s ./internal/bgp
	$(GO) test -run=^$$ -fuzz=FuzzMRT -fuzztime=20s ./internal/bgp
	$(GO) test -run=^$$ -fuzz=FuzzDecodeCheckpoint -fuzztime=20s ./internal/core
