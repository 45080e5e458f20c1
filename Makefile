GO ?= go

.PHONY: build test vet race verify inline-check loc closure-prop obs-smoke stress cluster-chaos cluster-tcp bench-module docs-check fuzz bench bench-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# race runs the whole suite under the race detector — the supervision code
# (bgp.Feed, the multi-connection IPFIX ServeBatch, faultnet) is
# concurrent, so this is the tier the resilience layer is gated on.
race:
	$(GO) test -race ./...

# verify is the CI entry point: static checks, the inliner's report on the
# aggregate's per-flow fold, the plain suite (tier-1's
# command — the allocation-count tests skip under the race detector, so this
# is the pass that holds them), the race-checked suite, the
# topology property tests, the observability smoke, the
# stress run (ingest queue, drain engine, shard book, IPFIX transports, BGP feed), the cluster chaos suite (with its
# observability plane), every benchmark in the module run once, the
# identifier check over the docs, and the nested benchmark module's own vet
# and tests.
verify: vet inline-check test race closure-prop obs-smoke stress cluster-chaos cluster-tcp bench-smoke docs-check bench-module

# inline-check holds Aggregator.Add's per-flow fold free of calls on its
# common path: the compiler (go build -gcflags=-m) must report the tally
# pages' fast path, (*portPage).addFast, inlined at all three tally sites in
# (*Aggregator).Add — the size add and the two port adds — and classesInto
# inlinable. Either one pushed over the inliner's budget of 80 would put a
# call back on every flow, which no test sees and a benchmark sees only as a
# slower fold.
inline-check:
	@out=$$($(GO) build -gcflags=-m ./internal/core 2>&1) || { echo "$$out"; exit 1; }; \
	src=internal/core/aggregate.go; \
	lo=$$(grep -n '^func (a \*Aggregator) Add(' $$src | cut -d: -f1); \
	hi=$$(awk -v lo="$$lo" 'NR > lo && /^}/ { print NR; exit }' $$src); \
	sites=$$(echo "$$out" | grep -F ': inlining call to (*portPage).addFast' | grep "^$$src:" | \
		awk -F: -v lo="$$lo" -v hi="$$hi" '$$2 > lo && $$2 < hi { print $$2 ":" $$3 }' | sort -u | wc -l); \
	fail=0; \
	[ -n "$$lo" ] && [ "$$sites" -eq 3 ] || { echo "inline-check: (*portPage).addFast is inlined at $$sites of the 3 tally sites in (*Aggregator).Add"; fail=1; }; \
	echo "$$out" | grep -qF 'can inline classesInto' || { echo "inline-check: classesInto is not inlinable"; fail=1; }; \
	exit $$fail

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
# path, or its tail from any /), every Test*/Benchmark*/Fuzz* name is
# declared in a tracked _test.go (by prefix when written with a trailing *),
# and every spoofscope_* metric name is a string literal in tracked non-test
# Go (a _bucket/_count/_sum suffix stripped; by prefix with a trailing *).
# Directories resolve too: every `go run ./<dir>`, in a span or a fenced
# block (a dot-directory is a throwaway probe, not part of the tree), and
# every backticked path under cmd, internal or examples, up to its last
# component that is not a file name, is a tracked directory.
# Go names resolve too (TestDocSpansResolve, which parses the tree's non-test
# Go): every backticked pkg.Func, pkg.Type.Method and Type.Method is declared,
# a member on its type or on a type it embeds or aliases.
# The second tree guard, TestNoTestOnlyAPI (docs_test.go, run by test and
# race), type-checks both modules' non-test Go and fails on an exported
# internal/ function or method that only tests call, unless it implements
# an interface or is on its allowlist with a reason.
# EXPERIMENTS.md and CHANGES.md are history and name what is gone on purpose.
docs-check:
	@set -f; fail=0; files=$$(git ls-files); \
	docs="README.md DESIGN.md .claude/skills/verify/SKILL.md"; \
	spans=$$(grep -oh '`[^`]*`' $$docs); \
	for d in $$( { grep -ohE 'go run \./[A-Za-z0-9][A-Za-z0-9_/-]*' $$docs | cut -c10- | sed 's:/*$$::'; \
		echo "$$spans" | grep -oP '(?<![\w./-])(cmd|internal|examples)(/[\w-]+)+(?![\w.-])'; } | sort -u); do \
		echo "$$files" | grep -q "^$$d/" || { echo "docs-check: $$d is not a tracked directory"; fail=1; }; \
	done; \
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
	for m in $$(echo "$$spans" | grep -oP '\bspoofscope_[a-z0-9_]+(?![\w.])\*?' | sort -u); do \
		case $$m in *\*) pat="\"$${m%\*}";; *) pat="\"$$(echo $$m | sed -E 's/_(bucket|count|sum)$$//')\"";; esac; \
		git grep -qF "$$pat" -- '*.go' ':!*_test.go' || { echo "docs-check: $$m is not a metric name in tracked non-test Go"; fail=1; }; \
	done; \
	exit $$fail
	$(GO) test -run '^TestDocSpansResolve$$' -count=1 .

# loc prints the Go line counts ROADMAP quotes at every re-anchor: non-test
# and test lines for the root module, and for the nested benchmark module.
loc:
	@printf 'root non-test  %6d\n' $$(find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' | xargs cat | wc -l)
	@printf 'root tests     %6d\n' $$(find . -name '*_test.go' -not -path './benchmark/*' | xargs cat | wc -l)
	@printf 'bench non-test %6d\n' $$(find benchmark -name '*.go' -not -name '*_test.go' | xargs cat | wc -l)
	@printf 'bench tests    %6d\n' $$(find benchmark -name '*_test.go' | xargs cat | wc -l)

# closure-prop runs the topology property tests explicitly: on random
# cyclic topologies, with and without an org mesh, every AS's cone walks
# (Full Cone and Customer Cone, unbounded and cut at depths 0/1/2) must match
# the SCC closure kept as their oracle and the frontier BFS; the closures
# Figure 2 and the §3.4 check build from those walks must give the oracle's
# cone members, ConeSize, WeightedSizes and ExactValidSpace for every AS,
# there and on the default-scale scenario; the counting-scatter naive
# index must match its map-based oracle (per-AS prefix sets, announcements
# shuffled and in prefix order); NewGraph must build the graph the old
# mutable graph's constructor, org mesh, extra links and inference built,
# kept as the oracle (each AS's directed edges, Degree, and the relationship
# of every linked pair, on random topologies with orgs and extra links and
# on the default-scale scenario); the graph's flat ASN dictionary must answer
# Index with each AS's position in the sorted ASN list and -1 for absent
# ASNs (4-byte ASNs, AS 0 and colliding hashes included); and the packed
# sort keys' width check holds at its boundary. In the classifier, every
# member's naive row, filled by one walk of the table, must hold exactly the
# origin-slab entries of the naive index's prefixes for its AS, in all three
# reuse tiers (TestMemberNaiveRows: two ports of one AS, an AS absent from
# BGP, AS 0 on a path, an AS new to a reused build). They are in the race
# suite too; the dedicated target keeps the equivalence gate visible in CI
# logs.
closure-prop:
	$(GO) test -race -run 'TestConeWalksMatchClosures|TestClosureMatchesOracle|TestNaiveIndexMatchesOracle|TestNewGraphMatchesOracle|TestGraphIndexMatchesOracle|TestPackedKeyWidthBoundary' -count=1 ./internal/astopo
	$(GO) test -race -run 'TestMemberNaiveRows' -count=1 ./internal/core

# obs-smoke drives a live parallel run with telemetry enabled and asserts the
# /metrics scrape matches the Aggregator exactly and /healthz walks
# unready -> ok (see obs_smoke_test.go).
obs-smoke:
	$(GO) test -race -run TestObsSmoke -count=1 .

# stress repeats the tests whose outcome depends on an interleaving under the
# race detector, twenty times. The drain engine's: where a batch lands — in
# place, or in a worker's private shard — depends on who holds the aggregate
# lock at that instant, so one pass sees only a few of the interleavings;
# twenty see enough that a fold or quiescence bug which needs a particular one
# does not get through. The ingest queue's: its burst wake, backpressure,
# close and concurrent-stats tests, where producer, consumers and readers
# race for the queue lock. The shard book's: its own tests and fuzz seeds, the
# worker's end of the liveness rule, and the cluster equivalence table, whose
# rows fire a kill, stall, partition or restart at a chosen point of the feed
# on the cluster's virtual clock, where the link goroutines still race the
# ticks. The worker's: its lock decides whether a report lands before or
# after a flow frame, so the report tests run here too. The IPFIX
# transports': the stream framing loop that file replays and TCP connections
# share, the file reader, and the TCP and UDP collectors, whose connection
# handlers, Shutdown/Close and stats readers race one another. The BGP
# feed's: its supervision loop against the peer's resets, a cancelled
# backoff and the stats and metric readers.
stress:
	$(GO) test -race -count=20 -run 'Queue|RunParallel|Drain|Spill|Merge|Reset' ./internal/core
	$(GO) test -race -count=20 -run 'Book|WorkerLiveness|TCPChaos|ChaosHandoffSpans|AuthDropsSilent|Report|CheckpointAsksEachShardOnce|ClusterMatchesSingleProcess' ./internal/cluster
	$(GO) test -race -count=20 -run 'ServeStream|FileReader|Collector' ./internal/ipfix
	$(GO) test -race -count=20 -run 'Feed|Reconnector' ./internal/bgp

# cluster-chaos is the fault-tolerance gate: the equivalence table
# (TestClusterMatchesSingleProcess) kills, stalls, partitions and drops
# workers mid-feed, restarts the coordinator from its ledger, joins a worker
# late, bumps the epoch (and loses an unsaved bump with the coordinator) and
# resumes a prior run, on the test flows and on the simulated IXP's traffic,
# all on the virtual clock — every row must produce a merged checkpoint
# byte-identical to the fault-free single-process run. Beside it, the report
# protocol's ordering: a report request trails its shard's queued flows
# (TestReportRequestTrailsItsFlows), so one report round completes a
# checkpoint on a clock that stands still (TestCheckpointAsksEachShardOnce).
# Raced, because the shell around the shard book is concurrent by
# construction. It carries the observability plane too:
# two TCP worker daemons whose own /metrics sum to the merged tallies and
# whose /cluster rows match the shard ledger, and a kill+partition run whose
# concurrently read fleet status never moves a cursor backwards and whose
# handoff spans all terminate. The cluster-tcp prerequisite reruns the
# discipline over real loopback TCP.
cluster-chaos: cluster-tcp
	$(GO) test -race -timeout 120s -run 'TestClusterMatchesSingleProcess|TestReportRequestTrailsItsFlows|TestCheckpointAsksEachShardOnce|TestFleetStatusMatchesLedger|TestChaosHandoffSpans' -count=1 ./internal/cluster

# cluster-tcp is the deployment-transport gate: the chaos and failover
# scenarios again, but over real loopback TCP with authenticated hellos —
# a link silenced mid-feed and declared dead on the virtual clock, an
# injected accept failure on its redial, and a warm-standby takeover — beside
# the equivalence table's coordinator-kill row, a SIGKILL-equivalent
# coordinator death resumed from the shard ledger. Byte-identity against the
# fault-free single-process run is the bar in every scenario.
cluster-tcp:
	$(GO) test -race -timeout 120s -run 'TestClusterTCPChaos|TestStandbyTakeover|TestClusterMatchesSingleProcess/^coordinator-kill$$' -count=1 ./internal/cluster

# bench is the quick way to look at one function while working: the drain at
# every worker count of 1/2/4/8 the host's GOMAXPROCS can run, the ingest
# path (wire-image IPFIX decode -> batched queue -> drain -> classify ->
# aggregate), pipeline compilation in each reuse tier (cold at GOMAXPROCS
# 1/2/4/8, up to the host's CPU count, then reused-closures and
# reused-pipeline, at paper and ~50K-AS full-table scale) beside an MRT load
# into a RIB, both with their allocation counts, the checkpoint codec
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
	$(GO) test -run='^$$' -bench='^(BenchmarkPipelineBuild|BenchmarkMRTLoad)$$' -benchtime=1x -benchmem .
	$(GO) test -run='^$$' -bench=BenchmarkClassifyHotPath -benchtime=2s -benchmem .

# bench-smoke is the row-existence check: every benchmark in the module runs
# once and the target fails if one panics or b.Fatals. -short picks
# BenchmarkPipelineBuild's reduced scales.
bench-smoke:
	$(GO) test -short -run='^$$' -bench=. -benchtime=1x ./...

# fuzz gives every fuzzer in the module a short adversarial workout beyond
# the seeded corpus that runs in `make test`. Minimizing a new input is
# capped at 2s: at the default 60s one slow minimization can eat most of a
# fuzzer's budget. A fuzzer whose final status line reads fewer than 1,000
# execs fails the target: a run that stalls (one slow input, a hung worker)
# would otherwise pass having tested next to nothing.

# fuzz-run runs fuzzer $(1) in package $(2) for 20s and checks its exec floor.
define fuzz-run
	@out=$$($(GO) test -run=^$$ -fuzz=$(1) -fuzztime=20s -fuzzminimizetime=2s $(2) 2>&1); st=$$?; echo "$$out"; \
	[ $$st -eq 0 ] || exit $$st; \
	n=$$(echo "$$out" | grep -o 'execs: [0-9]*' | tail -1 | cut -d' ' -f2); \
	[ "$${n:-0}" -ge 1000 ] || { echo "fuzz: $(1) ran $${n:-0} execs, under the floor of 1000"; exit 1; }
endef

fuzz:
	$(call fuzz-run,FuzzFlatLPM,./internal/netx)
	$(call fuzz-run,FuzzServeStream,./internal/ipfix)
	$(call fuzz-run,FuzzUnmarshalUpdate,./internal/bgp)
	$(call fuzz-run,FuzzMRT,./internal/bgp)
	$(call fuzz-run,FuzzSession,./internal/bgp)
	$(call fuzz-run,FuzzDecodeCheckpoint,./internal/core)
	$(call fuzz-run,FuzzDecodeFrame,./internal/cluster)
	$(call fuzz-run,FuzzDecodeLedger,./internal/cluster)
	$(call fuzz-run,FuzzShardBook,./internal/cluster)
