// Command benchjson converts `go test -bench` text output on stdin into a
// machine-readable JSON document on stdout, so benchmark baselines can be
// committed and diffed (`make bench` pipes the runtime-throughput and
// pipeline-build benchmarks through it into BENCH_runtime.json).
//
//	go test -run='^$' -bench=BenchmarkRuntimeThroughput . | benchjson > BENCH_runtime.json
//
// Each benchmark line ("BenchmarkX/sub-N  iters  value unit  value unit...")
// becomes one entry with its metric pairs keyed by unit; the goos/goarch/
// pkg/cpu header lines and the recording host's CPU count are carried into
// the document header, so a baseline measured on a single-core box cannot be
// mistaken for one with real parallelism.
//
// BenchmarkCheckpointCodec/<op>/<shape> entries are lifted into a codec
// section — the checkpoint stage's line of the per-stage ledger — and
// BenchmarkMergeSpill into a merge section, the spill episode's.
//
// With -diff <baseline.json> the tool compares instead of emitting: the
// classify hot-path entries parsed from stdin are checked against the
// committed baseline's classify section and the exit status is non-zero when
// any variant's flows/sec regressed by more than 15% (`make bench-compare`).
// When the baseline has a runtime section, the live-drain gate runs as well:
// every RuntimeThroughput variant and the end-to-end IngestPath entry must
// reappear, lose no more than 15% flows/sec, and the ingest entry must keep
// its effectively-zero allocs/op (cap 512 per whole-trace replay). When it
// has a codec section, every checkpoint-codec variant must reappear and lose
// no more than 15% MB/s; when it has a merge section, the same for the spill
// episode's flows/sec, and its allocs/op must be exactly 0. -smoke relaxes the
// comparisons to a structural check — every baseline variant must still be
// produced by the fresh run, but single-iteration timings are reported
// without being judged — which is what `make verify` and CI run. The spill
// episode's zero is a count, not a timing, so -smoke holds it too.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

type benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// latencySummary surfaces the sampled classify-latency quantiles emitted by
// the telemetry-enabled benchmark variants (classify-p50-ns / classify-p99-ns
// custom metrics) as a first-class section, so the committed baseline tracks
// classification latency alongside throughput.
type latencySummary struct {
	Benchmark string  `json:"benchmark"`
	P50ns     float64 `json:"classifyP50ns"`
	P99ns     float64 `json:"classifyP99ns"`
}

// buildSummary surfaces the pipeline-compilation benchmark
// (BenchmarkPipelineBuild/<scale>/<variant>) as a first-class section: one
// entry per scale/variant with the build latency in seconds and the table
// size (ases custom metric), so the committed baseline tracks epoch-rebuild
// cost alongside classification throughput. The header's numCPU/goMaxProcs
// qualify the cold-wN variants: on a single-core recorder every worker count
// clamps to sequential.
type buildSummary struct {
	Benchmark string  `json:"benchmark"`
	Scale     string  `json:"scale"`
	Variant   string  `json:"variant"`
	Seconds   float64 `json:"seconds"`
	ASes      float64 `json:"ases,omitempty"`
}

// classifySummary surfaces the single-core classify hot-path benchmark
// (BenchmarkClassifyHotPath/<path>-flat) as a first-class section: one entry
// per API path (perflow/batch256) with its ns/flow, flows/sec, and
// steady-state allocations. This is the section `benchjson -diff` guards:
// the batch path is the live runtime's consumption loop, so a throughput
// regression here is a production regression.
type classifySummary struct {
	Benchmark   string  `json:"benchmark"`
	Path        string  `json:"path"` // "perflow" or "batch256"
	NsPerFlow   float64 `json:"nsPerFlow"`
	FlowsPerSec float64 `json:"flowsPerSec"`
	AllocsPerOp float64 `json:"allocsPerOp"`
}

// runtimeSummary surfaces the live-runtime drain benchmarks as a first-class
// section: one entry per BenchmarkRuntimeThroughput/<variant> (parallel-N
// and its -telemetry twin) plus the end-to-end ingest-path entry
// (BenchmarkIngestPath: wire bytes -> decode-into-batch -> queue -> drain ->
// classify -> aggregate, variant "ingest"). `benchjson -diff` gates
// this section: a variant whose flows/sec fell more than 15% below baseline
// fails, and the ingest variant's allocs/op must stay effectively zero — one
// replay decodes thousands of messages, so even a single per-message
// allocation lands orders of magnitude above ingestAllocTolerance.
type runtimeSummary struct {
	Benchmark   string  `json:"benchmark"`
	Variant     string  `json:"variant"`
	FlowsPerSec float64 `json:"flowsPerSec"`
	NsPerFlow   float64 `json:"nsPerFlow,omitempty"`
	AllocsPerOp float64 `json:"allocsPerOp"`
}

// codecSummary surfaces one BenchmarkCheckpointCodec/<op>/<shape> entry: the
// canonical checkpoint codec over one full trace's state (typical mix or
// attack-shaped), encode or decode. `benchjson -diff` gates MB/s; allocs/op
// is recorded because the codec's contract is a count per container, not per
// field.
type codecSummary struct {
	Benchmark   string  `json:"benchmark"`
	Op          string  `json:"op"`    // "encode" or "decode"
	Shape       string  `json:"shape"` // "mixed" or "attack"
	NsPerOp     float64 `json:"nsPerOp"`
	MBPerSec    float64 `json:"mbPerSec"`
	AllocsPerOp float64 `json:"allocsPerOp"`
}

// mergeSummary surfaces BenchmarkMergeSpill: one drain worker's spill episode
// — refill the recycled private shard with a 256-flow batch, fold it into a
// warm full-trace aggregate, Reset it — which is what a contended batch
// costs. `benchjson -diff` gates flows/sec, and allocs/op at exactly 0.
type mergeSummary struct {
	Benchmark   string  `json:"benchmark"`
	NsPerOp     float64 `json:"nsPerOp"`
	FlowsPerSec float64 `json:"flowsPerSec"`
	AllocsPerOp float64 `json:"allocsPerOp"`
}

type document struct {
	GeneratedAt time.Time         `json:"generatedAt"`
	GoVersion   string            `json:"goVersion"`
	NumCPU      int               `json:"numCPU"`
	GoMaxProcs  int               `json:"goMaxProcs"`
	Env         map[string]string `json:"env,omitempty"`
	Benchmarks  []benchmark       `json:"benchmarks"`
	Latency     []latencySummary  `json:"latency,omitempty"`
	Build       []buildSummary    `json:"build,omitempty"`
	Classify    []classifySummary `json:"classify,omitempty"`
	Runtime     []runtimeSummary  `json:"runtime,omitempty"`
	Codec       []codecSummary    `json:"codec,omitempty"`
	Merge       []mergeSummary    `json:"merge,omitempty"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	diffPath := flag.String("diff", "", "compare the classify section parsed from stdin against this committed baseline instead of emitting JSON; exit non-zero on a >15% flows/sec regression")
	smoke := flag.Bool("smoke", false, "with -diff: check structure only (every baseline classify variant must reappear), never fail on the numbers")
	flag.Parse()
	doc := document{
		GeneratedAt: time.Now().UTC().Truncate(time.Second),
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Env:         map[string]string{},
	}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if b, ok := parseBenchLine(line); ok {
			doc.Benchmarks = append(doc.Benchmarks, b)
			continue
		}
		// Header lines: "goos: linux", "cpu: ...", etc.
		if k, v, ok := strings.Cut(line, ": "); ok && !strings.Contains(k, " ") {
			doc.Env[k] = v
		}
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
	if len(doc.Benchmarks) == 0 {
		log.Fatal("no benchmark lines on stdin")
	}
	for _, b := range doc.Benchmarks {
		p50, ok50 := b.Metrics["classify-p50-ns"]
		p99, ok99 := b.Metrics["classify-p99-ns"]
		if ok50 || ok99 {
			doc.Latency = append(doc.Latency, latencySummary{
				Benchmark: b.Name, P50ns: p50, P99ns: p99,
			})
		}
		if bs, ok := parseBuildEntry(b); ok {
			doc.Build = append(doc.Build, bs)
		}
		if cl, ok := parseClassifyEntry(b); ok {
			doc.Classify = append(doc.Classify, cl)
		}
		if rs, ok := parseRuntimeEntry(b); ok {
			doc.Runtime = append(doc.Runtime, rs)
		}
		if cs, ok := parseCodecEntry(b); ok {
			doc.Codec = append(doc.Codec, cs)
		}
		if stripProcs(b.Name) == "BenchmarkMergeSpill" {
			doc.Merge = append(doc.Merge, mergeSummary{
				Benchmark: b.Name, NsPerOp: b.Metrics["ns/op"],
				FlowsPerSec: b.Metrics["flows/sec"], AllocsPerOp: b.Metrics["allocs/op"],
			})
		}
	}
	if *diffPath != "" {
		if err := diffClassify(*diffPath, doc, *smoke); err != nil {
			log.Fatal(err)
		}
		return
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		log.Fatal(err)
	}
}

// regressionTolerance is the fraction of baseline classify throughput a
// fresh measurement may lose before `benchjson -diff` fails the build.
const regressionTolerance = 0.15

// ingestAllocTolerance caps BenchmarkIngestPath's allocs/op. One op replays
// the whole default-scale trace (~6,900 IPFIX messages, ~440K flows), so a
// single per-message allocation anywhere on the ingest path would report
// thousands; the cap absorbs only fixed warm-up residue (goroutine stack
// growth, rare map rehash) while still failing on any per-message or
// per-flow allocation.
const ingestAllocTolerance = 512

// diffClassify compares the classify entries of a fresh run (doc, parsed
// from stdin) against the committed baseline at path. Every baseline
// variant must reappear in the fresh run (a vanished benchmark is a broken
// gate either way); in full mode a variant whose flows/sec fell more than
// regressionTolerance below baseline fails, in smoke mode the numbers are
// printed but not judged — single-iteration CI runs measure nothing.
//
// When the baseline carries a runtime section, the live-drain gate runs
// too: every baseline variant (parallel-N drains and the end-to-end ingest
// replay) must reappear, full mode fails a variant whose flows/sec fell more
// than regressionTolerance, and the ingest variant additionally fails past ingestAllocTolerance allocs per whole-trace
// replay — the committed proof that the decode→queue→drain path stays
// allocation-free in steady state.
//
// When the baseline carries a codec section, every checkpoint-codec variant
// must reappear, and full mode fails one whose MB/s fell more than
// regressionTolerance; a merge section gates the spill episode's flows/sec the
// same way, and fails — in smoke mode too, since it is a count — an episode
// that allocates at all.
func diffClassify(path string, doc document, smoke bool) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("baseline: %w (regenerate with `make bench`)", err)
	}
	var base document
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
	}
	if len(base.Classify) == 0 {
		return fmt.Errorf("baseline %s has no classify section; regenerate with `make bench`", path)
	}
	if len(doc.Classify) == 0 {
		return fmt.Errorf("no BenchmarkClassifyHotPath entries on stdin")
	}
	fresh := make(map[string]classifySummary, len(doc.Classify))
	for _, c := range doc.Classify {
		fresh[c.Path] = c
	}
	var failures []string
	for _, b := range base.Classify {
		key := b.Path
		c, ok := fresh[key]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: missing from this run", key))
			continue
		}
		delta, status, regressed := judge(smoke, b.FlowsPerSec, c.FlowsPerSec)
		if regressed {
			failures = append(failures, fmt.Sprintf("%s: %.0f -> %.0f flows/sec (%.1f%%)",
				key, b.FlowsPerSec, c.FlowsPerSec, 100*delta))
		}
		fmt.Printf("classify %-14s %12.0f -> %12.0f flows/sec  %+6.1f%%  %s\n",
			key, b.FlowsPerSec, c.FlowsPerSec, 100*delta, status)
	}
	if len(base.Runtime) > 0 {
		freshRt := make(map[string]runtimeSummary, len(doc.Runtime))
		for _, r := range doc.Runtime {
			freshRt[r.Variant] = r
		}
		for _, b := range base.Runtime {
			r, ok := freshRt[b.Variant]
			if !ok {
				failures = append(failures, fmt.Sprintf("runtime %s: missing from this run", b.Variant))
				continue
			}
			delta, status, regressed := judge(smoke, b.FlowsPerSec, r.FlowsPerSec)
			if regressed {
				failures = append(failures, fmt.Sprintf("runtime %s: %.0f -> %.0f flows/sec (%.1f%%)",
					b.Variant, b.FlowsPerSec, r.FlowsPerSec, 100*delta))
			}
			if b.Variant == "ingest" && !smoke && r.AllocsPerOp > ingestAllocTolerance {
				status = "ALLOCS"
				failures = append(failures, fmt.Sprintf(
					"runtime ingest: %.0f allocs per trace replay (cap %.0f) — the zero-alloc ingest contract is broken",
					r.AllocsPerOp, float64(ingestAllocTolerance)))
			}
			fmt.Printf("runtime  %-20s %12.0f -> %12.0f flows/sec  %+6.1f%%  %s\n",
				b.Variant, b.FlowsPerSec, r.FlowsPerSec, 100*delta, status)
		}
	}
	if len(base.Merge) > 0 {
		if len(doc.Merge) == 0 {
			failures = append(failures, "merge: BenchmarkMergeSpill missing from this run")
		} else {
			b, m := base.Merge[len(base.Merge)-1], doc.Merge[len(doc.Merge)-1]
			delta, status, regressed := judge(smoke, b.FlowsPerSec, m.FlowsPerSec)
			if regressed {
				failures = append(failures, fmt.Sprintf("merge spill: %.0f -> %.0f flows/sec (%.1f%%)",
					b.FlowsPerSec, m.FlowsPerSec, 100*delta))
			}
			if m.AllocsPerOp != 0 {
				status = "ALLOCS"
				failures = append(failures, fmt.Sprintf(
					"merge spill: %.0f allocs per episode, want exactly 0 — a recycled shard must not allocate",
					m.AllocsPerOp))
			}
			fmt.Printf("merge    %-20s %12.0f -> %12.0f flows/sec  %+6.1f%%  %6.0f allocs/op  %s\n",
				"spill-256", b.FlowsPerSec, m.FlowsPerSec, 100*delta, m.AllocsPerOp, status)
		}
	}
	if len(base.Codec) > 0 {
		freshCodec := make(map[string]codecSummary, len(doc.Codec))
		for _, c := range doc.Codec {
			freshCodec[c.Op+"/"+c.Shape] = c
		}
		for _, b := range base.Codec {
			key := b.Op + "/" + b.Shape
			c, ok := freshCodec[key]
			if !ok {
				failures = append(failures, fmt.Sprintf("codec %s: missing from this run", key))
				continue
			}
			delta, status, regressed := judge(smoke, b.MBPerSec, c.MBPerSec)
			if regressed {
				failures = append(failures, fmt.Sprintf("codec %s: %.0f -> %.0f MB/s (%.1f%%)",
					key, b.MBPerSec, c.MBPerSec, 100*delta))
			}
			fmt.Printf("codec    %-20s %12.0f -> %12.0f MB/s       %+6.1f%%  %6.0f allocs/op  %s\n",
				key, b.MBPerSec, c.MBPerSec, 100*delta, c.AllocsPerOp, status)
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("benchmark gate failed (classify/runtime/codec/merge tolerance %.0f%%, ingest alloc cap %d, spill episode allocs 0):\n  %s",
			100*regressionTolerance, ingestAllocTolerance, strings.Join(failures, "\n  "))
	}
	return nil
}

// stripProcs removes the -P GOMAXPROCS suffix Go appends to a benchmark's
// name (none under GOMAXPROCS=1). Only for names that do not themselves end
// in a number.
func stripProcs(name string) string {
	if i := strings.LastIndex(name, "-"); i >= 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// judge compares one fresh throughput figure (flows/sec, MB/s) with its
// baseline: the relative change, and whether it fell more than
// regressionTolerance — which smoke mode reports but never holds against the
// run.
func judge(smoke bool, base, fresh float64) (delta float64, status string, regressed bool) {
	if base > 0 {
		delta = (fresh - base) / base
	}
	switch {
	case smoke:
		return delta, "smoke", false
	case base > 0 && fresh < base*(1-regressionTolerance):
		return delta, "REGRESSION", true
	}
	return delta, "ok", false
}

// parseRuntimeEntry lifts one BenchmarkRuntimeThroughput/<variant> or
// BenchmarkIngestPath entry into a runtimeSummary. Throughput variant names
// end in digits themselves (parallel-4), so the name is tried verbatim first
// and only on a match failure is one trailing numeric -P GOMAXPROCS suffix
// stripped and the parse retried.
func parseRuntimeEntry(b benchmark) (runtimeSummary, bool) {
	name := b.Name
	if name == "BenchmarkIngestPath" {
		return runtimeEntry(b, "ingest"), true
	}
	if rest, ok := strings.CutPrefix(name, "BenchmarkIngestPath-"); ok {
		if _, err := strconv.Atoi(rest); err == nil {
			return runtimeEntry(b, "ingest"), true
		}
		return runtimeSummary{}, false
	}
	variant, ok := strings.CutPrefix(name, "BenchmarkRuntimeThroughput/")
	if !ok {
		return runtimeSummary{}, false
	}
	if runtimeVariantValid(variant) {
		return runtimeEntry(b, variant), true
	}
	if i := strings.LastIndex(variant, "-"); i >= 0 {
		if _, err := strconv.Atoi(variant[i+1:]); err == nil && runtimeVariantValid(variant[:i]) {
			return runtimeEntry(b, variant[:i]), true
		}
	}
	return runtimeSummary{}, false
}

// runtimeVariantValid recognizes the throughput benchmark's variant grammar:
// parallel-<workers>, optionally suffixed -telemetry.
func runtimeVariantValid(v string) bool {
	w, ok := strings.CutPrefix(strings.TrimSuffix(v, "-telemetry"), "parallel-")
	if !ok {
		return false
	}
	_, err := strconv.Atoi(w)
	return err == nil
}

func runtimeEntry(b benchmark, variant string) runtimeSummary {
	return runtimeSummary{
		Benchmark:   b.Name,
		Variant:     variant,
		FlowsPerSec: b.Metrics["flows/sec"],
		NsPerFlow:   b.Metrics["ns/flow"],
		AllocsPerOp: b.Metrics["allocs/op"],
	}
}

// parseCodecEntry lifts one BenchmarkCheckpointCodec/<op>/<shape> entry into
// a codecSummary, stripping the -P GOMAXPROCS suffix Go appends to the shape.
func parseCodecEntry(b benchmark) (codecSummary, bool) {
	rest, ok := strings.CutPrefix(b.Name, "BenchmarkCheckpointCodec/")
	if !ok {
		return codecSummary{}, false
	}
	op, shape, ok := strings.Cut(rest, "/")
	if !ok || (op != "encode" && op != "decode") {
		return codecSummary{}, false
	}
	return codecSummary{
		Benchmark:   b.Name,
		Op:          op,
		Shape:       stripProcs(shape),
		NsPerOp:     b.Metrics["ns/op"],
		MBPerSec:    b.Metrics["MB/s"],
		AllocsPerOp: b.Metrics["allocs/op"],
	}, true
}

// parseClassifyEntry lifts one BenchmarkClassifyHotPath/<path>-flat entry
// into a classifySummary. The variant is tried verbatim first and a trailing
// numeric -P GOMAXPROCS suffix is stripped on failure.
func parseClassifyEntry(b benchmark) (classifySummary, bool) {
	variant, ok := strings.CutPrefix(b.Name, "BenchmarkClassifyHotPath/")
	if !ok {
		return classifySummary{}, false
	}
	if cl, ok := parseClassifyVariant(b, variant); ok {
		return cl, true
	}
	if i := strings.LastIndex(variant, "-"); i >= 0 {
		if _, err := strconv.Atoi(variant[i+1:]); err == nil {
			return parseClassifyVariant(b, variant[:i])
		}
	}
	return classifySummary{}, false
}

func parseClassifyVariant(b benchmark, variant string) (classifySummary, bool) {
	// The suffix names the one index there is; the baseline's row keys keep it.
	path, ok := strings.CutSuffix(variant, "-flat")
	if !ok {
		return classifySummary{}, false
	}
	return classifySummary{
		Benchmark:   b.Name,
		Path:        path,
		NsPerFlow:   b.Metrics["ns/flow"],
		FlowsPerSec: b.Metrics["flows/sec"],
		AllocsPerOp: b.Metrics["allocs/op"],
	}, true
}

// parseBuildEntry lifts one BenchmarkPipelineBuild/<scale>/<variant> entry
// into a buildSummary. The trailing -P GOMAXPROCS suffix Go appends to the
// variant is stripped; latency comes from ns/op.
func parseBuildEntry(b benchmark) (buildSummary, bool) {
	rest, ok := strings.CutPrefix(b.Name, "BenchmarkPipelineBuild/")
	if !ok {
		return buildSummary{}, false
	}
	scale, variant, ok := strings.Cut(rest, "/")
	if !ok {
		return buildSummary{}, false
	}
	return buildSummary{
		Benchmark: b.Name,
		Scale:     scale,
		Variant:   stripProcs(variant),
		Seconds:   b.Metrics["ns/op"] / 1e9,
		ASes:      b.Metrics["ases"],
	}, true
}

// parseBenchLine parses one "BenchmarkName-P  N  v unit  v unit..." line.
func parseBenchLine(line string) (benchmark, bool) {
	if !strings.HasPrefix(line, "Benchmark") {
		return benchmark{}, false
	}
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		return benchmark{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return benchmark{}, false
	}
	b := benchmark{Name: fields[0], Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return benchmark{}, false
		}
		b.Metrics[fields[i+1]] = v
	}
	if len(b.Metrics) == 0 {
		return benchmark{}, false
	}
	return b, true
}
