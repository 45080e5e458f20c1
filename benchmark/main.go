// Command benchmark is the repository's benchmark: five workloads that
// drive spoofscope from wire bytes to a durable checkpoint through its
// public functions, check the bytes that come out against a reference, and
// print the metrics BENCHMARK.json names. See README.md.
//
//	bash benchmark/run.sh --workload replay-mixed --seed 1 --seconds 15 --trace 0
//
// prints the end-to-end metrics; --trace 1 prints the per-layer metrics and
// writes the spans to benchmark/out/. The last line of standard output is
// one JSON object; everything before it is for people.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"spoofscope/benchmark/trace"
)

// workload is one set of inputs and the loop that measures the system on it.
type workload struct {
	name   string
	spec   inputSpec
	setups int  // how many times set-up is timed; the median is setup_s
	feeds  bool // the loop reads the decoded trace, not the wire image
	run    func(in *inputs, d time.Duration, rec *trace.Recorder) *outcome
}

var workloads = []workload{
	{name: "replay-mixed", spec: inputSpec{}, setups: 3, run: runReplay},
	{name: "replay-attack", spec: inputSpec{attack: true}, setups: 3, run: runReplay},
	{name: "live-tcp", spec: inputSpec{}, setups: 3, run: runLive},
	// The paper-scale scenario takes ten seconds to synthesise, so its
	// set-up is timed once: its relative noise is small at that length.
	{name: "rib-churn", spec: inputSpec{paper: true, revisions: true}, setups: 1, run: runChurn},
	{name: "cluster-2w", spec: inputSpec{}, setups: 3, feeds: true, run: runCluster},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	smoke    bool
	repeat   int
	out      string
}

func main() {
	var opt options
	flag.StringVar(&opt.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&opt.seed, "seed", 1, "seed the inputs are made from")
	flag.Float64Var(&opt.seconds, "seconds", runSeconds, "how long to measure")
	flag.IntVar(&opt.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	flag.BoolVar(&opt.smoke, "smoke", false, "run every workload briefly on small inputs, both ways, and check only that every metric appears and nothing failed")
	flag.IntVar(&opt.repeat, "repeat", 0, "run the workload this many times (at least two), each with the next seed, and print every end-to-end metric's spread against its bound")
	flag.StringVar(&opt.out, "out", filepath.Join("benchmark", "out"), "directory the traced run writes its spans to")
	flag.Parse()

	var err error
	switch {
	case opt.smoke:
		err = smoke(opt)
	case opt.repeat > 1:
		err = repeat(opt)
	case opt.repeat != 0:
		err = fmt.Errorf("--repeat needs at least two runs to have a spread")
	default:
		err = single(opt)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// report is the last line a run prints.
type report struct {
	Correct   bool                `json:"correct"`
	Attempted int64               `json:"attempted"`
	Failed    int64               `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// single is one run of one workload.
func single(opt options) error {
	w := findWorkload(opt.workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q (have %s)", opt.workload, strings.Join(workloadNames(), ", "))
	}
	rep, err := runWorkload(w, opt)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return fmt.Errorf("%s: %d of %d operations failed", w.name, rep.Failed, rep.Attempted)
	}
	return nil
}

// runWorkload sets a workload up and measures it, untraced or traced.
func runWorkload(w *workload, opt options) (*report, error) {
	var in *inputs
	var setups []float64
	for i := 0; i < w.setups; i++ {
		t0 := time.Now()
		var err error
		if in, err = buildInputs(w.spec, opt.seed, opt.smoke); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	setup := median(setups)
	fmt.Printf("%s seed %d: set-up %.3f s (median of %d); %d flows in %d messages, %d announcements, %d members\n",
		w.name, opt.seed, setup, len(setups), len(in.flows), in.wire.Messages(), len(in.rib.Announcements()), len(in.members))

	d := time.Duration(opt.seconds * float64(time.Second))
	defs := endToEndMetrics
	var values map[string]float64
	var o *outcome
	if opt.trace == 0 {
		if !w.feeds {
			in.release()
		}
		o = w.run(in, d, nil)
		values = endToEnd(o, setup)
		fmt.Printf("latency: median %.6g ms, p%.4g %.6g ms of %d samples; throughput and CPU: %d timed regions\n",
			o.latency.p50, 100*o.latency.tailQ, o.latency.tail, o.latency.n, len(o.cost.rate))
	} else {
		defs = perLayerMetrics
		var err error
		if o, values, err = traced(w, in, d, opt); err != nil {
			return nil, err
		}
	}
	for _, e := range o.errs {
		fmt.Println("FAILED:", e)
	}
	rep := &report{Correct: o.failed == 0 && o.attempted > 0, Attempted: o.attempted, Failed: o.failed,
		Metrics: make(map[string]measured, len(defs))}
	for _, m := range defs {
		fmt.Printf("  %-34s %16s %s\n", m.name, strconv.FormatFloat(values[m.name], 'f', -1, 64), m.unit)
		rep.Metrics[m.name] = measured{Value: values[m.name], Unit: m.unit}
	}
	return rep, nil
}

// smoke runs every workload both ways on small inputs and checks only that
// every named metric is emitted, that no end-to-end metric reads 0, that the
// traced run wrote its spans and that nothing failed.
func smoke(opt options) error {
	opt.smoke, opt.seconds = true, 0.3
	for i := range workloads {
		w := &workloads[i]
		for tr, defs := range [][]metric{endToEndMetrics, perLayerMetrics} {
			opt.trace = tr
			rep, err := runWorkload(w, opt)
			if err != nil {
				return err
			}
			if !rep.Correct {
				return fmt.Errorf("%s trace=%d: %d of %d operations failed", w.name, tr, rep.Failed, rep.Attempted)
			}
			if len(rep.Metrics) != len(defs) {
				return fmt.Errorf("%s trace=%d: %d metrics, want %d", w.name, tr, len(rep.Metrics), len(defs))
			}
			for _, m := range defs {
				got, ok := rep.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					return fmt.Errorf("%s trace=%d: metric %s missing or in unit %q, want %q", w.name, tr, m.name, got.Unit, m.unit)
				}
				if tr == 0 && !(got.Value > 0) {
					return fmt.Errorf("%s: end-to-end metric %s reads %v; it may never be 0", w.name, m.name, got.Value)
				}
			}
		}
		if _, err := os.Stat(filepath.Join(opt.out, "trace-"+w.name+".json")); err != nil {
			return fmt.Errorf("%s: the traced run left no span file: %w", w.name, err)
		}
	}
	fmt.Println("smoke: every workload emitted every metric and nothing failed")
	return nil
}

// benchmarkFile is what repeat reads from BENCHMARK.json: the bounds.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// driverQuartile is the quartile the driver takes: Python's
// statistics.quantiles(values, n=4), whose default method places quartile k
// of n values at position k(n+1)/4, counted from one, and so reads wider
// than quantile does on ten values.
func driverQuartile(sorted []float64, k int) float64 {
	n := len(sorted)
	pos := float64(k*(n+1))/4 - 1
	lo := int(pos)
	if pos < 0 {
		lo = 0
	}
	if lo > n-2 {
		lo = n - 2
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// repeat runs the workload (or each, if none is named) opt.repeat times as
// child processes, as the driver does, and prints each end-to-end metric's
// spread — the interquartile range over the median — beside its bound.
func repeat(opt options) error {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("repeat needs the bounds: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	names := workloadNames()
	if opt.workload != "" {
		names = []string{opt.workload}
	}
	bad := 0
	for _, name := range names {
		samples := make(map[string][]float64)
		for i := 0; i < opt.repeat; i++ {
			cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(opt.seed+int64(i), 10),
				"--seconds", strconv.FormatFloat(opt.seconds, 'f', -1, 64), "--trace", "0")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s run %d: %w", name, i, err)
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var rep report
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
				return fmt.Errorf("%s run %d: last line: %w", name, i, err)
			}
			for k, v := range rep.Metrics {
				samples[k] = append(samples[k], v.Value)
			}
		}
		fmt.Printf("%s, %d runs from seed %d:\n", name, opt.repeat, opt.seed)
		for _, m := range bf.EndToEnd {
			s := sortedCopy(samples[m.Name])
			med := quantile(s, 0.5)
			spread := (driverQuartile(s, 3) - driverQuartile(s, 1)) / med
			mark := ""
			if spread > m.Bound {
				mark = "  WIDER THAN BOUND"
				bad++
			}
			fmt.Printf("  %-22s median %14.6g  spread %6.2f%%  bound %4.0f%%%s\n", m.Name, med, 100*spread, 100*m.Bound, mark)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metric × workload pairs spread wider than their bound", bad)
	}
	return nil
}
