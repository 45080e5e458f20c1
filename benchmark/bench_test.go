package main

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the harness must agree with.
type benchmarkJSON struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
		Bound      float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func TestHarnessMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != runSeconds {
		t.Errorf("run_seconds is %d, the harness measures for %d", bj.RunSeconds, runSeconds)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, w.Name, workloads[i].name)
		}
	}
	if len(bj.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the harness", len(bj.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range bj.EndToEnd {
		if got := endToEndMetrics[i]; m.Name != got.name || m.Unit != got.unit {
			t.Errorf("end-to-end metric %d is %s [%s] in BENCHMARK.json, %s [%s] in the harness", i, m.Name, m.Unit, got.name, got.unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bj.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the harness", len(bj.PerLayer), len(perLayerMetrics))
	}
	for i, m := range bj.PerLayer {
		if got := perLayerMetrics[i]; m.Name != got.name || m.Unit != got.unit {
			t.Errorf("per-layer metric %d is %s [%s] in BENCHMARK.json, %s [%s] in the harness", i, m.Name, m.Unit, got.name, got.unit)
		}
	}
}

// TestOracleCatchesOneCorruptFlow plants a one-flow corruption in the wire
// image — one more packet in one record's packet count — and expects every
// replay pass to fail its byte-for-byte check against the reference, which
// was computed before the corruption.
func TestOracleCatchesOneCorruptFlow(t *testing.T) {
	in, err := buildInputs(inputSpec{}, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if o := runReplay(in, 0, nil); o.failed != 0 || o.attempted == 0 {
		t.Fatalf("clean image: %d of %d passes failed: %v", o.failed, o.attempted, o.errs)
	}
	// Record 0 of data message 7: message header (16), set header (4), then
	// the record's start (8), addresses (4+4), ports (2+2), protocol and
	// flags (1+1), and its packet count.
	at := in.wire.Off[7] + 16 + 4 + 8 + 4 + 4 + 2 + 2 + 1 + 1
	packets := binary.BigEndian.Uint64(in.wire.Bytes[at:])
	binary.BigEndian.PutUint64(in.wire.Bytes[at:], packets+1)
	o := runReplay(in, 0, nil)
	if o.failed != o.attempted || o.failed == 0 {
		t.Fatalf("corrupt image: %d of %d passes failed, want all", o.failed, o.attempted)
	}
	t.Logf("caught: %s", o.errs[0])
}

// TestDriverQuartile pins the quartiles --repeat reports to what Python's
// statistics.quantiles(values, n=4) gives for the same values.
func TestDriverQuartile(t *testing.T) {
	for _, c := range []struct {
		sorted []float64
		q1, q3 float64
	}{
		{[]float64{1, 1.5, 2.6, 3, 4, 5.3, 5.8, 9, 9.3, 9.7}, 2.325, 9.075},
		{[]float64{1, 3, 4}, 1, 4},
		{[]float64{1, 3}, 0.5, 3.5},
	} {
		if q1, q3 := driverQuartile(c.sorted, 1), driverQuartile(c.sorted, 3); math.Abs(q1-c.q1) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("%v: quartiles %v and %v, want %v and %v", c.sorted, q1, q3, c.q1, c.q3)
		}
	}
}

// TestSmoke is the benchmark's own smoke run: every workload, untraced and
// traced, on small inputs (see smoke).
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	if raceEnabled {
		t.Skip("timing harness; the race detector distorts every number it prints")
	}
	if err := smoke(options{seed: 1, out: t.TempDir()}); err != nil {
		t.Fatal(err)
	}
}
