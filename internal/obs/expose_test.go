package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestWritePrometheusGolden pins the exposition format byte-for-byte:
// families sorted by name, samples by label key, histograms as cumulative
// buckets with an explicit +Inf, integer values without a decimal point.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("zz_last_total", "Sorted last.", func() uint64 { return 2 })
	r.CounterFunc("aa_flows_total", "Flows by class.", func() uint64 { return 10 }, Label{Name: "class", Value: "valid"})
	r.CounterFunc("aa_flows_total", "Flows by class.", func() uint64 { return 3 }, Label{Name: "class", Value: "bogon"})
	r.GaugeFunc("mm_depth", "Queue depth.", func() float64 { return 1.5 })
	h := r.Histogram("hh_lat_seconds", "Latency.", []float64{0.1, 0.2})
	h.Observe(0.05)
	h.Observe(0.15)
	h.Observe(0.15)
	h.Observe(9)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP aa_flows_total Flows by class.
# TYPE aa_flows_total counter
aa_flows_total{class="bogon"} 3
aa_flows_total{class="valid"} 10
# HELP hh_lat_seconds Latency.
# TYPE hh_lat_seconds histogram
hh_lat_seconds_bucket{le="0.1"} 1
hh_lat_seconds_bucket{le="0.2"} 3
hh_lat_seconds_bucket{le="+Inf"} 4
hh_lat_seconds_sum 9.35
hh_lat_seconds_count 4
# HELP mm_depth Queue depth.
# TYPE mm_depth gauge
mm_depth 1.5
# HELP zz_last_total Sorted last.
# TYPE zz_last_total counter
zz_last_total 2
`
	if got := sb.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	value := "a\"b\\c\nd"
	r.CounterFunc("esc_total", "E \\ and\nmore.", func() uint64 { return 1 }, Label{Name: "path", Value: value})
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `esc_total{path="a\"b\\c\nd"} 1`) ||
		!strings.Contains(sb.String(), `# HELP esc_total E \\ and\nmore.`) {
		t.Fatalf("label and help escaping:\n%s", sb.String())
	}
	// The JSON exposition round-trips the raw strings.
	sb.Reset()
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var fams []JSONFamily
	if err := json.Unmarshal([]byte(sb.String()), &fams); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, sb.String())
	}
	if len(fams) != 1 || fams[0].Help != "E \\ and\nmore." || fams[0].Samples[0].Labels["path"] != value {
		t.Fatalf("JSON exposition: %+v", fams)
	}
}

func TestExportJSON(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("c_total", "C.", func() uint64 { return 5 }, Label{Name: "k", Value: "v"})
	r.Histogram("h_seconds", "H.", []float64{1}).Observe(0.5)
	var sb strings.Builder
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var fams []JSONFamily
	if err := json.Unmarshal([]byte(sb.String()), &fams); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(fams) != 2 {
		t.Fatalf("families: got %d, want 2", len(fams))
	}
	if fams[0].Name != "c_total" || *fams[0].Samples[0].Value != 5 ||
		fams[0].Samples[0].Labels["k"] != "v" {
		t.Fatalf("counter family: %+v", fams[0])
	}
	if fams[1].Samples[0].Histogram.Count != 1 {
		t.Fatalf("histogram family: %+v", fams[1])
	}
}
