package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
)

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("flows_total", "Flows.", Label{Name: "class", Value: "bogon"})
	b := r.Counter("flows_total", "Flows.", Label{Name: "class", Value: "bogon"})
	if a != b {
		t.Fatal("same name+labels must return the same counter")
	}
	c := r.Counter("flows_total", "Flows.", Label{Name: "class", Value: "valid"})
	if a == c {
		t.Fatal("different labels must return distinct counters")
	}
	a.Add(3)
	if b.Value() != 3 {
		t.Fatalf("shared counter: got %d, want 3", b.Value())
	}
	if c.Value() != 0 {
		t.Fatalf("sibling counter: got %d, want 0", c.Value())
	}
}

func TestRegistryLabelOrderIrrelevant(t *testing.T) {
	r := NewRegistry()
	a := r.Gauge("depth", "Depth.", Label{Name: "a", Value: "1"}, Label{Name: "b", Value: "2"})
	b := r.Gauge("depth", "Depth.", Label{Name: "b", Value: "2"}, Label{Name: "a", Value: "1"})
	if a != b {
		t.Fatal("label order must not distinguish series")
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "X.")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic registering x_total as a gauge")
		}
	}()
	r.Gauge("x_total", "X.")
}

func TestGaugeAdd(t *testing.T) {
	var g Gauge
	g.Set(1.5)
	g.Add(2.5)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge: got %v, want 4", got)
	}
	g.Add(-4)
	if got := g.Value(); got != 0 {
		t.Fatalf("gauge: got %v, want 0", got)
	}
}

// TestRegistryConcurrent is the race-detector stress: writers bump counters,
// gauges, and histograms (direct and via shards) while scrapers serialize
// the registry in both formats and new series register concurrently.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "Latency.", LatencyBuckets)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("ops_total", "Ops.", Label{Name: "worker", Value: fmt.Sprint(w)})
			g := r.Gauge("depth", "Depth.")
			sh := h.NewShard()
			for i := 0; i < 2000; i++ {
				c.Inc()
				g.Set(float64(i))
				h.Observe(float64(i) * 1e-9)
				sh.Observe(float64(i) * 1e-9)
				if i%500 == 0 {
					sh.Flush()
				}
			}
			sh.Flush()
		}()
	}
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := r.WritePrometheus(io.Discard); err != nil {
					t.Errorf("WritePrometheus: %v", err)
				}
				if err := r.WriteJSON(io.Discard); err != nil {
					t.Errorf("WriteJSON: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	var total uint64
	for w := 0; w < 4; w++ {
		total += r.Counter("ops_total", "Ops.", Label{Name: "worker", Value: fmt.Sprint(w)}).Value()
	}
	if total != 8000 {
		t.Fatalf("ops_total sum: got %d, want 8000", total)
	}
	snap, ok := r.FindHistogram("lat_seconds")
	if !ok {
		t.Fatal("lat_seconds not found")
	}
	if snap.Count != 16000 { // 8000 direct + 8000 via shards
		t.Fatalf("histogram count: got %d, want 16000", snap.Count)
	}
}

func TestCounterFuncReplaces(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("view_total", "View.", func() uint64 { return 1 })
	r.CounterFunc("view_total", "View.", func() uint64 { return 7 })
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "view_total 7") {
		t.Fatalf("re-registered func must win:\n%s", sb.String())
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.5, 1.5, 3, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("count: got %d, want 5", s.Count)
	}
	if got := s.Quantile(0.5); got <= 1 || got > 2 {
		t.Fatalf("p50: got %v, want in (1, 2]", got)
	}
	// The +Inf bucket clamps to the highest finite bound.
	if got := s.Quantile(1); got != 4 {
		t.Fatalf("p100: got %v, want 4", got)
	}
	if got := (HistogramSnapshot{}).Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram quantile: got %v, want 0", got)
	}
}

func TestUnregisterDropsSample(t *testing.T) {
	r := NewRegistry()
	w1 := Label{Name: "worker", Value: "w1"}
	w2 := Label{Name: "worker", Value: "w2"}
	r.CounterFunc("fleet_total", "Fleet counter.", func() uint64 { return 1 }, w1)
	r.CounterFunc("fleet_total", "Fleet counter.", func() uint64 { return 2 }, w2)

	r.Unregister("fleet_total", w1)
	var text strings.Builder
	if err := r.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(text.String(), `worker="w1"`) || !strings.Contains(text.String(), `worker="w2"`) {
		t.Fatalf("unregister left wrong samples:\n%s", text.String())
	}

	// Dropping the last sample removes the family entirely.
	r.Unregister("fleet_total", w2)
	text.Reset()
	if err := r.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(text.String(), "fleet_total") {
		t.Fatalf("empty family still exposed:\n%s", text.String())
	}
	// Unregistering what is already gone is a no-op, not a panic.
	r.Unregister("fleet_total", w2)
	r.Unregister("never_registered")
}
