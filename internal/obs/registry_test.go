package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	bogon := Label{Name: "class", Value: "bogon"}
	a := r.Histogram("lat_seconds", "Latency.", LatencyBuckets, bogon)
	b := r.Histogram("lat_seconds", "Latency.", LatencyBuckets, bogon)
	if a != b {
		t.Fatal("same name+labels must return the same histogram")
	}
	c := r.Histogram("lat_seconds", "Latency.", LatencyBuckets, Label{Name: "class", Value: "valid"})
	if a == c {
		t.Fatal("different labels must return distinct histograms")
	}
	a.Observe(1e-3)
	if n := b.Snapshot().Count; n != 1 {
		t.Fatalf("shared histogram: got %d observations, want 1", n)
	}
	if n := c.Snapshot().Count; n != 0 {
		t.Fatalf("sibling histogram: got %d observations, want 0", n)
	}
}

func TestRegistryLabelOrderIrrelevant(t *testing.T) {
	r := NewRegistry()
	ab := []Label{{Name: "a", Value: "1"}, {Name: "b", Value: "2"}}
	ba := []Label{{Name: "b", Value: "2"}, {Name: "a", Value: "1"}}
	if r.Histogram("lat", "L.", LatencyBuckets, ab...) != r.Histogram("lat", "L.", LatencyBuckets, ba...) {
		t.Fatal("label order must not distinguish histogram series")
	}
	r.GaugeFunc("depth", "Depth.", func() float64 { return 1 }, ab...)
	r.GaugeFunc("depth", "Depth.", func() float64 { return 2 }, ba...)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "depth{a=\"1\",b=\"2\"} 2\n") || strings.Count(sb.String(), "depth{") != 1 {
		t.Fatalf("label order must not distinguish func-backed series:\n%s", sb.String())
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("x_total", "X.", func() uint64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic registering x_total as a gauge")
		}
	}()
	r.GaugeFunc("x_total", "X.", func() float64 { return 0 })
}

// TestRegistryConcurrent is the race-detector stress: writers register and
// bump func-backed counters and gauges and observe histograms (direct and
// via shards) while scrapers serialize the registry in both formats.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "Latency.", LatencyBuckets)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ops, depth atomic.Uint64
			r.CounterFunc("ops_total", "Ops.", ops.Load, Label{Name: "worker", Value: fmt.Sprint(w)})
			sh := h.NewShard()
			for i := 0; i < 2000; i++ {
				ops.Add(1)
				depth.Store(uint64(i))
				r.GaugeFunc("depth", "Depth.", func() float64 { return float64(depth.Load()) })
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
	var total float64
	var count uint64
	for _, f := range r.Export() {
		for _, s := range f.Samples {
			switch f.Name {
			case "ops_total":
				total += *s.Value
			case "lat_seconds":
				count = s.Histogram.Count
			}
		}
	}
	if total != 8000 {
		t.Fatalf("ops_total sum: got %v, want 8000", total)
	}
	if count != 16000 { // 8000 direct + 8000 via shards
		t.Fatalf("histogram count: got %d, want 16000", count)
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
