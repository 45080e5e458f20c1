package spoofscope

// Observability smoke test (run by `make verify`): a live parallel run with
// telemetry enabled must serve valid Prometheus text over HTTP whose
// per-class counters match the Aggregator's final tallies exactly, walk
// /healthz from unready to ok, and journal the lifecycle.

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"spoofscope/internal/core"
)

func TestObsSmoke(t *testing.T) {
	sim := newSmallSim(t)
	flows := sim.Flows()
	if len(flows) > 4000 {
		flows = flows[:4000]
	}

	tel := NewTelemetry()
	srv, err := ServeMetrics("127.0.0.1:0", tel)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	start, _ := sim.Env().Scenario.Window()
	rt, err := NewLiveRuntime(LiveRuntimeConfig{
		Members: sim.Members(),
		Start:   start, Bucket: time.Hour,
		Queue:     QueueConfig{Capacity: 8192},
		Telemetry: tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Telemetry() != tel {
		t.Fatal("runtime must expose the telemetry it was built with")
	}

	// Before any classifier is promoted, /healthz must refuse readiness at
	// the HTTP level.
	if code, body := httpGet(t, srv.URL()+"/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz before promotion: code=%d body=%s", code, body)
	}
	rt.SwapClassifier(sim.Classifier())
	if code, body := httpGet(t, srv.URL()+"/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz after promotion: code=%d body=%s", code, body)
	}

	// Drive a 4-worker run while the server is live; scrape mid-run to
	// prove exposition works under concurrent classification.
	done := make(chan error, 1)
	go func() { done <- rt.RunParallel(nil, 4, nil) }()
	go func() {
		for _, f := range flows {
			rt.IngestBatchWait([]Flow{f})
		}
		rt.Close()
	}()
	if code, _ := httpGet(t, srv.URL()+"/metrics"); code != http.StatusOK {
		t.Fatalf("mid-run scrape: code=%d", code)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// Drained: the scrape must now match the canonical aggregate exactly.
	code, text := httpGet(t, srv.URL()+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("final scrape: code=%d", code)
	}
	scraped := parseClassCounters(t, text)
	agg := rt.Aggregator()
	for _, c := range []core.TrafficClass{
		core.TCRegular, core.TCBogon, core.TCUnrouted,
		core.TCInvalidNaive, core.TCInvalidCC, core.TCInvalidFull,
	} {
		got, ok := scraped[c.String()]
		if !ok {
			t.Errorf("class %s missing from scrape", c)
			continue
		}
		if want := agg.Total[c].Flows; got != want {
			t.Errorf("class %s: scraped %d, aggregator %d", c, got, want)
		}
	}
	for _, want := range []string{
		"spoofscope_runtime_epoch 1",
		fmt.Sprintf("spoofscope_runtime_processed_total %d", len(flows)),
		fmt.Sprintf("spoofscope_queue_ingested_total %d", len(flows)),
		"spoofscope_queue_depth 0",
		"# TYPE spoofscope_classify_duration_seconds histogram",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape missing %q", want)
		}
	}

	// The journal recorded the promotion.
	var sawSwap bool
	for _, e := range tel.Journal.Events() {
		if e.Kind == "epoch-swap" {
			sawSwap = true
		}
	}
	if !sawSwap {
		t.Fatal("journal missing the epoch-swap event")
	}
}

func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// parseClassCounters extracts class -> value from the
// spoofscope_flows_classified_total samples of a Prometheus text scrape,
// validating the basic line shape as it goes.
func parseClassCounters(t *testing.T, text string) map[string]uint64 {
	t.Helper()
	out := map[string]uint64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, `spoofscope_flows_classified_total{class="`) {
			continue
		}
		rest := strings.TrimPrefix(line, `spoofscope_flows_classified_total{class="`)
		end := strings.Index(rest, `"`)
		if end < 0 {
			t.Fatalf("malformed sample line: %q", line)
		}
		class := rest[:end]
		fields := strings.Fields(rest[end:])
		v, err := strconv.ParseUint(fields[len(fields)-1], 10, 64)
		if err != nil {
			t.Fatalf("malformed sample value in %q: %v", line, err)
		}
		out[class] = v
	}
	return out
}
