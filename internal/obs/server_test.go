package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

func TestServerEndpoints(t *testing.T) {
	tel := NewTelemetry()
	tel.Metrics.CounterFunc("smoke_total", "Smoke.", func() uint64 { return 9 })
	tel.Record(EventEpochSwap, "promoted epoch 1")
	tel.SetHealth(func() Health {
		return Health{Ready: false, Status: "unready", Detail: "no epoch yet"}
	})
	srv, err := Serve("127.0.0.1:0", tel)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "smoke_total 9") {
		t.Fatalf("/metrics: code=%d body=%q", code, body)
	}
	if code, body := get("/metrics?format=json"); code != 200 || !strings.Contains(body, `"smoke_total"`) {
		t.Fatalf("/metrics?format=json: code=%d body=%q", code, body)
	}

	// Unready must be an HTTP-level 503 so load balancers need no parsing.
	code, body := get("/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz while unready: code=%d, want 503", code)
	}
	var h Health
	if err := json.Unmarshal([]byte(body), &h); err != nil || h.Ready || h.Detail != "no epoch yet" {
		t.Fatalf("/healthz payload: %q (err=%v)", body, err)
	}
	tel.SetHealth(func() Health { return Health{Ready: true, Status: "ok"} })
	if code, _ := get("/healthz"); code != 200 {
		t.Fatalf("/healthz while ready: code=%d, want 200", code)
	}

	code, body = get("/events?n=1")
	if code != 200 {
		t.Fatalf("/events: code=%d", code)
	}
	var events struct {
		Dropped uint64  `json:"dropped"`
		Events  []Event `json:"events"`
	}
	if err := json.Unmarshal([]byte(body), &events); err != nil {
		t.Fatalf("/events payload: %v\n%s", err, body)
	}
	if len(events.Events) != 1 || events.Events[0].Kind != EventEpochSwap {
		t.Fatalf("/events: %+v", events)
	}

	if code, _ := get("/debug/pprof/cmdline"); code != 200 {
		t.Fatalf("/debug/pprof/cmdline: code=%d", code)
	}
	if code, _ := get("/nope"); code != http.StatusNotFound {
		t.Fatalf("/nope: code=%d, want 404", code)
	}
}

func TestServerEventsSinceKindAndStatus(t *testing.T) {
	tel := NewTelemetry()
	small := NewJournal(4)
	tel.Journal = small
	for i := 1; i <= 3; i++ {
		tel.Record(EventCheckpoint, "wrote")
		tel.Record(EventEpochSwap, "promoted")
	}
	tel.PublishJSON("/cluster", func() any {
		return map[string]any{"role": "coordinator"}
	})
	srv, err := Serve("127.0.0.1:0", tel)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	var page struct {
		Dropped uint64  `json:"dropped"`
		Gap     bool    `json:"gap"`
		Head    uint64  `json:"head"`
		Events  []Event `json:"events"`
	}
	// 6 events through a 4-slot ring: seqs 1..2 evicted. A poll from 0
	// must flag the gap and report the evictions.
	code, body := get("/events?since=0")
	if code != 200 {
		t.Fatalf("/events?since=0: code=%d", code)
	}
	if err := json.Unmarshal([]byte(body), &page); err != nil {
		t.Fatal(err)
	}
	if !page.Gap || page.Dropped != 2 || page.Head != 6 || len(page.Events) != 4 {
		t.Fatalf("gap poll: %+v", page)
	}

	// From the head cursor: caught up, no gap.
	code, body = get("/events?since=6&kind=" + EventCheckpoint)
	if code != 200 {
		t.Fatalf("code=%d", code)
	}
	if err := json.Unmarshal([]byte(body), &page); err != nil {
		t.Fatal(err)
	}
	if page.Gap || len(page.Events) != 0 || page.Head != 6 {
		t.Fatalf("caught-up poll: %+v", page)
	}

	// Kind filter composes with a mid-stream cursor.
	_, body = get("/events?since=4&kind=" + EventEpochSwap)
	if err := json.Unmarshal([]byte(body), &page); err != nil {
		t.Fatal(err)
	}
	if len(page.Events) != 1 || page.Events[0].Kind != EventEpochSwap {
		t.Fatalf("kind filter: %+v", page)
	}

	if code, _ := get("/events?since=notanumber"); code != http.StatusBadRequest {
		t.Fatalf("bad since: code=%d, want 400", code)
	}

	// Published status pages serve live JSON and appear in the index.
	code, body = get("/cluster")
	if code != 200 || !strings.Contains(body, `"role": "coordinator"`) {
		t.Fatalf("/cluster: code=%d body=%q", code, body)
	}
	if code, body := get("/"); code != 200 || !strings.Contains(body, "/cluster") {
		t.Fatalf("index missing status page: code=%d body=%q", code, body)
	}
}
