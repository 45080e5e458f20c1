package core

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"spoofscope/internal/ipfix"
	"spoofscope/internal/obs"
)

// telemetryFlows repeats the checkpoint fixture's six flows (which cover
// valid, bogon, unrouted, and invalid classes) enough times to exercise the
// latency sampler (every 64th flow) and batch merging.
func telemetryFlows(n int) []ipfix.Flow {
	base := checkpointFlows()
	out := make([]ipfix.Flow, 0, n)
	for len(out) < n {
		out = append(out, base...)
	}
	return out[:n]
}

// TestRuntimeTelemetryMatchesAggregator is the acceptance check: after a
// drained parallel run, every per-class scrape counter equals the canonical
// Aggregator tally exactly, and the scraped text parses as Prometheus
// families with the runtime gauges in their final state.
func TestRuntimeTelemetryMatchesAggregator(t *testing.T) {
	tel := obs.NewTelemetry()
	rt, err := NewRuntime(RuntimeConfig{
		Pipeline: testPipeline(t, Options{}),
		Start:    cpStart, Bucket: time.Hour,
		Queue:     unboundedQueue(4096),
		Telemetry: tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	flows := telemetryFlows(1000)
	// The run starts with the aggregate lock held, so the first 600 flows
	// spill into the workers' private shards and the merge-barrier metrics
	// below have spills and folds to show; the rest arrive once those have
	// folded, and aggregate in place.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4)) // RunParallel clamps to it
	rt.mu.Lock()
	rt.IngestBatch(flows[:600])
	done := make(chan error, 1)
	go func() { done <- rt.RunParallel(nil, 4, nil) }()
	for rt.processed.Load() != 600 {
		runtime.Gosched()
	}
	rt.mu.Unlock()
	for rt.Snapshot(func(*Checkpoint) error { return nil }) != nil {
		runtime.Gosched() // not quiescent until every shard has folded
	}
	for _, f := range flows[600:] {
		rt.IngestWait(f)
	}
	rt.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	agg := rt.Aggregator()
	fams := tel.Metrics.Export()
	got, drain := map[string]uint64{}, map[string]uint64{}
	for _, f := range fams {
		for _, s := range f.Samples {
			switch f.Name {
			case MetricFlowsClassified:
				got[s.Labels["class"]] = uint64(*s.Value)
			case MetricDrainBatches:
				drain[s.Labels["path"]] = uint64(*s.Value)
			case MetricDrainMerges:
				drain["merges"] = uint64(*s.Value)
			}
		}
	}
	// The merge-barrier stage is func-backed over the counters Stats reads,
	// and the merge-duration histogram holds one sample per fold.
	st := rt.Stats()
	if st.DrainSpilled == 0 || st.DrainMerges == 0 || st.DrainInPlace == 0 {
		t.Fatalf("want batches both ways: %d in place, %d spilled, %d merges", st.DrainInPlace, st.DrainSpilled, st.DrainMerges)
	}
	if drain["inplace"] != st.DrainInPlace || drain["spilled"] != st.DrainSpilled || drain["merges"] != st.DrainMerges {
		t.Errorf("drain scrape %v, stats %d in place, %d spilled, %d merges", drain, st.DrainInPlace, st.DrainSpilled, st.DrainMerges)
	}
	if mh, ok := tel.Metrics.FindHistogram(MetricMergeDuration); !ok || mh.Count != st.DrainMerges {
		t.Errorf("merge-duration histogram: %d samples (registered %v), %d merges", mh.Count, ok, st.DrainMerges)
	}
	// Per-class equality is the contract; classes overlap by design (the
	// invalid-* ablations double-count), so they are not summed here.
	for c := TrafficClass(0); c < numTrafficClasses; c++ {
		if got[c.String()] != agg.Total[c].Flows {
			t.Errorf("class %s: scrape %d, aggregator %d", c, got[c.String()], agg.Total[c].Flows)
		}
	}
	if agg.GrandTotal.Flows != uint64(len(flows)) {
		t.Fatalf("aggregator total: got %d, want %d", agg.GrandTotal.Flows, len(flows))
	}

	var sb strings.Builder
	if err := tel.Metrics.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"spoofscope_runtime_epoch 1",
		"spoofscope_runtime_processed_total 1000",
		"spoofscope_queue_ingested_total 1000",
		"spoofscope_queue_depth 0",
		"spoofscope_queue_shed_total 0",
		"# TYPE " + MetricClassifyDuration + " histogram",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape missing %q", want)
		}
	}

	// The latency sampler observes one flow-weighted sample per drained
	// batch: a 1000-flow run must have observed some, and no more than one
	// per flow (batches hold at least one flow each).
	snap, ok := tel.Metrics.FindHistogram(MetricClassifyDuration)
	if !ok {
		t.Fatal("classify-duration histogram not registered")
	}
	if snap.Count == 0 || snap.Count > uint64(len(flows)) {
		t.Fatalf("latency samples: got %d, want in (0, %d]", snap.Count, len(flows))
	}
}

// TestRuntimeHealthTransitions walks /healthz through its three states:
// unready before the first promotion, degraded after a feed gap, ok after
// the next swap.
func TestRuntimeHealthTransitions(t *testing.T) {
	tel := obs.NewTelemetry()
	rt, err := NewRuntime(RuntimeConfig{
		Start: cpStart, Bucket: time.Hour,
		Telemetry: tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if h := tel.Health(); h.Ready || h.Status != "unready" {
		t.Fatalf("before first swap: %+v", h)
	}
	rt.Swap(testPipeline(t, Options{}))
	if h := tel.Health(); !h.Ready || h.Status != "ok" {
		t.Fatalf("after first swap: %+v", h)
	}
	rt.MarkDegraded()
	if h := tel.Health(); !h.Ready || h.Status != "degraded" {
		t.Fatalf("while degraded: %+v", h)
	}
	rt.Swap(testPipeline(t, Options{}))
	if h := tel.Health(); !h.Ready || h.Status != "ok" {
		t.Fatalf("after recovery swap: %+v", h)
	}

	// The journal saw the lifecycle. Degradation is journaled only on the
	// false→true transition: this second MarkDegraded records (the swap
	// above cleared the flag), but a repeat while already degraded would not.
	rt.MarkDegraded()
	rt.MarkDegraded()
	kinds := map[string]int{}
	for _, e := range tel.Journal.Events() {
		kinds[e.Kind]++
	}
	if kinds[obs.EventEpochSwap] != 2 || kinds[obs.EventDegraded] != 2 {
		t.Fatalf("journal kinds: %v", kinds)
	}
}

// TestQueueShedJournal asserts the watermark transitions are journaled once
// per edge, not once per shed flow.
func TestQueueShedJournal(t *testing.T) {
	j := obs.NewJournal(16)
	q := NewIngestQueue(QueueConfig{Capacity: 8, HighWatermark: 6}) // low watermark 4
	q.journal = j
	var f ipfix.Flow
	for i := 0; i < 8; i++ {
		q.Push(f)
	}
	st := q.Stats()
	if !st.Shedding || st.Shed == 0 {
		t.Fatalf("queue must be shedding: %+v", st)
	}
	for q.Depth() > 4 {
		pop(q)
	}
	if q.Stats().Shedding {
		t.Fatal("queue must have stopped shedding at the low watermark")
	}
	var starts, stops int
	for _, e := range j.Events() {
		switch e.Kind {
		case obs.EventShedStart:
			starts++
		case obs.EventShedStop:
			stops++
		}
	}
	if starts != 1 || stops != 1 {
		t.Fatalf("shed transitions: starts=%d stops=%d, want 1/1", starts, stops)
	}
}

// TestRuntimeCheckpointJournal asserts checkpoint writes land in the journal.
func TestRuntimeCheckpointJournal(t *testing.T) {
	tel := obs.NewTelemetry()
	rt, err := NewRuntime(RuntimeConfig{
		Pipeline: testPipeline(t, Options{}),
		Start:    cpStart, Bucket: time.Hour,
		CheckpointPath: t.TempDir() + "/run.ckpt",
		Telemetry:      tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range checkpointFlows() {
		rt.Ingest(f)
	}
	drainAll(t, rt)
	if err := rt.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, e := range tel.Journal.Events() {
		if e.Kind == obs.EventCheckpoint && strings.Contains(e.Msg, "6 flows") {
			found = true
		}
	}
	if !found {
		t.Fatalf("journal missing checkpoint event: %+v", tel.Journal.Events())
	}
}
