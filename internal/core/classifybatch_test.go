package core

import (
	"testing"
	"time"

	"spoofscope/internal/bogon"
	"spoofscope/internal/ipfix"
	"spoofscope/internal/obs"
)

// TestClassifyBatchMatchesClassify: verdicts from the batch API must equal
// the per-flow references', flow for flow, for every chunking of the full
// scenario — including the boundary batch sizes the consumers never produce
// (1, a ragged tail, larger than ClassifyBatchSize). Two references: the
// pipeline's own per-flow Classify ("flat": same slab, no ingress memo), and
// the index-free Figure 3 oracle.
func TestClassifyBatchMatchesClassify(t *testing.T) {
	s, rib, p, flows, _ := buildEndToEndRIB(t)
	oracle := newFigure3Oracle(p, rib, bogon.NewReferenceSet(), endToEndRouters(s)...)
	for _, ref := range []struct {
		name     string
		classify func(ipfix.Flow) Verdict
	}{{"flat", p.Classify}, {"oracle", oracle.classify}} {
		t.Run(ref.name, func(t *testing.T) {
			want := make([]Verdict, len(flows))
			for i, f := range flows {
				want[i] = ref.classify(f)
			}
			got := make([]Verdict, len(flows))
			for _, chunk := range []int{1, 7, ClassifyBatchSize, len(flows)} {
				for i := range got {
					got[i] = Verdict{RouterIP: true} // poison: every slot must be rewritten
				}
				for lo := 0; lo < len(flows); lo += chunk {
					hi := lo + chunk
					if hi > len(flows) {
						hi = len(flows)
					}
					p.ClassifyBatch(flows[lo:hi], got[lo:hi])
				}
				for i := range flows {
					if got[i] != want[i] {
						t.Fatalf("chunk=%d flow %d: batch %+v, %s %+v", chunk, i, got[i], ref.name, want[i])
					}
				}
			}
		})
	}
	// The hot path's allocation contract, by name: a batch into a reused
	// verdict buffer touches the pipeline's immutable slabs and nothing else.
	if !raceEnabled {
		batch, verdicts := flows[:ClassifyBatchSize], make([]Verdict, ClassifyBatchSize)
		if allocs := testing.AllocsPerRun(100, func() { p.ClassifyBatch(batch, verdicts) }); allocs != 0 {
			t.Fatalf("ClassifyBatch allocates %.1f objects per %d-flow batch, want 0", allocs, ClassifyBatchSize)
		}
	}
}

// TestClassifyBatchShortBufferPanics: a verdict buffer shorter than the
// batch is a programming error, reported loudly rather than truncated.
func TestClassifyBatchShortBufferPanics(t *testing.T) {
	p := testPipeline(t, Options{})
	flows := checkpointFlows()
	defer func() {
		if recover() == nil {
			t.Fatal("ClassifyBatch accepted a short verdict buffer")
		}
	}()
	p.ClassifyBatch(flows, make([]Verdict, len(flows)-1))
}

// TestBatchDrainLatencyHistogramNonEmpty: the classify-latency telemetry
// must survive the batch rollout — after a fully batched parallel drain the
// histogram holds samples (one flow-weighted sample per batch), in per-flow
// seconds, flushed from the worker shards at the merge barriers.
func TestBatchDrainLatencyHistogramNonEmpty(t *testing.T) {
	tel := obs.NewTelemetry()
	flows := telemetryFlows(1000)
	rt, err := NewRuntime(RuntimeConfig{
		Pipeline: testPipeline(t, Options{}),
		Start:    cpStart, Bucket: time.Hour,
		Queue:     unboundedQueue(len(flows)),
		Telemetry: tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range flows {
		rt.IngestBatch([]ipfix.Flow{f})
	}
	rt.Close()
	if err := rt.RunParallel(nil, 4, nil); err != nil {
		t.Fatal(err)
	}
	snap, ok := exportedHistogram(tel.Metrics, MetricClassifyDuration)
	if !ok {
		t.Fatal("classify-duration histogram not registered")
	}
	// One sample per drained batch: at least one (1000 flows were drained),
	// at most one per flow (the degenerate every-batch-holds-one-flow drain).
	if snap.Count == 0 || snap.Count > uint64(len(flows)) {
		t.Fatalf("latency samples: got %d, want in (0, %d]", snap.Count, len(flows))
	}
	if snap.Sum <= 0 {
		t.Fatalf("latency sum: got %v, want > 0", snap.Sum)
	}
}
