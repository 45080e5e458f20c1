package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"net"
	"net/http"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"spoofscope/internal/core"
	"spoofscope/internal/obs"
)

// The observability-plane suite over the real TCP transport: every worker
// daemon serves its own /metrics and /healthz from its own Telemetry, the
// coordinator serves /cluster, and the wire-level trace spans land in the
// coordinator's journal and histograms — all asserted against the merged
// checkpoint and the persisted ledger, the ground truth the rest of the
// cluster suite already proves byte-exact.

// startWorkerDaemon runs the spoofscope-worker shape: a TCP worker with its
// own Telemetry, publishing its own health, served on its own address (the
// daemon's -metrics-addr). It returns that endpoint's base URL and the
// daemon's Telemetry, whose journal no endpoint serves.
func startWorkerDaemon(t *testing.T, name, addr string, secret []byte) (string, *obs.Telemetry) {
	t.Helper()
	tel := obs.NewTelemetry()
	startTCPWorker(t, addr, wallClock{}, WorkerConfig{Name: name, Secret: secret, Telemetry: tel, PublishHealth: true})
	srv, err := obs.Serve("127.0.0.1:0", tel)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv.URL(), tel
}

// getJSON fetches url, decodes its JSON body into v, and returns the HTTP
// status code.
func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: decoding: %v", url, err)
	}
	return resp.StatusCode
}

// TestFleetStatusMatchesLedger is the acceptance run for the per-process
// plane: two TCP worker daemons, each with its own Telemetry, feed one
// coordinator. The coordinator's /cluster must list both live workers at
// the coordinator's epoch with shard rows equal to the persisted ledger's;
// each daemon's /healthz must report ready; summing the per-class counters
// scraped from the two daemons' own /metrics — how a Prometheus deployment
// reads a fleet — must give exactly the merged checkpoint's tallies; each
// daemon's compile-stage epoch-propagation histogram must be populated, and
// each full epoch a daemon classified under must have closed its
// first-verdict stage exactly once; and the checkpoint must stay
// byte-identical to the single-process run.
func TestFleetStatusMatchesLedger(t *testing.T) {
	flows := testFlows(2000)
	secret := []byte("fleet-status-secret")
	ledgerPath := filepath.Join(t.TempDir(), "shards.ledger")

	ctel := obs.NewTelemetry()
	coord, err := NewCoordinator(Config{
		Shards:            4,
		Members:           testMembers,
		Start:             tcStart,
		Bucket:            time.Hour,
		HeartbeatInterval: 20 * time.Millisecond,
		Secret:            secret,
		LedgerPath:        ledgerPath,
		Telemetry:         ctel,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go coord.Serve(ln)
	csrv, err := obs.Serve("127.0.0.1:0", ctel)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { csrv.Close() })

	var daemons []string
	var daemonTels []*obs.Telemetry
	for _, name := range []string{"w0", "w1"} {
		url, tel := startWorkerDaemon(t, name, ln.Addr().String(), secret)
		daemons, daemonTels = append(daemons, url), append(daemonTels, tel)
	}
	await(t, "both worker daemons joined", func() bool { return joinCount(ctel) >= 2 })

	if _, err := coord.DistributeEpoch(testRIB()); err != nil {
		t.Fatal(err)
	}
	for _, f := range flows {
		coord.Ingest(f)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cp, err := coord.Checkpoint(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// /cluster: both live workers at the coordinator's epoch, and — once the
	// checkpoint's ledger write lands — shard rows equal to the ledger's.
	var fs FleetStatus
	await(t, "/cluster matches the persisted ledger", func() bool {
		fs = FleetStatus{}
		getJSON(t, csrv.URL()+"/cluster", &fs)
		lg, err := loadLedgerFile(ledgerPath)
		if err != nil || len(lg.shards) != len(fs.Shards) {
			return false
		}
		for _, row := range fs.Shards {
			ls := lg.shards[row.ID]
			if row.Cursor != ls.cursor || row.AckBase != ls.ackBase ||
				row.LastOwner != ls.lastOwner || row.ReplayDepth != ls.replayFlows() {
				return false
			}
		}
		return true
	})
	if fs.Role != "coordinator" || len(fs.Workers) != 2 ||
		fs.Workers[0].Identity != "w0" || fs.Workers[1].Identity != "w1" {
		t.Fatalf("fleet status workers: %+v", fs)
	}
	shards := 0
	for _, w := range fs.Workers {
		if w.EpochSeq != coord.EpochSeq() {
			t.Fatalf("worker %s at epoch %d, coordinator at %d", w.Identity, w.EpochSeq, coord.EpochSeq())
		}
		shards += w.Shards
	}
	if shards != len(fs.Shards) {
		t.Fatalf("workers own %d shards of %d: %+v", shards, len(fs.Shards), fs)
	}

	// Each daemon answers readiness from local state.
	for _, url := range daemons {
		var h obs.Health
		await(t, url+"/healthz ready", func() bool {
			return getJSON(t, url+"/healthz", &h) == http.StatusOK && h.Ready
		})
	}

	// The fleet's per-class tallies are the sum of the daemons' own scrapes —
	// exactly, once reassigned shards have resumed on their new owner.
	want := make(map[string]uint64)
	for c := 0; c < core.NumTrafficClasses; c++ {
		want[core.TrafficClass(c).String()] = cp.Agg.Total[c].Flows
	}
	var sums map[string]uint64
	await(t, "per-class sums over the daemons' scrapes match the checkpoint", func() bool {
		sums = make(map[string]uint64)
		for _, url := range daemons {
			var fams []obs.JSONFamily
			getJSON(t, url+"/metrics?format=json", &fams)
			for _, f := range fams {
				if f.Name != MetricWorkerClassFlows {
					continue
				}
				for _, s := range f.Samples {
					sums[s.Labels["class"]] += uint64(*s.Value)
				}
			}
		}
		return maps.Equal(sums, want)
	})

	// Each daemon's own registry holds its epoch-propagation compile stage.
	// A full epoch's first classified frame closes its first-verdict stage:
	// one journal event under the trace its compile stage journaled, and one
	// sample. A daemon whose link drops compiles the epoch again, under a new
	// trace, when it rejoins; each compile closes at most once.
	classifiers := 0
	for i, url := range daemons {
		var fams []obs.JSONFamily
		getJSON(t, url+"/metrics?format=json", &fams)
		stages := make(map[string]uint64)
		classified := uint64(0)
		for _, f := range fams {
			for _, s := range f.Samples {
				switch f.Name {
				case MetricEpochPropagation:
					stages[s.Labels["stage"]] += s.Histogram.Count
				case MetricWorkerClassFlows:
					classified += uint64(*s.Value)
				}
			}
		}
		if stages["compile"] == 0 {
			t.Fatalf("%s: compile-stage epoch propagation histogram empty", url)
		}
		compiled := make(map[string]bool)
		verdicts := make(map[string]int)
		events, _ := daemonTels[i].Journal.EventsSince(0, obs.EventSpanEpoch)
		for _, e := range events {
			switch m := epochSpanRE.FindStringSubmatch(e.Msg); {
			case m == nil:
			case m[2] == "compile":
				compiled[m[1]] = true
			case !compiled[m[1]]:
				t.Fatalf("%s: first verdict under trace %s, which compiled nothing", url, m[1])
			default:
				verdicts[m[1]]++
			}
		}
		for trace, n := range verdicts {
			if n != 1 {
				t.Fatalf("%s: %d first verdicts under trace %s", url, n, trace)
			}
		}
		if stages["first-verdict"] != uint64(len(verdicts)) {
			t.Fatalf("%s: %d first-verdict samples for %d journaled first verdicts",
				url, stages["first-verdict"], len(verdicts))
		}
		if classified > 0 {
			classifiers++
			if len(verdicts) == 0 {
				t.Fatalf("%s classified %d flows and closed no first-verdict stage", url, classified)
			}
		}
	}
	if classifiers == 0 {
		t.Fatal("no daemon classified a flow")
	}

	var buf bytes.Buffer
	if err := core.EncodeCheckpoint(&buf, cp); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), singleProcessCheckpoint(t, testTrace(flows))) {
		t.Fatal("checkpoint diverged from the single-process run")
	}
}

var epochSpanRE = regexp.MustCompile(`^trace ([0-9a-f]{16}) epoch \d+ stage=(compile|first-verdict)`)

var spanRE = regexp.MustCompile(`^trace ([0-9a-f]{16}) shard (\d+) stage=(\w+)`)

// handoffSpanStages parses the journal's span-handoff events into
// per-trace stage sets.
func handoffSpanStages(tel *obs.Telemetry) map[string]map[string]bool {
	spans := make(map[string]map[string]bool)
	events, _ := tel.Journal.EventsSince(0, obs.EventSpanHandoff)
	for _, e := range events {
		m := spanRE.FindStringSubmatch(e.Msg)
		if m == nil {
			continue
		}
		key := m[1] + "/" + m[2]
		if spans[key] == nil {
			spans[key] = make(map[string]bool)
		}
		spans[key][m[3]] = true
	}
	return spans
}

// TestChaosHandoffSpans runs a kill and a partition with a reader polling
// the coordinator's fleet status concurrently. Three invariants: no shard's
// Cursor or AckBase ever decreases between two reads, AckBase never passes
// Cursor, and every handoff span that started reached a terminal stage
// (resumed, or abandoned by a superseding handoff) with its stage
// histograms populated.
func TestChaosHandoffSpans(t *testing.T) {
	flows := testFlows(2000)
	secret := []byte("chaos-spans-secret")

	ctel := obs.NewTelemetry()
	// Chaos runs journal heavily; a roomy ring keeps every span event for
	// the completeness check.
	ctel.Journal = obs.NewJournal(16384)
	coord, clk := newVirtualCoordinator(t, Config{
		Shards:            6,
		Members:           testMembers,
		Start:             tcStart,
		Bucket:            time.Hour,
		HeartbeatInterval: 20 * time.Millisecond,
		Secret:            secret,
		Telemetry:         ctel,
	})

	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { inner.Close() })
	ln := newCutListener(inner)
	go coord.Serve(ln)
	addr := inner.Addr().String()

	// One at a time, so the accepted links come in worker order.
	var wa *Worker
	var killVictim func()
	for i, name := range []string{"wa", "wb", "wc"} {
		w, kill := startTCPWorker(t, addr, clk, WorkerConfig{Name: name, Secret: secret})
		if i == 0 {
			wa = w
		}
		await(t, name+" joined", func() bool { return joinCount(ctel) == i+1 })
		killVictim = kill
	}
	<-ln.cuts
	partitioned := <-ln.cuts // wb's
	if _, err := coord.DistributeEpoch(testRIB()); err != nil {
		t.Fatal(err)
	}
	awaitOwners(t, coord, "wa", "wb", "wc")

	// Concurrent fleet-status reader: every shard's cursors must move
	// forward only, with the durable position never ahead of the routed one.
	rctx, stopReader := context.WithCancel(context.Background())
	reads := 0
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		last := make(map[uint32]ShardStatus)
		for {
			select {
			case <-rctx.Done():
				return
			case <-tick.C:
			}
			for _, row := range coord.FleetStatus().Shards {
				prev, seen := last[row.ID]
				if row.AckBase > row.Cursor || seen && (row.Cursor < prev.Cursor || row.AckBase < prev.AckBase) {
					t.Errorf("shard %d went from cursor %d ackBase %d to cursor %d ackBase %d",
						row.ID, prev.Cursor, prev.AckBase, row.Cursor, row.AckBase)
					return
				}
				last[row.ID] = row
			}
			reads++
		}
	}()

	for _, f := range flows[:700] {
		coord.Ingest(f)
	}
	// Kill: the victim (wc) dies without a final report; its connection
	// closes, and its shards hand off at once.
	killVictim()
	waitStats(t, coord, "the killed worker's shards handed off", func(st Stats) bool { return st.Handoffs > 0 })
	for _, f := range flows[700:1400] {
		coord.Ingest(f)
	}
	// Partition: wb's link goes silent without closing; the coordinator's
	// clock moves on until the deadline drops it. wb redials and rejoins.
	handed := coord.Stats().Handoffs
	partitioned.stall()
	elapse(t, coord, clk, "partitioned link declared dead", func() bool { return coord.Stats().Handoffs > handed }, wa)
	for _, f := range flows[1400:] {
		coord.Ingest(f)
	}

	got := checkpointBytes(t, coord, clk)
	stopReader()
	<-readerDone
	if reads == 0 {
		t.Fatal("fleet-status reader never ran")
	}
	if !bytes.Equal(got, singleProcessCheckpoint(t, testTrace(flows))) {
		t.Fatal("checkpoint diverged under chaos with a concurrent fleet-status reader")
	}

	// Every handoff span that started reached a terminal stage, and the
	// trace walked the full grammar to get there. A handoff that starts near
	// the end of the feed (the partitioned worker's rejoin triggers graceful
	// moves) resolves on a later tick-driven report, so time keeps running
	// while in-flight spans land their terminal stage.
	terminal := func(stages map[string]bool) bool {
		return stages["resumed"] || stages["abandoned"]
	}
	defer clk.run(coord.cfg.interval())()
	var spans map[string]map[string]bool
	await(t, "every handoff span terminated", func() bool {
		spans = handoffSpanStages(ctel)
		for _, stages := range spans {
			if !terminal(stages) {
				return false
			}
		}
		return len(spans) > 0
	})
	resumed := 0
	for key, stages := range spans {
		if !stages["start"] {
			t.Fatalf("span %s has no start stage: %v", key, stages)
		}
		if stages["resumed"] {
			if !stages["reassign"] {
				t.Fatalf("span %s resumed without a reassign stage: %v (all: %s)", key, stages, spanSummary(spans))
			}
			resumed++
		}
	}
	if resumed == 0 {
		t.Fatal("no handoff span completed start→reassign→resumed")
	}
	// The measured side of the same spans: reassign and resumed stage
	// histograms hold at least the resumed spans' observations.
	observed := map[string]uint64{}
	for _, f := range ctel.Metrics.Export() {
		if f.Name == MetricHandoff {
			for _, s := range f.Samples {
				observed[s.Labels["stage"]] += s.Histogram.Count
			}
		}
	}
	for _, stage := range []string{"reassign", "resumed"} {
		if observed[stage] == 0 {
			t.Fatalf("handoff %s histogram empty after chaos (observed %v)", stage, observed)
		}
	}
}

func spanSummary(spans map[string]map[string]bool) string {
	var out []string
	for key, stages := range spans {
		var ss []string
		for s := range stages {
			ss = append(ss, s)
		}
		out = append(out, fmt.Sprintf("%s:%s", key, strings.Join(ss, "+")))
	}
	return strings.Join(out, " ")
}
