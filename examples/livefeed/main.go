// Livefeed: the full live runtime fed over the network — classify flows as
// they arrive, shed deterministically under pressure, and checkpoint the
// aggregate state crash-safely. An IPFIX exporter streams the simulation's
// traffic over UDP (RFC 7011 wire format, template retransmission included)
// through a faultnet schedule that corrupts every 7th datagram's header;
// the collector counts and skips the damage, pushes surviving flows into
// the runtime's bounded ingest queue, and a consumer goroutine classifies
// them as they drain. At the end the run's aggregate is snapshotted with
// the versioned checkpoint codec and read back — the artifact a multi-week
// deployment would resume from after a crash.
//
// The whole run is observable: one Telemetry bundle serves /metrics,
// /healthz, and the event journal over an ephemeral HTTP port, and the
// example scrapes itself at the end — the same endpoints a Prometheus
// deployment would poll.
//
//	go run ./examples/livefeed
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"spoofscope"
	"spoofscope/internal/faultnet"
	"spoofscope/internal/ipfix"
)

func main() {
	log.SetFlags(0)
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	sim, err := spoofscope.NewSimulation(spoofscope.SimulationSizeSmall, 5)
	if err != nil {
		return err
	}

	dir, err := os.MkdirTemp("", "livefeed")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ckpt := filepath.Join(dir, "run.ckpt")

	// One telemetry bundle for the whole process: the runtime, the queue,
	// and the collector all register into it, and an embedded HTTP server
	// exposes it on an ephemeral port.
	tel := spoofscope.NewTelemetry()
	msrv, err := spoofscope.ServeMetrics("127.0.0.1:0", tel)
	if err != nil {
		return err
	}
	defer msrv.Close()
	log.Printf("telemetry on %s/metrics", msrv.URL())

	start, _ := sim.Env().Scenario.Window()
	rt, err := spoofscope.NewLiveRuntime(spoofscope.LiveRuntimeConfig{
		Classifier: sim.Classifier(),
		Members:    sim.Members(),
		Start:      start, Bucket: time.Hour,
		Queue:           spoofscope.QueueConfig{Capacity: 8192},
		CheckpointPath:  ckpt,
		CheckpointEvery: 2000,
		Telemetry:       tel,
	})
	if err != nil {
		return err
	}

	collector, err := ipfix.ListenUDP("127.0.0.1:0")
	if err != nil {
		return err
	}
	collector.Instrument(tel, "udp")
	log.Printf("collector listening on %s", collector.Addr())

	flows := sim.Flows()
	if len(flows) > 5000 {
		flows = flows[:5000]
	}

	// Consumer: drain the runtime with four batch-parallel workers until
	// intake closes, alerting on the first few spoofed flows. The observer
	// callback is serialized by RunParallel, so the plain map is safe.
	counts := map[spoofscope.Class]int{}
	alerts := 0
	consumerDone := make(chan struct{})
	go func() {
		defer close(consumerDone)
		rt.RunParallel(nil, 4, func(f spoofscope.Flow, v spoofscope.LiveVerdict) bool {
			counts[v.Class]++
			if v.Class != spoofscope.ClassValid && alerts < 8 {
				alerts++
				log.Printf("ALERT %-8s epoch=%d src=%s dst=%s port=%d ingress-member=%d",
					v.Class, v.Epoch, f.SrcAddr, f.DstAddr, f.DstPort, f.Ingress)
			}
			return true
		})
	}()

	// Exporter goroutine: errors propagate over errc — a failed exporter
	// must not kill the process from a goroutine.
	errc := make(chan error, 1)
	go func() { errc <- export(collector.Addr().String(), flows) }()

	// Collector → queue handoff: each decoded message's flows go into the
	// runtime's bounded queue as one batch (one consumer wake per message,
	// zero per-flow allocations); the consumer drains it concurrently.
	deadline := time.Now().Add(5 * time.Second)
	malformed, err := collector.ServeBatch(deadline, func(batch []spoofscope.Flow) bool {
		rt.IngestBatch(batch) // shed flows are accounted in Stats; keep serving
		return true
	})
	if err != nil {
		return err
	}
	if err := <-errc; err != nil {
		return fmt.Errorf("exporter: %w", err)
	}
	if err := collector.Shutdown(); err != nil {
		return err
	}
	rt.Close() // stop intake; the consumer drains what is queued
	<-consumerDone

	// Snapshot the finished run and prove the checkpoint reads back.
	if err := rt.Checkpoint(); err != nil {
		return err
	}
	cp, err := spoofscope.ReadCheckpoint(ckpt)
	if err != nil {
		return err
	}

	cstats := collector.Stats()
	rstats := rt.Stats()
	fmt.Printf("\ncollector: flows=%d malformed=%d (corrupted datagrams counted, not fatal: %d this run)\n",
		cstats.Flows, cstats.Malformed, malformed)
	fmt.Printf("runtime:   epoch=%d processed=%d stale=%d checkpoints=%d\n",
		rstats.Epoch, rstats.Processed, rstats.StaleVerdicts, rstats.Checkpoints)
	fmt.Printf("queue:     ingested=%d queued=%d shed=%d high-watermark=%d\n",
		rstats.Queue.Ingested, rstats.Queue.Queued, rstats.Queue.Shed,
		rstats.Queue.HighWatermarkObserved)
	fmt.Printf("checkpoint: %d flows / %d packets resumable from %s\n",
		cp.Processed, cp.Agg.GrandTotal.Packets, filepath.Base(ckpt))
	for _, c := range []spoofscope.Class{
		spoofscope.ClassValid, spoofscope.ClassBogon,
		spoofscope.ClassUnrouted, spoofscope.ClassInvalid,
	} {
		fmt.Printf("  %-9s %6d\n", c, counts[c])
	}

	// Self-scrape: the same exposition a Prometheus server would collect.
	if err := scrape(msrv.URL()); err != nil {
		return err
	}
	// Incremental journal polling: /events?since=<seq> returns only events
	// past the cursor plus the next cursor ("head"), so a poller re-reads
	// nothing. "gap" flags eviction between polls — history the bounded
	// ring lost, with the drop count on spoofscope_journal_dropped_total.
	if err := pollEvents(msrv.URL()); err != nil {
		return err
	}
	fmt.Println("\nevent journal:")
	fmt.Println(tel.Journal.Summary(6))
	return nil
}

// eventsPage is the /events envelope: the retained events (filtered by
// ?since= and ?kind=), the next poll cursor, and the loss markers.
type eventsPage struct {
	Dropped uint64 `json:"dropped"`
	Gap     bool   `json:"gap"`
	Head    uint64 `json:"head"`
	Events  []struct {
		Seq  uint64 `json:"seq"`
		Kind string `json:"kind"`
		Msg  string `json:"msg"`
	} `json:"events"`
}

// pollEvents walks the incremental /events API the way a long-lived
// monitor would: a filtered catch-up poll from zero, then a follow-up from
// the returned head cursor, which has nothing new to say.
func pollEvents(base string) error {
	get := func(url string) (eventsPage, error) {
		var page eventsPage
		resp, err := http.Get(url)
		if err != nil {
			return page, err
		}
		defer resp.Body.Close()
		return page, json.NewDecoder(resp.Body).Decode(&page)
	}
	page, err := get(base + "/events?since=0&kind=checkpoint")
	if err != nil {
		return err
	}
	fmt.Printf("\n/events?since=0&kind=checkpoint -> %d events, head=%d, gap=%v, dropped=%d\n",
		len(page.Events), page.Head, page.Gap, page.Dropped)
	for i, e := range page.Events {
		if i >= 3 {
			fmt.Println("  ...")
			break
		}
		fmt.Printf("  seq=%d %s: %s\n", e.Seq, e.Kind, e.Msg)
	}
	next, err := get(fmt.Sprintf("%s/events?since=%d", base, page.Head))
	if err != nil {
		return err
	}
	fmt.Printf("/events?since=%d -> %d new events (cursor caught up)\n",
		page.Head, len(next.Events))
	return nil
}

// scrape fetches /metrics and prints the spoofscope samples a deployment
// would alert on — per-class flow counts, queue accounting, collector
// health — plus the /healthz verdict.
func scrape(base string) error {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	fmt.Println("\nscraped from /metrics:")
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "spoofscope_flows_classified_total") ||
			strings.HasPrefix(line, "spoofscope_queue_") ||
			strings.HasPrefix(line, "spoofscope_collector_flows_total") ||
			strings.HasPrefix(line, "spoofscope_collector_malformed_total") {
			fmt.Println("  " + line)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	hz, err := http.Get(base + "/healthz")
	if err != nil {
		return err
	}
	defer hz.Body.Close()
	body := make([]byte, 256)
	n, _ := hz.Body.Read(body)
	fmt.Printf("\n/healthz -> %s %s", hz.Status, body[:n])
	return nil
}

// export streams flows in small batches through a deterministic fault
// schedule: every 7th datagram gets one header byte flipped, which the
// collector must absorb as a malformed-datagram count.
func export(addr string, flows []ipfix.Flow) error {
	raw, err := net.Dial("udp", addr)
	if err != nil {
		return err
	}
	conn := faultnet.Wrap(raw, faultnet.Config{Seed: 42, CorruptWriteEvery: 7})
	exporter := ipfix.NewUDPExporter(conn, 7)
	defer exporter.Close()
	now := time.Now()
	for off := 0; off < len(flows); off += 100 {
		end := off + 100
		if end > len(flows) {
			end = len(flows)
		}
		if err := exporter.Export(now, flows[off:end]); err != nil {
			return err
		}
		// Pace the stream so the collector's socket buffer keeps up.
		time.Sleep(2 * time.Millisecond)
	}
	log.Printf("exporter done: %d datagrams corrupted in flight", conn.Stats().CorruptedWrites)
	return nil
}
