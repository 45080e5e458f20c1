// Command classify runs the passive spoofing detector over a scenario
// directory produced by cmd/ixpgen (or over real MRT + IPFIX data laid out
// the same way) and prints the per-class summary plus, optionally, a JSON
// report with per-member statistics.
//
// Usage:
//
//	classify -data ixp-data/ [-json report.json] [-no-orgs]
//	         [-checkpoint run.ckpt [-checkpoint-every N]]
//	         [-workers N] [-cluster N [-shards M]]
//	         [-metrics-addr host:port]
//	         [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// With -checkpoint, the aggregate state is snapshotted atomically every N
// flows; re-running after a crash resumes from the snapshot and produces
// the same final tallies as an uninterrupted run.
//
// A single-process run drives the live runtime: -workers N classifies with
// N workers of the batch drain loop (0 is 1), which aggregate in place and
// spill to a private shard only under contention. A reader goroutine pushes
// each decoded message with backpressure (never shedding), so the final
// tallies — and any checkpoint written — are identical across worker counts.
// In cluster mode every shard runtime drains with one worker; -workers does
// not apply.
//
// With -cluster N the run uses the fault-tolerant coordinator/worker
// runtime in-process: flows shard by ingress member across N workers (each
// with its own locally compiled pipeline), and the result is the merged
// worker checkpoints — identical to the single-process pass. -shards M
// sets the handoff granularity (default 4 per worker). With an existing
// -checkpoint file, the cluster run resumes from it: the baseline folds
// into the merged result and only the remaining flows are fed. -ledger
// additionally persists the coordinator's shard ledger, so a killed
// coordinator restarted over the same flags resumes mid-run.
//
// With -coordinator-addr the coordinator also listens on TCP for external
// spoofscope-worker daemons (authenticated by -secret / -secret-file);
// -cluster may then be 0 to rely on external workers entirely. -standby
// runs a warm standby instead: it tails the -ledger and waits for the
// primary's listen address to free, then takes over and finishes the run.
//
// With -metrics-addr the run serves /metrics (Prometheus text), /healthz,
// /events (incremental with ?since= and ?kind=), and /debug/pprof while it
// classifies. A cluster-mode run additionally serves /cluster — the fleet
// status JSON (per-shard cursors and replay depth, the live workers and
// their epochs, ledger state). In-process workers share this /metrics;
// each external worker daemon serves its own on its -metrics-addr.
// SIGINT/SIGTERM stop the run gracefully: intake closes, the queue drains,
// a final checkpoint is written (with -checkpoint), and the summary plus
// the telemetry event journal are printed for the flows classified so far.
package main

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"spoofscope/internal/bgp"
	"spoofscope/internal/cluster"
	"spoofscope/internal/core"
	"spoofscope/internal/ipfix"
	"spoofscope/internal/netx"
	"spoofscope/internal/obs"
	"spoofscope/internal/org"
	"spoofscope/internal/stats"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("classify: ")
	var (
		dataDir  = flag.String("data", "ixp-data", "scenario directory from ixpgen")
		jsonOut  = flag.String("json", "", "optional JSON report path")
		noOrgs   = flag.Bool("no-orgs", false, "disable multi-AS organisation merging (ablation)")
		noRouter = flag.Bool("no-routers", false, "skip stray-router tagging")
		aclFor   = flag.Uint("acl", 0, "print the FULL-cone ingress ACL for this member ASN and exit")
		ckptPath = flag.String("checkpoint", "", "crash-safe checkpoint file: resume from it if present, snapshot to it periodically")
		ckptN    = flag.Uint64("checkpoint-every", 100000, "flows between checkpoint snapshots (with -checkpoint)")
		workersN = flag.Int("workers", 0, "drain workers of a single-process run (0 = 1; cluster workers drain each shard with one)")
		clusterN = flag.Int("cluster", 0, "run the coordinator/worker cluster runtime with this many in-process workers (0 = off)")
		shardsN  = flag.Int("shards", 0, "ingress-member shards in cluster mode (default 4 per worker)")
		coordTCP = flag.String("coordinator-addr", "", "also listen on this TCP address for external spoofscope-worker daemons (enables cluster mode)")
		secret   = flag.String("secret", "", "shared secret authenticating cluster workers")
		secretF  = flag.String("secret-file", "", "read the cluster secret from this file (trailing newline ignored)")
		ledgerP  = flag.String("ledger", "", "persist the coordinator's shard ledger to this file; resume from it if present")
		standby  = flag.Bool("standby", false, "run as a warm-standby coordinator: tail -ledger, take over -coordinator-addr when the primary dies")
		compress = flag.Bool("compress", false, "deflate flow batches on the cluster wire (for real networks)")
		metrics  = flag.String("metrics-addr", "", "serve /metrics, /healthz, /events, and /debug/pprof on this address during the run")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile at exit to this file")
	)
	flag.Parse()
	clusterMode := *clusterN > 0 || *coordTCP != ""
	if *shardsN > 0 && !clusterMode {
		log.Fatal("-shards requires -cluster or -coordinator-addr")
	}
	if *standby && (*coordTCP == "" || *ledgerP == "") {
		log.Fatal("-standby requires -coordinator-addr and -ledger")
	}
	if (*secret != "" || *secretF != "" || *ledgerP != "" || *standby || *compress) && !clusterMode {
		log.Fatal("-secret/-ledger/-standby/-compress require cluster mode (-cluster or -coordinator-addr)")
	}
	clusterSecret := []byte(*secret)
	if *secretF != "" {
		if *secret != "" {
			log.Fatal("-secret and -secret-file are mutually exclusive")
		}
		b, err := os.ReadFile(*secretF)
		if err != nil {
			log.Fatal(err)
		}
		clusterSecret = []byte(strings.TrimRight(string(b), "\r\n"))
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	// Routing data.
	mrt, err := os.Open(filepath.Join(*dataDir, "routing.mrt"))
	if err != nil {
		log.Fatal(err)
	}
	rib := bgp.NewRIB()
	if err := rib.LoadMRT(mrt); err != nil {
		log.Fatal(err)
	}
	mrt.Close()
	log.Printf("RIB: %d prefixes, %d announcements", rib.NumPrefixes(), len(rib.Announcements()))

	// Members.
	members, err := readMembers(filepath.Join(*dataDir, "members.csv"))
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("members: %d", len(members))

	// Organisations, unless the org-merge ablation leaves them out.
	var opts core.Options
	if !*noOrgs {
		if f, err := os.Open(filepath.Join(*dataDir, "orgs.json")); err == nil {
			ds, err := org.Read(f)
			f.Close()
			if err != nil {
				log.Fatal(err)
			}
			opts.Orgs = ds.MultiASGroups()
			log.Printf("organisations: %d (%d multi-AS)", ds.Len(), len(opts.Orgs))
		}
	}
	if !*noRouter {
		if addrs, err := readRouters(filepath.Join(*dataDir, "routers.txt")); err == nil {
			opts.Routers = netx.NewAddrSet(addrs)
			log.Printf("router addresses: %d", len(addrs))
		}
	}

	// RebuildPipeline with a nil predecessor is a cold NewPipeline that also
	// reports BuildStats, so the initial compile shows up in the journal and
	// the build-duration gauge exactly like later rebuilds would. In cluster
	// mode each worker compiles its own copy from the same options; this one
	// still serves -acl and validates the data up front.
	pipeline, bstats, err := core.RebuildPipeline(nil, rib, members, opts)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("pipeline: %s build in %s (%d workers, %d ASes)",
		bstats.Reuse, bstats.Duration.Round(time.Millisecond), bstats.Workers, bstats.ASes)

	if *aclFor != 0 {
		acl, err := pipeline.FilterList(bgp.ASN(*aclFor), core.ApproachFull)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("# ingress whitelist for AS%d (full cone), %d prefixes\n", *aclFor, len(acl))
		for _, p := range acl {
			fmt.Println(p)
		}
		return
	}

	// Graceful stop: SIGINT/SIGTERM close intake, the queue drains, and the
	// summary (plus final checkpoint, with -checkpoint) covers the flows
	// classified so far.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	var tel *obs.Telemetry
	if *metrics != "" {
		tel = obs.NewTelemetry()
		srv, err := obs.Serve(*metrics, tel)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		log.Printf("telemetry: %s/metrics", srv.URL())
	}

	// Classify the flow file in a streaming pass.
	flows, err := os.Open(filepath.Join(*dataDir, "flows.ipfix"))
	if err != nil {
		log.Fatal(err)
	}
	defer flows.Close()
	fr := ipfix.NewFileReader(flows)
	var agg *core.Aggregator
	var n int
	if clusterMode {
		shards := *shardsN
		if shards <= 0 {
			workers := *clusterN
			if workers <= 0 {
				workers = 1
			}
			shards = 4 * workers
		}
		agg, n = classifyCluster(ctx, fr, rib, members, opts, clusterRunConfig{
			workers:   *clusterN,
			shards:    shards,
			ckptPath:  *ckptPath,
			coordAddr: *coordTCP,
			secret:    clusterSecret,
			ledger:    *ledgerP,
			standby:   *standby,
			compress:  *compress,
		}, tel)
	} else {
		agg, n = classifyRun(ctx, fr, pipeline, bstats, *workersN, *ckptPath, *ckptN, tel)
	}
	for _, m := range members {
		agg.SetMemberASN(m.Port, m.ASN)
	}
	log.Printf("classified %d flows", n)

	printSummary(agg, len(members))
	if tel != nil {
		fmt.Println("event journal:")
		fmt.Println(tel.Journal.Summary(10))
	}

	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, agg); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s", *jsonOut)
	}

	if *memProf != "" {
		runtime.GC()
		f, err := os.Create(*memProf)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Fatal(err)
		}
		f.Close()
	}
}

// classifyRun drives the live runtime over the flow file (see runFeed).
// Checkpoints are the runtime's quiescent snapshots — one format, resumable
// by either worker mode — and the final aggregate is identical across worker
// counts. A cancelled ctx (SIGINT/SIGTERM) closes intake, drains the queue,
// and returns the partial aggregate instead of failing.
func classifyRun(ctx context.Context, fr *ipfix.FileReader, pipeline *core.Pipeline, bstats core.BuildStats, workers int, ckptPath string, ckptN uint64, tel *obs.Telemetry) (*core.Aggregator, int) {
	rtc := core.RuntimeConfig{
		Pipeline: pipeline,
		Start:    time.Unix(0, 0).UTC(), Bucket: 1 << 62, // single bucket
		Queue:           core.QueueConfig{Capacity: 8192},
		CheckpointPath:  ckptPath,
		CheckpointEvery: ckptN,
		Telemetry:       tel,
	}
	skip := uint64(0)
	if ckptPath != "" {
		if cp, err := core.ReadCheckpointFile(ckptPath); err == nil {
			rtc.Resume = cp
			skip = cp.Ingested
			log.Printf("resuming from %s: %d flows already processed", ckptPath, cp.Processed)
		} else if !os.IsNotExist(err) {
			log.Fatal(err)
		}
	}
	rt, err := core.NewRuntime(rtc)
	if err != nil {
		log.Fatal(err)
	}
	// Surface the initial compile through the runtime's build telemetry
	// (journal event, duration histogram + last-build gauge, builds counter)
	// so operators see it alongside any later epoch rebuilds.
	rt.RecordBuild(bstats)
	interrupted, err := runFeed(ctx, fr, rt, skip, workers)
	if err != nil {
		log.Fatal(err)
	}
	if interrupted {
		log.Printf("interrupted: stopped after %d flows", rt.Stats().Processed)
	}
	if ckptPath != "" {
		if err := rt.Checkpoint(); err != nil {
			log.Fatal(err)
		}
		log.Printf("checkpoint: %s", ckptPath)
	}
	return rt.Aggregator(), int(rt.Stats().Processed)
}

// runFeed replays the flow file through rt. A reader goroutine feeds decoded
// messages with backpressure (IngestBatchWait never sheds, so every flow is
// classified), leaving out the first skip flows — the ones a resumed
// checkpoint already accounts for — while max(workers, 1) drain workers
// consume (0 must not reach RunParallel, where it means GOMAXPROCS). It
// returns once the file is exhausted
// and the queue drained, or, with interrupted set, once a cancelled ctx has
// closed intake and the queue drained.
func runFeed(ctx context.Context, fr *ipfix.FileReader, rt *core.Runtime, skip uint64, workers int) (interrupted bool, err error) {
	feedErr := make(chan error, 1)
	go func() {
		defer rt.Close() // drained consumers exit once the queue empties
		// IngestBatchWait reports false after Close (interrupt), which stops
		// the read.
		feedErr <- fr.ForEachBatch(skipFirst(skip, rt.IngestBatchWait))
	}()
	err = rt.RunParallel(ctx, max(workers, 1), nil)
	interrupted = errors.Is(err, context.Canceled)
	if err != nil && !interrupted {
		return false, err
	}
	return interrupted, <-feedErr
}

// clusterRunConfig bundles the cluster-mode knobs.
type clusterRunConfig struct {
	workers   int    // in-process workers (0 allowed with a coordAddr)
	shards    int    // handoff granularity
	ckptPath  string // resume baseline in, merged checkpoint out
	coordAddr string // TCP listen address for external worker daemons
	secret    []byte // hello HMAC key
	ledger    string // shard-ledger path (crash-resume)
	standby   bool   // wait for the primary to die, then take over
	compress  bool   // deflate flow batches on the wire
}

// classifyCluster drives the coordinator/worker runtime: the coordinator
// shards flows by ingress member across in-process workers (net.Pipe) and,
// with a coordinator address, external spoofscope-worker daemons over TCP.
// The final answer is the merged worker checkpoints — byte-identical to
// what classifyRun would produce over the same flows. An existing
// checkpoint file is the resume baseline; a persisted shard ledger resumes
// a killed coordinator mid-run (the feed skips everything either already
// incorporates). A cancelled ctx stops the feed; the checkpoint then covers
// exactly the flows fed so far.
func classifyCluster(ctx context.Context, fr *ipfix.FileReader, rib *bgp.RIB, members []core.MemberInfo, opts core.Options, rc clusterRunConfig, tel *obs.Telemetry) (*core.Aggregator, int) {
	// In-process workers share this CPU with their own pipeline compiles, so
	// a generous heartbeat keeps a busy compile from reading as a dead link
	// (a starved worker is still handled correctly — its shards hand off and
	// it rejoins — but the churn is noise here).
	ccfg := cluster.Config{
		Shards:  rc.shards,
		Members: members,
		Start:   time.Unix(0, 0).UTC(), Bucket: 1 << 62, // single bucket
		HeartbeatInterval: 2 * time.Second,
		Secret:            rc.secret,
		Compress:          rc.compress,
		LedgerPath:        rc.ledger,
		Telemetry:         tel,
	}
	if rc.ckptPath != "" {
		if cp, err := core.ReadCheckpointFile(rc.ckptPath); err == nil {
			ccfg.Resume = cp
			log.Printf("resuming cluster run from %s: %d flows already incorporated", rc.ckptPath, cp.Processed)
		} else if !os.IsNotExist(err) {
			log.Fatal(err)
		}
	}

	var coord *cluster.Coordinator
	var ln net.Listener
	var err error
	if rc.standby {
		log.Printf("standby: tailing %s, waiting for %s to free", rc.ledger, rc.coordAddr)
		coord, ln, err = cluster.RunStandby(ctx, cluster.StandbyConfig{
			Coordinator: ccfg,
			Listen:      func() (net.Listener, error) { return net.Listen("tcp", rc.coordAddr) },
		})
		if err != nil {
			log.Fatalf("standby: %v", err)
		}
		log.Printf("standby: took over %s", ln.Addr())
	} else {
		coord, err = cluster.NewCoordinator(ccfg)
		if err != nil {
			log.Fatal(err)
		}
		if rc.coordAddr != "" {
			ln, err = net.Listen("tcp", rc.coordAddr)
			if err != nil {
				log.Fatal(err)
			}
			log.Printf("cluster: listening on %s for workers", ln.Addr())
		}
	}
	defer coord.Close()
	if ln != nil {
		defer ln.Close()
		go coord.Serve(ln)
	}

	wctx, stopWorkers := context.WithCancel(context.Background())
	defer stopWorkers()
	var wg sync.WaitGroup
	for i := 0; i < rc.workers; i++ {
		w, err := cluster.NewWorker(cluster.WorkerConfig{
			Name:   fmt.Sprintf("worker-%d", i),
			Secret: rc.secret,
			Dial: func() (net.Conn, error) {
				workerSide, coordSide := net.Pipe()
				coord.AddConn(coordSide)
				return workerSide, nil
			},
			Opts:              opts,
			HeartbeatInterval: 2 * time.Second,
			Seed:              int64(i),
			// In-process workers share the coordinator's Telemetry, so
			// their series are on its /metrics; an external
			// spoofscope-worker daemon serves its own.
			Telemetry: tel,
		})
		if err != nil {
			log.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(wctx)
		}()
	}

	// A ledger-restored coordinator already carries a distributed epoch;
	// redistributing would count a spurious swap and desynchronize the
	// checkpoint from the fault-free run.
	restored := coord.Stats().FlowsRouted
	if coord.EpochSeq() == 0 {
		if seq, err := coord.DistributeEpoch(rib); err != nil {
			log.Fatal(err)
		} else {
			log.Printf("cluster: %d in-process workers, %d shards, epoch %d distributed",
				rc.workers, rc.shards, seq)
		}
	} else {
		log.Printf("cluster: resumed epoch %d from the shard ledger, %d flows already routed",
			coord.EpochSeq(), restored)
	}

	// Skip everything already incorporated: the resume baseline's flows,
	// then the restored ledger's feed position past it.
	skip := restored
	if ccfg.Resume != nil {
		skip += ccfg.Resume.Ingested
	}
	fed := 0
	sink := skipFirst(skip, func(batch []ipfix.Flow) bool {
		if ctx.Err() != nil {
			return false // interrupt: stop reading the file
		}
		coord.Ingest(batch...)
		fed += len(batch)
		return true
	})
	if err := fr.ForEachBatch(sink); err != nil {
		log.Fatal(err)
	}
	if ctx.Err() != nil {
		log.Printf("interrupted: stopped after %d flows fed", fed)
	}

	// Checkpoint blocks until every fed flow has been durably reported by
	// its owning worker, so the merge is complete even right after a feed.
	cctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cp, err := coord.Checkpoint(cctx)
	if err != nil {
		log.Fatalf("cluster checkpoint: %v", err)
	}
	st := coord.Stats()
	log.Printf("cluster: %d flows routed, %d handoffs, %d rebalances, %d reclaims, %d ledger writes",
		st.FlowsRouted, st.Handoffs, st.Rebalances, st.Reclaims, st.LedgerWrites)
	if rc.ckptPath != "" {
		if err := core.WriteCheckpointFile(rc.ckptPath, cp); err != nil {
			log.Fatal(err)
		}
		log.Printf("checkpoint: %s", rc.ckptPath)
	}
	if rc.ledger != "" {
		if err := coord.SyncLedger(); err != nil {
			log.Printf("ledger sync: %v", err)
		}
	}
	stopWorkers()
	wg.Wait()
	return cp.Agg, int(cp.Processed)
}

// skipFirst returns sink with the first n flows offered to it left out — the
// flows a resumed checkpoint already accounts for. The cursor may fall inside
// a message; that message is delivered as the tail past it.
func skipFirst(n uint64, sink func([]ipfix.Flow) bool) func([]ipfix.Flow) bool {
	return func(batch []ipfix.Flow) bool {
		if n >= uint64(len(batch)) {
			n -= uint64(len(batch))
			return true
		}
		batch, n = batch[n:], 0
		return sink(batch)
	}
}

func readMembers(path string) ([]core.MemberInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := csv.NewReader(f)
	rows, err := r.ReadAll()
	if err != nil {
		return nil, err
	}
	var out []core.MemberInfo
	for i, row := range rows {
		if i == 0 || len(row) < 2 {
			continue // header
		}
		port, err := strconv.ParseUint(row[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("members.csv row %d: %w", i, err)
		}
		asn, err := strconv.ParseUint(row[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("members.csv row %d: %w", i, err)
		}
		out = append(out, core.MemberInfo{ASN: bgp.ASN(asn), Port: uint32(port)})
	}
	return out, nil
}

// readRouters reads routers.txt: one router interface address per line.
func readRouters(path string) ([]netx.Addr, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var addrs []netx.Addr
	var line string
	for {
		if _, err := fmt.Fscanln(f, &line); err != nil {
			if err == io.EOF {
				return addrs, nil
			}
			return nil, err
		}
		a, err := netx.ParseAddr(line)
		if err != nil {
			return nil, err
		}
		addrs = append(addrs, a)
	}
}

func printSummary(agg *core.Aggregator, totalMembers int) {
	t := &stats.Table{Header: []string{"class", "members", "flows", "packets", "bytes", "pkt share"}}
	for _, c := range []core.TrafficClass{
		core.TCBogon, core.TCUnrouted,
		core.TCInvalidFull, core.TCInvalidNaive, core.TCInvalidCC, core.TCRegular,
	} {
		cnt := agg.Total[c]
		t.AddRow(c.String(), agg.ContributingMembers(c),
			int(cnt.Flows), int(cnt.Packets), int(cnt.Bytes),
			stats.Percent(float64(cnt.Packets)/float64(agg.GrandTotal.Packets)))
	}
	fmt.Println(t.Render())
	fmt.Printf("members total: %d; unknown ingress flows: %d\n", totalMembers, agg.UnknownPorts)
}

// memberReport is the JSON shape of one member's statistics.
type memberReport struct {
	Port     uint32 `json:"port"`
	ASN      uint32 `json:"asn"`
	Packets  uint64 `json:"packets"`
	Bogon    uint64 `json:"bogonPackets"`
	Unrouted uint64 `json:"unroutedPackets"`
	Invalid  uint64 `json:"invalidFullPackets"`
	RouterIP uint64 `json:"routerIPInvalidPackets"`
}

func writeJSON(path string, agg *core.Aggregator) error {
	var reports []memberReport
	for _, m := range agg.Members() {
		reports = append(reports, memberReport{
			Port:     m.Port,
			ASN:      uint32(m.ASN),
			Packets:  m.Total.Packets,
			Bogon:    m.ByClass[core.TCBogon].Packets,
			Unrouted: m.ByClass[core.TCUnrouted].Packets,
			Invalid:  m.ByClass[core.TCInvalidFull].Packets,
			RouterIP: m.RouterIPInvalid,
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(reports)
}
