// Command spoofscope-worker is the cluster worker daemon: it dials a
// classify coordinator over TCP, authenticates with the shared secret, and
// classifies whatever shards the coordinator assigns, compiling its own
// pipeline from each distributed routing epoch. Routing and member tables
// arrive over the wire; only the side tables that shape classification
// locally — the organisation dataset and router addresses — are read from
// -data, and they must match the coordinator's or shards would classify
// under different topologies.
//
// Usage:
//
//	spoofscope-worker -coordinator-addr host:port
//	                  [-name w1] [-identity-file worker.id]
//	                  [-secret s | -secret-file path]
//	                  [-data ixp-data/ [-no-orgs] [-no-routers]]
//	                  [-heartbeat 2s] [-max-attempts N]
//	                  [-metrics-addr host:port]
//
// The worker's identity is stable across restarts: -identity-file is read
// if present, otherwise a fresh identity is generated and persisted there
// (write-temp+sync+rename). A restarted daemon presenting the same identity
// reclaims exactly the shards it held, instead of joining as a stranger.
// Without -identity-file the name is the identity — fine as long as names
// are unique and fixed per machine.
//
// The daemon redials through capped, jittered backoff forever by default
// (-max-attempts bounds it), so a coordinator restart or failover needs no
// operator action on the worker side.
//
// -metrics-addr serves the worker's own observability plane — /metrics,
// /healthz (ready = owns at least one shard with a promoted pipeline),
// /events, and /debug/pprof — entirely from local state, so it keeps
// answering while the coordinator is down. Scrape every worker's
// -metrics-addr for the fleet's series; the coordinator's /cluster is the
// fleet's status. Coordinator and workers are upgraded together: the hello
// carries no protocol version.
package main

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"spoofscope/internal/cluster"
	"spoofscope/internal/core"
	"spoofscope/internal/netx"
	"spoofscope/internal/obs"
	"spoofscope/internal/org"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("spoofscope-worker: ")
	var (
		coordAddr = flag.String("coordinator-addr", "", "coordinator TCP address to dial (required)")
		name      = flag.String("name", "", "worker name for journals and metrics (default: hostname)")
		idFile    = flag.String("identity-file", "", "persist the stable worker identity here; read it back on restart")
		secret    = flag.String("secret", "", "shared secret authenticating this worker to the coordinator")
		secretF   = flag.String("secret-file", "", "read the shared secret from this file (trailing newline ignored)")
		dataDir   = flag.String("data", "", "scenario directory for the org dataset and router addresses (optional)")
		noOrgs    = flag.Bool("no-orgs", false, "disable multi-AS organisation merging (must match the coordinator run)")
		noRouter  = flag.Bool("no-routers", false, "skip stray-router tagging (must match the coordinator run)")
		heartbeat = flag.Duration("heartbeat", 2*time.Second, "heartbeat interval; must match the coordinator's (classify uses 2s)")
		maxTries  = flag.Int("max-attempts", 0, "consecutive failed dials before giving up (0 = retry forever)")
		metrics   = flag.String("metrics-addr", "", "serve /metrics, /healthz, /events, and /debug/pprof on this address")
	)
	flag.Parse()
	if *coordAddr == "" {
		log.Fatal("-coordinator-addr is required")
	}
	if *name == "" {
		host, err := os.Hostname()
		if err != nil {
			log.Fatal(err)
		}
		*name = host
	}
	key := []byte(*secret)
	if *secretF != "" {
		if *secret != "" {
			log.Fatal("-secret and -secret-file are mutually exclusive")
		}
		b, err := os.ReadFile(*secretF)
		if err != nil {
			log.Fatal(err)
		}
		key = []byte(strings.TrimRight(string(b), "\r\n"))
	}
	identity, err := loadIdentity(*idFile, *name)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("worker %s, identity %s, coordinator %s", *name, identity, *coordAddr)

	var opts core.Options
	if *dataDir != "" {
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
	}

	tel := obs.NewTelemetry()
	if *metrics != "" {
		srv, err := obs.Serve(*metrics, tel)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		log.Printf("telemetry: %s/metrics", srv.URL())
	}

	w, err := cluster.NewWorker(cluster.WorkerConfig{
		Name:     *name,
		Identity: identity,
		Secret:   key,
		Dial: func() (net.Conn, error) {
			return net.DialTimeout("tcp", *coordAddr, 10*time.Second)
		},
		Opts:              opts,
		HeartbeatInterval: *heartbeat,
		MaxAttempts:       *maxTries,
		Telemetry:         tel,
		// The daemon is the Telemetry's readiness source: /healthz (on
		// -metrics-addr) reports ready once it owns a shard and classifies
		// with a promoted pipeline, from local state alone, so the endpoint
		// answers even while the coordinator is unreachable.
		PublishHealth: true,
	})
	if err != nil {
		log.Fatal(err)
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	err = w.Run(ctx)
	fmt.Println(tel.Journal.Summary(10))
	if err != nil {
		log.Fatal(err)
	}
	log.Print("stopped")
}

// loadIdentity returns the stable worker identity: the contents of path if
// it exists, otherwise a freshly generated "<name>-<8 hex bytes>" persisted
// to path via core.WriteFileAtomic, synced before the rename so a crash
// cannot leave an empty file the next start refuses. With no path, the name
// itself is the identity.
func loadIdentity(path, name string) (string, error) {
	if path == "" {
		return name, nil
	}
	if b, err := os.ReadFile(path); err == nil {
		id := strings.TrimSpace(string(b))
		if id == "" {
			return "", fmt.Errorf("identity file %s is empty", path)
		}
		return id, nil
	} else if !os.IsNotExist(err) {
		return "", err
	}
	suffix := make([]byte, 8)
	if _, err := rand.Read(suffix); err != nil {
		return "", err
	}
	id := name + "-" + hex.EncodeToString(suffix)
	err := core.WriteFileAtomic(path, 0o600, func(w io.Writer) error {
		_, err := io.WriteString(w, id+"\n")
		return err
	})
	if err != nil {
		return "", err
	}
	return id, nil
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
