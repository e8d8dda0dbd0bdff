// Command odcfpd is the fingerprinting-as-a-service daemon: it serves the
// analyze/issue/trace workflow of internal/serve over HTTP, holding analysed
// designs in an LRU cache and persisting issued fingerprints in a crash-safe
// store so they survive restarts.
//
// Usage:
//
//	odcfpd -addr :8341 -store ./odcfpd-store [-cache 64] [-j N]
//	       [-max-bytes 16777216] [-timeout 60s] [-drain 30s] [-addr-file PATH]
//	       [-batch-chunk 64] [-max-batch 256] [-faults SPEC] [-pprof ADDR]
//	       [-cluster URL,URL,... -node URL [-rf 2] [-hint-retry 500ms]
//	        [-scrub-interval 1m]]
//
// The daemon drains gracefully on SIGINT/SIGTERM: the listener closes,
// in-flight requests run to completion, then the process exits 0. With
// -addr-file the actual listen address (useful with ":0") is written to the
// given path once the listener is bound.
//
// Clients ask for CEC verification of an issued copy per request
// (?verify=1, or "verify": true in a batch body). The resilience policy is
// fixed: transient store errors are tried 3 times with backoff, 3
// consecutive SAT-verify failures open the verification breaker for 30s,
// and requests are shed with 429 once 4×-j callers wait for a worker.
//
// -cluster runs the daemon as one replica of an odcfpd cluster: the flag
// lists every replica's advertised base URL (this node's included), -node
// names this node's own URL from that list, and -rf sets the write quorum
// (an issuance acknowledges only after rf replicas hold its record durably
// in their WALs). Every replica routes design-scoped requests to the
// design's leader, so clients may talk to any of them. Two background
// repair loops keep a wounded cluster converging: hinted handoff redelivers
// appends a peer missed while unreachable (-hint-retry sets the base
// redelivery cadence) and the WAL scrubber re-verifies every segment's
// checksums on disk, quarantining and rebuilding damaged files
// (-scrub-interval sets the pass cadence). See OPERATIONS.md for the
// deployment runbook and DESIGN.md §13 for the protocol.
//
// -faults arms the internal/fault injection plan (chaos testing only; see
// that package for the spec syntax, e.g.
// "store.write:p=0.3;sat.slow:delay=5ms;seed:42").
//
// -pprof starts a net/http/pprof listener on a separate address (e.g.
// "localhost:6060"), for profiling analysis and fraiging hot spots in the
// running daemon. It is off by default and should not be exposed publicly.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/fault"
	"repro/internal/serve"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "odcfpd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("odcfpd", flag.ExitOnError)
	addr := fs.String("addr", ":8341", "listen address (use :0 for an ephemeral port)")
	store := fs.String("store", "odcfpd-store", "durable store directory")
	cache := fs.Int("cache", 0, "analysis cache capacity in designs (0 = default 64)")
	workers := fs.Int("j", 0, "max concurrently executing requests (0 = one per CPU)")
	maxBytes := fs.Int64("max-bytes", 0, "max request body bytes (0 = default 16 MiB)")
	timeout := fs.Duration("timeout", 0, "per-request timeout (0 = default 60s)")
	addrFile := fs.String("addr-file", "", "write the bound listen address to this file")
	drain := fs.Duration("drain", 30*time.Second, "max time to wait for in-flight requests on shutdown")
	batchChunk := fs.Int("batch-chunk", 0, "copies per durable commit of a batch issue (0 = default 64)")
	maxBatch := fs.Int("max-batch", 0, "max buyers in one synchronous batch request (0 = default 256)")
	faults := fs.String("faults", "", "arm a fault-injection plan (chaos testing; see internal/fault)")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address (off when empty; keep private)")
	cluster := fs.String("cluster", "", "comma-separated base URLs of every cluster replica (this node included); empty = single-node")
	node := fs.String("node", "", "this node's advertised base URL (required with -cluster; must appear in it)")
	rf := fs.Int("rf", 0, "replication factor: replicas that must hold a record durably before it is acknowledged (0 = default 2)")
	hintRetry := fs.Duration("hint-retry", 0, "base interval between hinted-handoff redelivery attempts to a severed peer (0 = default 500ms)")
	scrubInterval := fs.Duration("scrub-interval", 0, "how often the WAL scrubber re-verifies every segment (0 = default 1m, <0 = off)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var clusterCfg *serve.ClusterConfig
	if *cluster != "" {
		nodes := strings.Split(*cluster, ",")
		for i := range nodes {
			nodes[i] = strings.TrimRight(strings.TrimSpace(nodes[i]), "/")
		}
		clusterCfg = &serve.ClusterConfig{
			Self:              strings.TrimRight(strings.TrimSpace(*node), "/"),
			Nodes:             nodes,
			ReplicationFactor: *rf,
			HintRetry:         *hintRetry,
			ScrubInterval:     *scrubInterval,
		}
	} else if *node != "" || *rf != 0 || *hintRetry != 0 || *scrubInterval != 0 {
		return fmt.Errorf("-node, -rf, -hint-retry and -scrub-interval require -cluster")
	}
	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listener: %w", err)
		}
		// The profiler gets its own mux and listener so the debug surface
		// never shares a port with the public API.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		fmt.Fprintf(os.Stderr, "odcfpd: pprof on http://%s/debug/pprof/\n", pln.Addr())
		go func() {
			if err := http.Serve(pln, mux); err != nil {
				fmt.Fprintf(os.Stderr, "odcfpd: pprof server stopped: %v\n", err)
			}
		}()
	}
	if *faults != "" {
		plan, err := fault.Parse(*faults)
		if err != nil {
			return err
		}
		fault.Enable(plan)
		fmt.Fprintf(os.Stderr, "odcfpd: FAULT INJECTION ARMED: %s\n", plan)
	}

	srv, err := serve.New(serve.Config{
		StoreDir:        *store,
		CacheSize:       *cache,
		Workers:         *workers,
		MaxRequestBytes: *maxBytes,
		RequestTimeout:  *timeout,
		BatchChunk:      *batchChunk,
		MaxBatchBuyers:  *maxBatch,
		Cluster:         clusterCfg,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			ln.Close()
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "odcfpd: listening on %s (store %s, %d designs loaded)\n",
		bound, *store, srv.NumDesigns())
	if clusterCfg != nil {
		fmt.Fprintf(os.Stderr, "odcfpd: cluster node %s of %d replicas (rf=%d)\n",
			clusterCfg.Self, len(clusterCfg.Nodes), clusterCfg.ReplicationFactor)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way
	fmt.Fprintln(os.Stderr, "odcfpd: draining...")
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-serveErr; err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "odcfpd: clean exit")
	return nil
}
