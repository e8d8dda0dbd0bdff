// Package serve is the fingerprinting-as-a-service layer: a long-running
// daemon (cmd/odcfpd) that turns the paper's one-shot CLI workflow —
// analyse a netlist for ODC fingerprint locations, issue a uniquely
// fingerprinted copy per buyer, trace a suspect copy back to its buyer
// (Dunbar & Qu §III) — into a concurrent HTTP/JSON request/response
// protocol, the "online interrogation" shape related watermarking work
// (SIGNED) frames IP protection in.
//
// The server's economics come from doing the expensive step once: location
// analysis (core.Analyze) runs at upload time and the resulting
// core.Analysis is held in an LRU cache keyed by the design digest, so
// issuance and tracing — which the CLI pays a full re-analysis for on
// every invocation — reuse it. Work is admitted through a bounded
// par.Pool with per-request timeouts and request-size limits; issued
// fingerprints persist through a crash-safe Store (temp file + fsync +
// rename) and survive restarts; everything is instrumented with
// internal/obs and exposed at GET /metrics.
//
// API (see DESIGN.md §9 for schemas):
//
//	POST /designs                 upload a netlist → analyse once → digest
//	GET  /designs                 list stored designs
//	GET  /designs/{digest}        one design's analysis + registry summary
//	POST /designs/{digest}/issue  mint a fingerprinted copy for a buyer
//	POST /designs/{digest}/issue/batch
//	                              mint copies for many buyers in one call,
//	                              synchronously or (?async=1) as a durable
//	                              202+job, amortizing one analysis, one
//	                              verifier (window certificates, session
//	                              fallback) and chunked registry fsyncs
//	POST /designs/{digest}/trace  score a suspect copy against the registry
//	GET  /jobs                    list async issuance jobs
//	GET  /jobs/{id}               one job's progress (acknowledged buyers)
//	GET  /healthz                 liveness + drain state
//	GET  /metrics                 obs metric snapshot (JSON)
package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/benchfmt"
	"repro/internal/blif"
	"repro/internal/cell"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/registry"
	"repro/internal/registrystore"
	"repro/internal/techmap"
	"repro/internal/verilog"
)

// Request metrics: traffic counters are workload-determined; latency and
// in-flight depend on wall time and scheduling.
var (
	mRequests = obs.NewCounter("serve", "requests")
	mErrors   = obs.NewCounter("serve", "request_errors")
	mUploads  = obs.NewCounter("serve", "uploads")
	mIssues   = obs.NewCounter("serve", "issues")
	mTraces   = obs.NewCounter("serve", "traces")
	// Trace outcomes: accusations counts buyers implicated across all trace
	// calls (one call can implicate a whole coalition); misses counts trace
	// calls that implicated nobody — full removals, foreign netlists, or
	// sub-threshold evidence. A rising miss rate against known-fingerprinted
	// inventory is the operator's signal that attacks are succeeding.
	mTraceAccusations = obs.NewCounter("serve", "trace_accusations")
	mTraceMisses      = obs.NewCounter("serve", "trace_misses")
	mTimeouts         = obs.NewCounter("serve", "request_timeouts", obs.Nondet())
	hLatencyNS        = obs.NewHistogram("serve", "request_ns", obs.Nondet())
	// hAnalyzeUS records the latency of each completed analysis (the
	// daemon's dominant unit of compute) in microseconds; the exported name
	// keeps the seconds-oriented spelling, and consumers such as the loadgen
	// report convert the sum back to wall seconds.
	hAnalyzeUS = obs.NewHistogram("serve", "analyze_secs", obs.Nondet())
	gInFlight  = obs.NewGauge("serve", "inflight", obs.Nondet())
	gDesigns   = obs.NewGauge("serve", "designs")
)

// Config tunes the daemon. The zero value is usable: every field has a
// production default applied by New. The resilience policy — store retries,
// the verification breaker, load shedding — is fixed (resilience.go).
type Config struct {
	// StoreDir is the durable store's root directory (required).
	StoreDir string
	// CacheSize bounds the analysis LRU (default 64 designs).
	CacheSize int
	// Workers bounds concurrently executing requests (default: one per
	// CPU, par.Workers(0)).
	Workers int
	// MaxRequestBytes bounds any request body (default 16 MiB).
	MaxRequestBytes int64
	// RequestTimeout bounds one request's queueing + execution time
	// (default 60s).
	RequestTimeout time.Duration
	// BatchChunk is how many copies a batch issue commits per durable
	// registry+job write (default 64). Larger chunks amortize fsyncs
	// harder; smaller ones bound the work re-done after a crash.
	BatchChunk int
	// MaxBatchBuyers caps the buyers of one synchronous batch request
	// (default 256); larger batches must use the async job mode, whose
	// runner yields its worker slot between chunks.
	MaxBatchBuyers int
	// Cluster, when non-nil, runs this daemon as one replica of an odcfpd
	// cluster: the issuance registry moves from per-design JSON snapshots to
	// a replicated WAL, and design-scoped requests are routed to each
	// design's leader (cluster.go). Nil is the single-node daemon.
	Cluster *ClusterConfig
}

func (c Config) withDefaults() Config {
	if c.CacheSize == 0 {
		c.CacheSize = 64
	}
	if c.Workers == 0 {
		c.Workers = par.Workers(0)
	}
	if c.MaxRequestBytes == 0 {
		c.MaxRequestBytes = 16 << 20
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.BatchChunk <= 0 {
		c.BatchChunk = 64
	}
	if c.MaxBatchBuyers <= 0 {
		c.MaxBatchBuyers = 256
	}
	return c
}

// design is the server's per-digest state. The registry is loaded lazily
// and mu serialises issue+persist so the durable record set is always a
// superset of every acknowledged issuance. regSeq is the registry store's
// sequence number the in-memory registry was loaded at (or last appended
// at); when the store has moved past it — a replicating peer appended —
// the registry is reloaded before its next use.
type design struct {
	digest string
	meta   DesignMeta

	mu     sync.Mutex
	reg    *registry.Registry
	regSeq uint64
}

// Server is the fingerprinting daemon: an http.Handler plus the cache,
// store, worker pool and lifecycle around it. Create with New; serve
// either via Serve or by mounting Handler in a test server.
type Server struct {
	cfg      Config
	store    *Store
	regstore registrystore.Store
	cluster  *clusterState // nil when not clustered
	cache    *analysisCache
	pool     *par.Pool
	breaker  *breaker

	// backoff is the first store-retry delay, maxQueue the pool queue
	// depth at which requests are shed and keepJobs the number of finished
	// jobs kept. New sets them from the constants in resilience.go and
	// jobs.go; tests in this package change them before sending traffic.
	backoff  time.Duration
	maxQueue int
	keepJobs int

	mu      sync.Mutex
	designs map[string]*design

	// Async issuance jobs (jobs.go): records mirror the durable job files,
	// finished lists the done and failed ones in the order they finished,
	// for retirement, and jobSeq is the last sequence number submitJob
	// gave; jobWake nudges the runner goroutine, runnerCancel kills it.
	jobMu        sync.Mutex
	jobs         map[string]*JobRecord
	finished     []string
	jobSeq       uint64
	jobWake      chan struct{}
	runnerCancel context.CancelFunc
	runnerDone   chan struct{}

	// bgCtx parents background cluster work (design broadcasts, startup
	// catch-up); it is the job runner's context, cancelled at Shutdown.
	bgCtx    context.Context
	syncDone chan struct{} // closed when startup cluster catch-up finishes

	draining atomic.Bool
	httpSrv  *http.Server

	// testHook, when non-nil (tests only), runs while the request holds a
	// worker slot, keyed by request kind ("issue", "trace", "upload") —
	// the job runner also fires it with "job-chunk" after each durable
	// chunk commit.
	testHook func(kind string)
}

// New opens the store, reloads every persisted design (analysis stays lazy
// — the cache fills on first use) and returns a ready-to-serve daemon.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.StoreDir == "" {
		return nil, fmt.Errorf("serve: Config.StoreDir is required")
	}
	store, err := OpenStore(cfg.StoreDir)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		store:   store,
		cache:   newAnalysisCache(cfg.CacheSize),
		pool:    par.NewPool(cfg.Workers),
		breaker: newBreaker(breakerThreshold, breakerCooldown),
		backoff: retryBase,
		designs: make(map[string]*design),
		jobWake: make(chan struct{}, 1),
	}
	s.maxQueue = queuePerWorker * s.pool.Workers()
	s.keepJobs = keepFinishedJobs
	if err := s.openRegistryStore(); err != nil {
		return nil, err
	}
	digests, err := store.Digests()
	if err != nil {
		return nil, err
	}
	for _, dg := range digests {
		meta, err := store.LoadMeta(dg)
		if err != nil {
			return nil, err
		}
		s.designs[dg] = &design{digest: dg, meta: meta}
	}
	gDesigns.Set(int64(len(s.designs)))
	if err := s.loadJobs(); err != nil {
		return nil, err
	}
	s.httpSrv = &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	runnerCtx, cancel := context.WithCancel(context.Background())
	s.runnerCancel = cancel
	s.runnerDone = make(chan struct{})
	s.bgCtx = runnerCtx
	go s.runJobs(runnerCtx)
	s.startClusterSync(runnerCtx)
	return s, nil
}

// Handler returns the daemon's HTTP handler (also usable under httptest).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /designs", s.handleUpload)
	mux.HandleFunc("GET /designs", s.handleList)
	mux.HandleFunc("GET /designs/{digest}", s.handleInfo)
	mux.HandleFunc("POST /designs/{digest}/issue", s.handleIssue)
	mux.HandleFunc("POST /designs/{digest}/issue/batch", s.handleBatchIssue)
	mux.HandleFunc("POST /designs/{digest}/trace", s.handleTrace)
	mux.HandleFunc("GET /jobs", s.handleJobList)
	mux.HandleFunc("GET /jobs/{id}", s.handleJobStatus)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.cluster != nil {
		// Peer-to-peer endpoints (cluster.go). They bypass the worker pool:
		// replication is fsync-bound, and a follower that needed a worker
		// slot to ack could deadlock against a leader waiting in one.
		mux.HandleFunc("POST /cluster/replicate/{digest}", s.handleReplicate)
		mux.HandleFunc("GET /cluster/registry/{digest}", s.handleRegistryFetch)
		mux.HandleFunc("PUT /cluster/designs/{digest}", s.handleDesignPush)
		mux.HandleFunc("GET /cluster/designs/{digest}", s.handleDesignFetch)
		mux.HandleFunc("GET /cluster/status", s.handleClusterStatus)
	}
	return s.instrument(mux)
}

// instrument wraps the mux with the request counter, in-flight gauge and
// latency histogram. Clustered daemons also stamp every response with the
// node that served it, so clients (and loadgen's shard-balance report) can
// see where routed work actually landed.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mRequests.Inc()
		gInFlight.Add(1)
		defer gInFlight.Add(-1)
		if s.cluster != nil {
			w.Header().Set(nodeHeader, s.cluster.cfg.Self)
		}
		t0 := time.Now()
		next.ServeHTTP(w, r)
		hLatencyNS.Observe(int64(time.Since(t0)))
	})
}

// Serve accepts connections on ln until Shutdown. It returns nil after a
// clean shutdown.
func (s *Server) Serve(ln net.Listener) error {
	err := s.httpSrv.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown drains the daemon gracefully: the listener closes, in-flight
// requests run to completion (bounded by ctx), the job runner stops at its
// next chunk boundary (unfinished jobs stay durable and resume on the next
// New over the same store), then the worker pool is closed. Safe to call
// even when Serve was never started.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	err := s.httpSrv.Shutdown(ctx)
	s.runnerCancel()
	<-s.runnerDone
	if s.syncDone != nil {
		<-s.syncDone
	}
	if s.cluster != nil {
		s.cluster.wg.Wait()
	}
	s.pool.Close()
	if cerr := s.regstore.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// InFlight returns the number of requests currently holding worker slots.
func (s *Server) InFlight() int { return s.pool.InFlight() }

// NumDesigns returns the number of designs the daemon can serve.
func (s *Server) NumDesigns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.designs)
}

// lookupDesign returns the design for digest, or nil.
func (s *Server) lookupDesign(digest string) *design {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.designs[digest]
}

// analysis returns the design's cached analysis, re-running the upload
// path (parse stored bytes → sweep → analyze) on a cache miss and
// verifying the recomputed digest still matches the stored one. ctx bounds
// only how long this caller waits: the load itself runs detached under its
// own RequestTimeout deadline, so a caller that cancels mid-flight fails
// alone — the (singleflight-shared) analysis still completes for every
// other waiter and lands in the cache.
func (s *Server) analysis(ctx context.Context, d *design) (*core.Analysis, error) {
	return s.cache.getOrLoad(ctx, d.digest, func() (*core.Analysis, error) {
		lctx, cancel := context.WithTimeout(context.Background(), s.cfg.RequestTimeout)
		defer cancel()
		fault.Stall(fault.AnalysisSlow)
		meta, raw, err := s.store.LoadDesign(d.digest)
		if err != nil {
			return nil, err
		}
		c, err := parseNetlist(meta.Format, raw)
		if err != nil {
			return nil, fmt.Errorf("serve: stored design %s: %w", d.digest, err)
		}
		a, err := analyzeUpload(lctx, c)
		if err != nil {
			return nil, fmt.Errorf("serve: stored design %s: %w", d.digest, err)
		}
		if got := a.Digest(); got != d.digest {
			return nil, fmt.Errorf("serve: stored design %s re-analyses to digest %s (store corrupted?)", d.digest, got)
		}
		return a, nil
	})
}

// registryOf returns the design's registry, loading it on first use.
func (s *Server) registryOf(d *design, a *core.Analysis) (*registry.Registry, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return s.ensureRegistryLocked(d, a)
}

// ensureRegistryLocked loads or creates the registry; the caller must hold
// d.mu. A registry whose load-time sequence number the store has moved past
// — a replicating peer appended records this process has not seen — is
// reloaded, so reads on a follower converge to the replicated record set.
func (s *Server) ensureRegistryLocked(d *design, a *core.Analysis) (*registry.Registry, error) {
	if d.reg != nil && s.regstore.Seq(d.digest) == d.regSeq {
		return d.reg, nil
	}
	r, seq, err := s.regstore.Load(d.digest, a)
	if err != nil {
		return nil, err
	}
	d.reg, d.regSeq = r, seq
	return r, nil
}

// analyzeUpload is the canonical upload pipeline: sweep dead logic, then
// analyse with the default library and options — byte-identical to the
// CLI's registry-facing commands, so daemon digests match odcfp's. ctx
// cancels the scan (core.AnalyzeCtx).
func analyzeUpload(ctx context.Context, c *circuit.Circuit) (*core.Analysis, error) {
	swept, _ := c.Sweep()
	start := time.Now()
	a, err := core.AnalyzeCtx(ctx, swept, core.DefaultOptions(cell.Default()))
	if err == nil {
		hAnalyzeUS.Observe(time.Since(start).Microseconds())
	}
	return a, err
}

// parseNetlist decodes data in the given format: "bench", "blif" or
// "v"/"verilog". BLIF input is technology-mapped onto the default library.
func parseNetlist(format string, data []byte) (*circuit.Circuit, error) {
	switch strings.ToLower(format) {
	case "bench":
		return benchfmt.Parse(bytes.NewReader(data))
	case "blif":
		n, err := blif.Parse(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		return techmap.Map(n, techmap.DefaultOptions(cell.Default()))
	case "v", "verilog":
		return verilog.Parse(bytes.NewReader(data))
	default:
		return nil, fmt.Errorf("unknown netlist format %q (want bench, blif or v)", format)
	}
}

// writeNetlist encodes c in the given output format ("bench" or "v").
func writeNetlist(w io.Writer, format string, c *circuit.Circuit) error {
	switch strings.ToLower(format) {
	case "bench":
		return benchfmt.Write(w, c)
	case "v", "verilog":
		return verilog.Write(w, c)
	default:
		return fmt.Errorf("unknown output format %q (want bench or v)", format)
	}
}

// detectFormat sniffs a netlist's format from its first significant line:
// BLIF models start with dot-directives, Verilog declares a module,
// everything else is treated as ISCAS .bench (whose INPUT(...) lines are
// unmistakable anyway). Blank lines and "#" or "//" comments are skipped;
// nothing past the first significant line is read.
func detectFormat(data []byte) string {
	for rest := data; len(rest) > 0; {
		line := rest
		if i := bytes.IndexByte(rest, '\n'); i >= 0 {
			line, rest = rest[:i], rest[i+1:]
		} else {
			rest = nil
		}
		t := bytes.TrimSpace(line)
		switch {
		case len(t) == 0 || t[0] == '#' || bytes.HasPrefix(t, []byte("//")):
			continue
		case t[0] == '.':
			return "blif"
		case bytes.HasPrefix(t, []byte("module")):
			return "v"
		default:
			return "bench"
		}
	}
	return "bench"
}

// outputFormat picks the issue-response encoding: an explicit query wins,
// then the design's own upload format when it round-trips ("bench", "v"),
// else structural Verilog. An explicit format writeNetlist cannot encode is
// an error, so a request naming one is refused before anything is minted.
func outputFormat(query, designFormat string) (string, error) {
	if query != "" {
		switch strings.ToLower(query) {
		case "bench", "v", "verilog":
			return query, nil
		}
		return "", fmt.Errorf("unknown output format %q (want bench or v)", query)
	}
	switch designFormat {
	case "bench", "v", "verilog":
		return designFormat, nil
	default:
		return "v", nil
	}
}
