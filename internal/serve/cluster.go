package serve

// Cluster mode (DESIGN.md §13): N odcfpd replicas, each a full copy of the
// stateless API layer, share the issuance load by design digest. A
// consistent-hash ring over the replica set names each design's leader;
// any replica accepts any request and routes design-scoped calls to the
// leader (or serves them itself when it leads, or when every preferred
// peer is unreachable — safe, because the registry store replicates every
// record to every node and converges by union). The peer-to-peer endpoints
// under /cluster/* carry replication, catch-up and design distribution;
// they bypass the worker pool so a follower can always ack a leader's
// replication even when its own workers are saturated.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/registrystore"
)

// Cluster routing metrics: forwarding and peer liveness depend on request
// arrival node and failure timing.
var (
	mForwards     = obs.NewCounter("serve", "cluster_forwards", obs.Nondet())
	mForwardFails = obs.NewCounter("serve", "cluster_forward_errors", obs.Nondet())
	mReplApplied  = obs.NewCounter("serve", "cluster_replica_appends", obs.Nondet())
	mDesignAdopts = obs.NewCounter("serve", "cluster_design_adopts", obs.Nondet())
	mTraceRepairs = obs.NewCounter("serve", "cluster_trace_repairs", obs.Nondet())
)

// Cluster request headers.
const (
	// nodeHeader names the replica that actually served a response.
	nodeHeader = "X-Odcfp-Node"
	// forwardedHeader marks a request already routed once; the receiver
	// serves it locally, which bounds every request to at most one hop.
	forwardedHeader = "X-Odcfp-Forwarded"
	// formatHeader and designHeader carry DesignMeta on /cluster/designs
	// pushes and fetches.
	formatHeader = "X-Odcfp-Format"
	designHeader = "X-Odcfp-Design"
)

// Per-peer routing breaker tuning: one failed forward marks the peer
// suspect quickly (a dead loopback peer fails in microseconds) and a probe
// retries it after the cooldown.
const (
	peerBreakerThreshold = 1
	peerBreakerCooldown  = 2 * time.Second
)

// ClusterConfig makes the daemon one replica of an odcfpd cluster. Nodes
// are identified by their advertised base URL (scheme://host:port).
type ClusterConfig struct {
	// Self is this node's advertised base URL; it must appear in Nodes.
	Self string
	// Nodes is the full replica set, self included.
	Nodes []string
	// ReplicationFactor is the write quorum W including the leader: an
	// issuance acknowledges only once W replicas hold its record durably.
	// 0 means 2, capped at len(Nodes).
	ReplicationFactor int
	// AckTimeout bounds one peer replication attempt (0 means 5s).
	AckTimeout time.Duration
	// HintRetry is the base interval between hinted-handoff redelivery
	// attempts (0 means 500ms).
	HintRetry time.Duration
	// ScrubInterval is how often the WAL scrubber re-verifies every
	// segment (0 means 1m; negative disables the background loop).
	ScrubInterval time.Duration
}

// clusterState is the server's runtime cluster machinery.
type clusterState struct {
	cfg    ClusterConfig
	ring   *registrystore.Ring
	store  *registrystore.Replicated
	client *http.Client

	mu       sync.Mutex
	breakers map[string]*breaker

	wg sync.WaitGroup // background broadcasts
}

// linkFault consults the armed fault plan (if any) for the self→node
// network link: a severed or dropped link fails the exchange before any
// bytes move, and a delayed one stalls it — how -faults plans partition and
// degrade specific replica links deterministically (net.partition,
// net.drop, net.delay). The registrystore replication paths run the same
// check; this covers the serve-layer peer exchanges (forwarding, design
// push/fetch, job probes).
func (cs *clusterState) linkFault(node string) error {
	return fault.Link(cs.cfg.Self, node)
}

// breakerFor returns the peer's routing breaker, creating it on first use.
func (cs *clusterState) breakerFor(node string) *breaker {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	b := cs.breakers[node]
	if b == nil {
		b = newBreaker(peerBreakerThreshold, peerBreakerCooldown)
		cs.breakers[node] = b
	}
	return b
}

// openRegistryStore picks the registry store implementation: the local
// snapshot store for a single-node daemon, the replicated WAL for a
// cluster replica.
func (s *Server) openRegistryStore() error {
	cc := s.cfg.Cluster
	if cc == nil {
		rs, err := registrystore.Open(s.cfg.StoreDir)
		if err != nil {
			return err
		}
		s.regstore = rs
		return nil
	}
	if err := validateClusterConfig(cc); err != nil {
		return err
	}
	cs := &clusterState{
		cfg:      *cc,
		ring:     registrystore.NewRing(cc.Nodes),
		client:   &http.Client{},
		breakers: make(map[string]*breaker),
	}
	rs, err := registrystore.OpenReplicated(registrystore.ReplicatedConfig{
		Dir:           filepath.Join(s.cfg.StoreDir, "wal"),
		Self:          cc.Self,
		Nodes:         cc.Nodes,
		W:             cc.ReplicationFactor,
		Transport:     &peerTransport{cs: cs},
		AckTimeout:    cc.AckTimeout,
		HintRetry:     cc.HintRetry,
		ScrubInterval: cc.ScrubInterval,
	})
	if err != nil {
		return err
	}
	cs.store = rs
	s.cluster = cs
	s.regstore = rs
	return nil
}

// validateClusterConfig rejects malformed replica sets before any state is
// created.
func validateClusterConfig(cc *ClusterConfig) error {
	if cc.Self == "" {
		return fmt.Errorf("serve: cluster: Self is required")
	}
	self := false
	for _, n := range cc.Nodes {
		if n == cc.Self {
			self = true
		}
		u, err := url.Parse(n)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return fmt.Errorf("serve: cluster: node %q is not a base URL (want scheme://host:port)", n)
		}
	}
	if !self {
		return fmt.Errorf("serve: cluster: Self %q not in Nodes %v", cc.Self, cc.Nodes)
	}
	return nil
}

// startClusterSync launches the restarted-follower catch-up: pull every
// known design's records from every peer in the background. Appends dedup,
// so syncing is idempotent and safe to race with live traffic.
func (s *Server) startClusterSync(ctx context.Context) {
	if s.cluster == nil {
		return
	}
	s.syncDone = make(chan struct{})
	digests, _ := s.knownDigests()
	go func() {
		defer close(s.syncDone)
		s.cluster.store.Sync(ctx, digests)
	}()
}

// knownDigests lists every design this replica knows of: those in the
// design store, then those with registry records in the WAL (a digest in
// both appears twice; Sync skips repeats). A full anti-entropy pull syncs
// all of them.
func (s *Server) knownDigests() ([]string, error) {
	digests, err := s.store.Digests()
	if err != nil {
		return nil, err
	}
	return append(digests, s.cluster.store.Digests()...), nil
}

// routeDesign resolves a design-scoped request: on a single-node daemon it
// is a plain lookup; on a cluster replica the request is forwarded to the
// design's leader unless this node is the first live replica in the
// design's preference order (or the request already made its one hop). It
// returns nil when the request was fully handled — proxied or rejected.
func (s *Server) routeDesign(w http.ResponseWriter, r *http.Request) *design {
	digest := r.PathValue("digest")
	d := s.lookupDesign(digest)
	if s.cluster == nil {
		if d == nil {
			writeError(w, http.StatusNotFound, "unknown design "+digest)
		}
		return d
	}
	if r.Header.Get(forwardedHeader) == "" && s.routeToLeader(w, r, digest) {
		return nil
	}
	if d == nil {
		// Serving locally for a design this node has never stored: adopt
		// the bytes (and the replicated records) from a peer — any replica
		// can coordinate any design.
		d = s.adoptDesignFromPeers(r.Context(), digest)
	}
	if d == nil {
		writeError(w, http.StatusNotFound, "unknown design "+digest)
		return nil
	}
	return d
}

// routeToLeader walks the design's preference order and forwards the
// request to the first live node ahead of this one. It reports whether the
// request was handled (a peer answered, or reading the body failed); false
// means the caller should serve locally — either this node leads, or no
// preferred peer is reachable (every record is replicated here too, so
// serving locally is always safe).
func (s *Server) routeToLeader(w http.ResponseWriter, r *http.Request, digest string) bool {
	cs := s.cluster
	var body []byte
	bodyRead := false
	restore := func() {
		if bodyRead {
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
	}
	for _, node := range cs.ring.Order(digest) {
		if node == cs.cfg.Self {
			restore()
			return false
		}
		br := cs.breakerFor(node)
		if !br.allow() {
			continue
		}
		if !bodyRead {
			data, err := s.readBody(w, r)
			if err != nil {
				var ae *apiError
				errors.As(err, &ae)
				writeError(w, ae.status, ae.msg)
				return true
			}
			body, bodyRead = data, true
		}
		if s.forward(w, r, node, body) {
			br.success()
			return true
		}
		br.failure()
		mForwardFails.Inc()
	}
	restore()
	return false
}

// forward replays the request against node and streams the response back.
// Any HTTP response — including an error status — counts as handled; only
// a transport failure (the node is down) returns false so the caller can
// fail over to the next replica in the preference order.
func (s *Server) forward(w http.ResponseWriter, r *http.Request, node string, body []byte) bool {
	if s.cluster.linkFault(node) != nil {
		return false
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, node+r.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		return false
	}
	req.Header = r.Header.Clone()
	req.Header.Set(forwardedHeader, s.cluster.cfg.Self)
	resp, err := s.cluster.client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	mForwards.Inc()
	hdr := w.Header()
	for k, vs := range resp.Header {
		hdr[k] = vs
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
	return true
}

// adoptDesignFromPeers fetches an unknown design's bytes (and its
// replicated registry records) from the first peer that has them, persists
// them locally and registers the design for serving.
func (s *Server) adoptDesignFromPeers(ctx context.Context, digest string) *design {
	if !core.ValidDigest(digest) {
		return nil
	}
	cs := s.cluster
	for _, node := range cs.ring.Order(digest) {
		if node == cs.cfg.Self {
			continue
		}
		meta, data, err := cs.fetchDesign(ctx, node, digest)
		if err != nil {
			continue
		}
		if err := s.store.PutDesign(digest, meta, data); err != nil {
			continue
		}
		d := s.registerDesign(digest, meta)
		// Pull the design's issuance records too: a node that never saw the
		// design must not serve an empty registry for acknowledged copies.
		cs.store.Sync(ctx, []string{digest})
		mDesignAdopts.Inc()
		return d
	}
	return nil
}

// registerDesign adds (or returns) the in-memory design entry for digest.
func (s *Server) registerDesign(digest string, meta DesignMeta) *design {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := s.designs[digest]
	if d == nil {
		d = &design{digest: digest, meta: meta}
		s.designs[digest] = d
		gDesigns.Set(int64(len(s.designs)))
	}
	return d
}

// broadcastDesign pushes a freshly uploaded design's bytes to every peer in
// the background, so routed requests usually find the design already
// present; adoptDesignFromPeers covers the races and failures.
func (s *Server) broadcastDesign(digest string, meta DesignMeta, data []byte) {
	cs := s.cluster
	if cs == nil {
		return
	}
	for _, node := range cs.cfg.Nodes {
		if node == cs.cfg.Self {
			continue
		}
		cs.wg.Add(1)
		go func(node string) {
			defer cs.wg.Done()
			ctx, cancel := context.WithTimeout(s.bgCtx, defaultPeerTimeout)
			defer cancel()
			cs.pushDesign(ctx, node, digest, meta, data)
		}(node)
	}
}

// probeJobPeers answers a /jobs/{id} poll for a job owned by another
// replica: jobs are node-local (they run where the design's leader accepted
// them), so an unknown id is probed across the peers and the first replica
// that knows it answers. It reports whether a response was written.
func (s *Server) probeJobPeers(w http.ResponseWriter, r *http.Request) bool {
	cs := s.cluster
	if cs == nil || r.Header.Get(forwardedHeader) != "" {
		return false
	}
	for _, node := range cs.cfg.Nodes {
		if node == cs.cfg.Self || cs.linkFault(node) != nil {
			continue
		}
		req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, node+r.URL.RequestURI(), nil)
		if err != nil {
			continue
		}
		req.Header.Set(forwardedHeader, cs.cfg.Self)
		resp, err := cs.client.Do(req)
		if err != nil {
			continue
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			continue
		}
		mForwards.Inc()
		hdr := w.Header()
		for k, vs := range resp.Header {
			hdr[k] = vs
		}
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
		resp.Body.Close()
		return true
	}
	return false
}

// defaultPeerTimeout bounds one peer-to-peer HTTP exchange.
const defaultPeerTimeout = 5 * time.Second

// replicatePayload is the JSON body of POST /cluster/replicate/{digest}.
type replicatePayload struct {
	// Records are the issuance records to append (deduped by buyer).
	Records []registrystore.Record `json:"records"`
	// Total is the sender's committed record count for the design.
	Total uint64 `json:"total"`
}

// registryFetchResponse is the JSON body of GET /cluster/registry/{digest}
// and of a replicate ack ({total} only).
type registryFetchResponse struct {
	// Records are the design's committed records in append order.
	Records []registrystore.Record `json:"records,omitempty"`
	// Total is this node's committed record count for the design.
	Total uint64 `json:"total"`
}

// handleReplicate implements POST /cluster/replicate/{digest}: durably
// append a peer's records and answer with this node's resulting total (the
// peer compares totals to decide whether to stream a full catch-up).
func (s *Server) handleReplicate(w http.ResponseWriter, r *http.Request) {
	digest := r.PathValue("digest")
	if !core.ValidDigest(digest) {
		writeError(w, http.StatusNotFound, "unknown design "+digest)
		return
	}
	data, err := s.readBody(w, r)
	if err != nil {
		var ae *apiError
		errors.As(err, &ae)
		writeError(w, ae.status, ae.msg)
		return
	}
	var req replicatePayload
	if err := json.Unmarshal(data, &req); err != nil {
		writeError(w, http.StatusBadRequest, "replicate body must be JSON {records, total}")
		return
	}
	total, err := s.cluster.store.ApplyReplica(digest, req.Records)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "applying replica records: "+err.Error())
		return
	}
	mReplApplied.Add(int64(len(req.Records)))
	writeJSON(w, http.StatusOK, registryFetchResponse{Total: total})
}

// handleRegistryFetch implements GET /cluster/registry/{digest}: the full
// committed record list, the serving side of peer catch-up pulls.
func (s *Server) handleRegistryFetch(w http.ResponseWriter, r *http.Request) {
	digest := r.PathValue("digest")
	if !core.ValidDigest(digest) {
		writeError(w, http.StatusNotFound, "unknown design "+digest)
		return
	}
	writeJSON(w, http.StatusOK, registryFetchResponse{
		Records: s.cluster.store.Records(digest),
		Total:   s.cluster.store.Total(digest),
	})
}

// handleDesignPush implements PUT /cluster/designs/{digest}: a peer
// distributing a freshly uploaded design's raw bytes. The receiver stores
// them verbatim; analysis stays lazy (first use).
func (s *Server) handleDesignPush(w http.ResponseWriter, r *http.Request) {
	digest := r.PathValue("digest")
	if !core.ValidDigest(digest) {
		writeError(w, http.StatusNotFound, "invalid digest "+digest)
		return
	}
	data, err := s.readBody(w, r)
	if err != nil {
		var ae *apiError
		errors.As(err, &ae)
		writeError(w, ae.status, ae.msg)
		return
	}
	meta := DesignMeta{
		Design: r.Header.Get(designHeader),
		Format: r.Header.Get(formatHeader),
	}
	if meta.Format == "" {
		meta.Format = detectFormat(data)
	}
	if !s.store.HasDesign(digest) {
		if err := s.store.PutDesign(digest, meta, data); err != nil {
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
	}
	s.registerDesign(digest, meta)
	writeJSON(w, http.StatusOK, map[string]string{"digest": digest})
}

// handleDesignFetch implements GET /cluster/designs/{digest}: the design's
// raw bytes plus its meta in headers — the pull side of design adoption.
func (s *Server) handleDesignFetch(w http.ResponseWriter, r *http.Request) {
	digest := r.PathValue("digest")
	d := s.lookupDesign(digest)
	if d == nil {
		writeError(w, http.StatusNotFound, "unknown design "+digest)
		return
	}
	_, data, err := s.store.LoadDesign(digest)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set(designHeader, d.meta.Design)
	w.Header().Set(formatHeader, d.meta.Format)
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

// handleClusterStatus implements GET /cluster/status: the node's identity
// and per-design committed record totals — what the cluster smoke test
// compares across replicas to assert registry convergence. ?sync=1 runs an
// anti-entropy pull first — every known design's records are unioned in
// from the live peers before the totals are reported — which is how an
// operator (or the smoke test) forces a straggler to converge after a node
// loss instead of waiting for the next write to that design.
func (s *Server) handleClusterStatus(w http.ResponseWriter, r *http.Request) {
	cs := s.cluster
	if r.URL.Query().Get("sync") == "1" {
		digests, err := s.knownDigests()
		if err != nil {
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		if _, err := cs.store.Sync(r.Context(), digests); err != nil {
			writeError(w, http.StatusInternalServerError, "anti-entropy sync: "+err.Error())
			return
		}
	}
	totals := make(map[string]uint64)
	for _, digest := range cs.store.Digests() {
		totals[digest] = cs.store.Total(digest)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"self":   cs.cfg.Self,
		"nodes":  cs.ring.Nodes(),
		"rf":     cs.cfg.ReplicationFactor,
		"totals": totals,
		// health is the node's self-repair ledger: hinted-handoff queue
		// depth and delivery counts plus WAL scrubber activity. A healthy,
		// fully converged node shows an empty hints_pending map.
		"health": cs.store.Handoff(),
	})
}

// peerTransport is the registrystore.Transport over the cluster HTTP
// endpoints.
type peerTransport struct {
	cs *clusterState
}

// Replicate implements registrystore.Transport.
func (t *peerTransport) Replicate(ctx context.Context, node, digest string, recs []registrystore.Record, total uint64) (uint64, error) {
	body, err := json.Marshal(replicatePayload{Records: recs, Total: total})
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		node+"/cluster/replicate/"+digest, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	var resp registryFetchResponse
	if err := t.do(req, &resp); err != nil {
		return 0, err
	}
	return resp.Total, nil
}

// Fetch implements registrystore.Transport.
func (t *peerTransport) Fetch(ctx context.Context, node, digest string) ([]registrystore.Record, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, node+"/cluster/registry/"+digest, nil)
	if err != nil {
		return nil, err
	}
	var resp registryFetchResponse
	if err := t.do(req, &resp); err != nil {
		return nil, err
	}
	return resp.Records, nil
}

// do executes a peer request and decodes its JSON answer.
func (t *peerTransport) do(req *http.Request, out any) error {
	resp, err := t.cs.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("serve: cluster: peer %s: %s", req.URL.Host, strings.TrimSpace(string(msg)))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// fetchDesign pulls one design's meta and bytes from a peer.
func (cs *clusterState) fetchDesign(ctx context.Context, node, digest string) (DesignMeta, []byte, error) {
	var meta DesignMeta
	if err := cs.linkFault(node); err != nil {
		return meta, nil, err
	}
	pctx, cancel := context.WithTimeout(ctx, defaultPeerTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, node+"/cluster/designs/"+digest, nil)
	if err != nil {
		return meta, nil, err
	}
	resp, err := cs.client.Do(req)
	if err != nil {
		return meta, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return meta, nil, fmt.Errorf("serve: cluster: peer %s: design %s: status %d", node, digest, resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return meta, nil, err
	}
	meta.Design = resp.Header.Get(designHeader)
	meta.Format = resp.Header.Get(formatHeader)
	if meta.Format == "" {
		meta.Format = detectFormat(data)
	}
	return meta, data, nil
}

// pushDesign delivers one design's bytes to a peer.
func (cs *clusterState) pushDesign(ctx context.Context, node, digest string, meta DesignMeta, data []byte) error {
	if err := cs.linkFault(node); err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPut,
		node+"/cluster/designs/"+digest, bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set(designHeader, meta.Design)
	req.Header.Set(formatHeader, meta.Format)
	resp, err := cs.client.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("serve: cluster: peer %s: design push status %d", node, resp.StatusCode)
	}
	return nil
}
