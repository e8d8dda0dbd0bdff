package registrystore

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/registry"
)

// defaultAckTimeout bounds one peer replication attempt. Stragglers keep
// replicating in the background under this deadline after the quorum ack.
const defaultAckTimeout = 5 * time.Second

// defaultHintRetry is the redelivery loop's base backoff between attempts
// to drain a peer's hint queue; consecutive failures double it up to
// hintBackoffCap× this base.
const defaultHintRetry = 500 * time.Millisecond

// hintBackoffCap caps the per-peer redelivery backoff as a multiple of the
// base retry interval.
const hintBackoffCap = 10

// defaultScrubInterval is how often the background scrubber re-verifies
// every WAL segment when the config leaves ScrubInterval zero.
const defaultScrubInterval = time.Minute

// Transport carries replication traffic to one peer node. The serving
// layer implements it over the cluster HTTP endpoints; tests implement it
// in-process.
type Transport interface {
	// Replicate delivers recs for the design to node, telling it the
	// sender's committed record total, and returns the peer's own total
	// after it has durably appended. A peer total below the sender's means
	// the peer lacks records the sender holds (it was down or restarted);
	// the sender responds by re-sending its full record list. A peer total
	// above means the sender is behind and should Fetch.
	Replicate(ctx context.Context, node, digest string, recs []Record, total uint64) (peerTotal uint64, err error)

	// Fetch returns the peer's full committed record list for the design.
	Fetch(ctx context.Context, node, digest string) ([]Record, error)
}

// ReplicatedConfig configures a replicated store node.
type ReplicatedConfig struct {
	// Dir is the WAL directory (one segment file per design digest; hint
	// logs live under Dir/hints).
	Dir string
	// Self is this node's id; it must appear in Nodes.
	Self string
	// Nodes is the full replica set, self included.
	Nodes []string
	// W is the write quorum including self: Append acknowledges once W
	// replicas hold the records durably. 0 means 2, capped at len(Nodes).
	W int
	// Transport reaches the peers. Required when Nodes has peers.
	Transport Transport
	// AckTimeout bounds each peer replication attempt (0 means 5s).
	AckTimeout time.Duration
	// HintRetry is the base interval between hinted-handoff redelivery
	// attempts (0 means 500ms); per-peer backoff doubles it up to 10×.
	HintRetry time.Duration
	// ScrubInterval is how often the background scrubber re-verifies every
	// WAL segment (0 means 1m; negative disables the loop — Scrub can
	// still be called directly).
	ScrubInterval time.Duration
}

// Replicated is the cluster Store: every Append lands in the local WAL
// (group-committed fsync), then replicates synchronously to the peer
// replicas, acknowledging once W nodes hold the records durably. Because
// fingerprint values are deterministic per (digest, buyer) and WAL appends
// dedup by buyer, replicas converge by record union — re-sends, races and
// restarts can only ever grow a segment toward the same set, never fork it
// (DESIGN.md §13).
//
// Two background repair mechanisms keep a wounded cluster converging:
// hinted handoff (hints.go) redelivers appends a peer missed while
// unreachable, and the WAL scrubber (scrub.go) detects and rebuilds
// segments corrupted on disk, refetching lost records from the peers.
type Replicated struct {
	wal        *WAL
	self       string
	peers      []string
	w          int
	tr         Transport
	ackTimeout time.Duration
	hintRetry  time.Duration
	scrubEvery time.Duration

	hints    map[string]*hintLog // peer node → durable hint queue
	hintWake chan struct{}

	bg     context.Context // parent of every background replication ctx
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu     sync.Mutex
	closed bool

	// Cumulative per-node repair stats, surfaced via Handoff() on
	// /cluster/status (the obs counters aggregate across instances when
	// several nodes share a process, e.g. under test).
	hintsQueued    atomic.Int64
	hintsDelivered atomic.Int64
	scrubRuns      atomic.Int64
	scrubCorrupt   atomic.Int64
	scrubRepaired  atomic.Int64
	scrubRestored  atomic.Int64
}

// peerResult pairs one peer replication outcome with the node it came from.
type peerResult struct {
	node string
	err  error
}

// quorumError reports an Append that could not reach its write quorum,
// carrying every failed peer's error so an operator can tell one dead node
// from a severed fabric. It is transient: the records are durable locally
// and re-appending is idempotent, so the retry layer may simply try again.
type quorumError struct {
	acks, want int
	peerErrs   map[string]error
}

// Error implements error, listing each failed peer.
func (e *quorumError) Error() string {
	nodes := make([]string, 0, len(e.peerErrs))
	for n := range e.peerErrs {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	parts := make([]string, 0, len(nodes))
	for _, n := range nodes {
		parts = append(parts, fmt.Sprintf("%s: %v", n, e.peerErrs[n]))
	}
	return fmt.Sprintf("registrystore: replication quorum not reached (%d/%d durable): %s",
		e.acks, e.want, strings.Join(parts, "; "))
}

// Transient marks the error as retryable.
func (e *quorumError) Transient() bool { return true }

// Unwrap exposes the first failed peer's error (by node order).
func (e *quorumError) Unwrap() error {
	nodes := make([]string, 0, len(e.peerErrs))
	for n := range e.peerErrs {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	for _, n := range nodes {
		if e.peerErrs[n] != nil {
			return e.peerErrs[n]
		}
	}
	return nil
}

// OpenReplicated opens the node's WAL and hint logs, prepares replication
// to the configured peers, and starts the hint redelivery and WAL scrubber
// loops.
func OpenReplicated(cfg ReplicatedConfig) (*Replicated, error) {
	if cfg.Self == "" {
		return nil, fmt.Errorf("registrystore: replicated: empty node id")
	}
	var peers []string
	self := false
	for _, n := range cfg.Nodes {
		if n == cfg.Self {
			self = true
			continue
		}
		if n != "" {
			peers = append(peers, n)
		}
	}
	if !self {
		return nil, fmt.Errorf("registrystore: replicated: node %q not in replica set %v", cfg.Self, cfg.Nodes)
	}
	if len(peers) > 0 && cfg.Transport == nil {
		return nil, fmt.Errorf("registrystore: replicated: no transport for peers %v", peers)
	}
	w := cfg.W
	if w == 0 {
		w = 2
	}
	if max := len(peers) + 1; w > max {
		w = max
	}
	if w < 1 {
		return nil, fmt.Errorf("registrystore: replicated: write quorum %d < 1", cfg.W)
	}
	wal, err := OpenWAL(cfg.Dir)
	if err != nil {
		return nil, err
	}
	ackTimeout := cfg.AckTimeout
	if ackTimeout <= 0 {
		ackTimeout = defaultAckTimeout
	}
	hintRetry := cfg.HintRetry
	if hintRetry <= 0 {
		hintRetry = defaultHintRetry
	}
	scrubEvery := cfg.ScrubInterval
	if scrubEvery == 0 {
		scrubEvery = defaultScrubInterval
	}
	bg, cancel := context.WithCancel(context.Background())
	r := &Replicated{
		wal: wal, self: cfg.Self, peers: peers, w: w,
		tr: cfg.Transport, ackTimeout: ackTimeout,
		hintRetry: hintRetry, scrubEvery: scrubEvery,
		hints:    make(map[string]*hintLog, len(peers)),
		hintWake: make(chan struct{}, 1),
		bg:       bg, cancel: cancel,
	}
	replayed := false
	for _, node := range peers {
		hl, herr := openHintLog(filepath.Join(cfg.Dir, "hints"), node)
		if herr != nil {
			cancel()
			for _, open := range r.hints {
				open.close()
			}
			wal.Close()
			return nil, herr
		}
		r.hints[node] = hl
		if hl.pendingCount() > 0 {
			replayed = true
		}
	}
	if len(peers) > 0 {
		r.wg.Add(1)
		go r.redeliver()
		if replayed {
			r.updateHintGauge()
			r.wakeRedeliver()
		}
	}
	if scrubEvery > 0 {
		r.wg.Add(1)
		go r.scrubLoop()
	}
	return r, nil
}

// Load rebuilds the design's registry by replaying its WAL segment.
func (r *Replicated) Load(digest string, a *core.Analysis) (*registry.Registry, uint64, error) {
	reg := registry.New(a)
	if reg.Digest != digest {
		return nil, 0, fmt.Errorf("registrystore: replicated: design digest mismatch (want %s, analysis %s)", digest, reg.Digest)
	}
	recs := r.wal.Records(digest)
	// The WAL holds records in arrival order; one AdoptAll sorts them once.
	if err := reg.AdoptAll(recs); err != nil {
		return nil, 0, fmt.Errorf("registrystore: replicated: replaying %s: %w", digest, err)
	}
	mLoads.Inc()
	// The sequence is the replayed snapshot's length, not a second read of
	// the WAL total: a peer's record landing in between would otherwise be
	// counted as loaded.
	return reg, uint64(len(recs)), nil
}

// Append makes recs durable locally (group-committed WAL fsync), then
// replicates them to every peer, returning once W replicas hold them. On a
// quorum failure the records remain durable locally — a superset of the
// acknowledged set is always allowed, and a retried Append re-sends them
// idempotently. Stragglers past the quorum keep replicating in the
// background, bounded by AckTimeout; a peer that fails past the quorum gets
// a durable hint and the redelivery loop finishes the job later.
//
// The returned sequence is the one reg is current at. When the WAL holds
// records reg lacks — another writer's, replicated in after reg was loaded
// (a killed leader's straggler, a hint redelivery) — it is reg's record
// count, below the WAL total, so Seq tells the caller to reload.
func (r *Replicated) Append(ctx context.Context, digest string, reg *registry.Registry, recs []Record) (uint64, error) {
	added, total, err := r.wal.Append(digest, recs)
	if err != nil {
		return 0, err
	}
	mAppends.Inc()
	if added > 0 {
		// The replication window: locally durable, not yet peer-acked.
		// Chaos plans stall here to land a node kill inside it.
		fault.Stall(fault.ReplWindow)
	}
	seq := total
	if reg != nil {
		seq = min(seq, uint64(reg.NumIssued()))
	}
	need := r.w - 1 // remote acks required beyond self
	if len(r.peers) == 0 {
		return seq, nil
	}
	lo := total - uint64(added) // first sequence this append introduced
	results := make(chan peerResult, len(r.peers))
	for _, p := range r.peers {
		r.goPeer(func(node string) error { return r.replicateTo(node, digest, recs, total, lo) }, p, results)
	}
	acks, fails := 0, 0
	peerErrs := make(map[string]error)
	for acks < need && fails < len(r.peers)-need+1 {
		select {
		case res := <-results:
			if res.err == nil {
				acks++
			} else {
				fails++
				peerErrs[res.node] = res.err
			}
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	}
	if acks >= need {
		return seq, nil
	}
	return 0, &quorumError{acks: acks + 1, want: r.w, peerErrs: peerErrs}
}

// goPeer runs fn(node) on a tracked goroutine, delivering its result to
// results (which must have capacity for it). After Close has begun no new
// goroutine may start (wg.Add would race wg.Wait), so the result is an
// immediate failure instead.
func (r *Replicated) goPeer(fn func(string) error, node string, results chan<- peerResult) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		results <- peerResult{node: node, err: fmt.Errorf("registrystore: replicated: closed")}
		return
	}
	r.wg.Add(1)
	r.mu.Unlock()
	go func() {
		defer r.wg.Done()
		results <- peerResult{node: node, err: fn(node)}
	}()
}

// replicateTo delivers one append to a peer; on failure it queues a durable
// hint covering [lo, total) so the redelivery loop can finish the handoff.
func (r *Replicated) replicateTo(node, digest string, recs []Record, total, lo uint64) error {
	err := r.replicateOnce(node, digest, recs, total)
	if err != nil {
		peerErrCounter(node).Inc()
		r.queueHint(node, digest, lo, total)
	}
	return err
}

// replicateOnce is the raw replication attempt: deliver recs, re-send the
// full record list when the peer turns out to be behind, and schedule a
// background pull when the peer is ahead. It does not queue hints — the
// redelivery loop calls it directly for hints already queued.
func (r *Replicated) replicateOnce(node, digest string, recs []Record, total uint64) error {
	if err := fault.Link(r.self, node); err != nil {
		mReplErrors.Inc()
		return err
	}
	ctx, cancel := context.WithTimeout(r.bg, r.ackTimeout)
	defer cancel()
	pt, err := r.tr.Replicate(ctx, node, digest, recs, total)
	if err == nil && pt < total {
		// The peer lacks records we hold (it restarted or missed appends):
		// stream our full list — appends dedup, so this is a pure catch-up.
		mCatchups.Inc()
		pt, err = r.tr.Replicate(ctx, node, digest, r.wal.Records(digest), total)
	}
	if err != nil {
		mReplErrors.Inc()
		return err
	}
	mReplAcks.Inc()
	if pt > total {
		// The peer holds records we lack: pull them off the ack path.
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			r.pull(node, digest)
		}()
	}
	return nil
}

// fetch is every peer fetch: the peer's committed record list for the
// digest, bounded by AckTimeout within ctx. A failure, a cut link
// included, counts in repl_errors and in the peer's peer_errors{node}.
func (r *Replicated) fetch(ctx context.Context, node, digest string) ([]Record, error) {
	err := fault.Link(r.self, node)
	var recs []Record
	if err == nil {
		fctx, cancel := context.WithTimeout(ctx, r.ackTimeout)
		recs, err = r.tr.Fetch(fctx, node, digest)
		cancel()
	}
	if err != nil {
		mReplErrors.Inc()
		peerErrCounter(node).Inc()
	}
	return recs, err
}

// pull fetches a peer's record list and unions it into the local WAL.
func (r *Replicated) pull(node, digest string) {
	recs, err := r.fetch(r.bg, node, digest)
	if err != nil || len(recs) == 0 {
		return
	}
	if _, _, err := r.wal.Append(digest, recs); err != nil {
		mReplErrors.Inc()
		return
	}
	mCatchups.Inc()
}

// queueHint durably records that node missed the digest's [lo, hi) records
// and wakes the redelivery loop.
func (r *Replicated) queueHint(node, digest string, lo, hi uint64) {
	hl := r.hints[node]
	if hl == nil {
		return
	}
	hl.add(digest, lo, hi) // on log damage the hint still queues in memory
	mHintsQueued.Inc()
	r.hintsQueued.Add(1)
	r.updateHintGauge()
	r.wakeRedeliver()
}

// wakeRedeliver nudges the redelivery loop without blocking.
func (r *Replicated) wakeRedeliver() {
	select {
	case r.hintWake <- struct{}{}:
	default:
	}
}

// updateHintGauge republishes the total pending hint count.
func (r *Replicated) updateHintGauge() {
	var n int64
	for _, hl := range r.hints {
		n += int64(hl.pendingCount())
	}
	gHintsPending.Set(n)
}

// redeliver is the hinted-handoff drain loop: whenever hints are pending it
// retries each owed peer on the configured cadence, backing off per peer
// (doubling up to 10× the base) while the peer stays unreachable, and
// clearing hints as deliveries land. It exits when the store closes.
func (r *Replicated) redeliver() {
	defer r.wg.Done()
	backoff := make(map[string]time.Duration)
	due := make(map[string]time.Time)
	for {
		pending := false
		for _, node := range r.peers {
			if r.hints[node].pendingCount() > 0 {
				pending = true
				break
			}
		}
		var tick <-chan time.Time
		if pending {
			tick = time.After(r.hintRetry)
		}
		select {
		case <-r.bg.Done():
			return
		case <-r.hintWake:
		case <-tick:
		}
		now := time.Now()
		for _, node := range r.peers {
			hl := r.hints[node]
			pend := hl.pending()
			if len(pend) == 0 || now.Before(due[node]) {
				continue
			}
			failed := false
			for digest, rng := range pend {
				recs := r.wal.Records(digest)
				lo := int(rng.Lo)
				if lo > len(recs) {
					lo = len(recs)
				}
				// replicateOnce re-sends the full list itself if the peer
				// turns out further behind than the hinted range.
				if err := r.replicateOnce(node, digest, recs[lo:], uint64(len(recs))); err != nil {
					peerErrCounter(node).Inc()
					failed = true
					break
				}
				// Count the delivery before clearing the hint, so anyone who
				// sees the queue drained also sees it counted.
				mHintsDelivered.Inc()
				r.hintsDelivered.Add(1)
				hl.clear(digest)
				r.updateHintGauge()
			}
			if failed {
				b := backoff[node] * 2
				if b < r.hintRetry {
					b = r.hintRetry
				}
				if m := hintBackoffCap * r.hintRetry; b > m {
					b = m
				}
				backoff[node] = b
				due[node] = time.Now().Add(b)
			} else {
				delete(backoff, node)
				delete(due, node)
			}
		}
	}
}

// scrubLoop periodically re-verifies every WAL segment (scrub.go).
func (r *Replicated) scrubLoop() {
	defer r.wg.Done()
	t := time.NewTicker(r.scrubEvery)
	defer t.Stop()
	for {
		select {
		case <-r.bg.Done():
			return
		case <-t.C:
			r.Scrub()
		}
	}
}

// Scrub runs one scrubber pass now, fetching replacement records for
// damaged segments from the peers, and returns the pass report.
func (r *Replicated) Scrub() ScrubReport {
	var fetch func(string) []Record
	if len(r.peers) > 0 {
		fetch = r.fetchPeers
	}
	rep := r.wal.Scrub(fetch)
	r.scrubRuns.Add(1)
	r.scrubCorrupt.Add(int64(rep.Corrupt))
	r.scrubRepaired.Add(int64(rep.Repaired))
	r.scrubRestored.Add(int64(rep.Restored))
	return rep
}

// fetchPeers unions every reachable peer's record list for the digest —
// the scrubber's source for records a damaged segment lost.
func (r *Replicated) fetchPeers(digest string) []Record {
	var out []Record
	seen := make(map[string]bool)
	for _, node := range r.peers {
		recs, _ := r.fetch(r.bg, node, digest) // a failed peer adds nothing
		for _, rec := range recs {
			if !seen[rec.Buyer] {
				seen[rec.Buyer] = true
				out = append(out, rec)
			}
		}
	}
	return out
}

// HintsPending reports how many designs have undelivered hints per peer;
// peers with an empty queue are omitted. An empty map means every
// acknowledged record has reached every peer this node owes.
func (r *Replicated) HintsPending() map[string]int {
	out := make(map[string]int)
	for node, hl := range r.hints {
		if n := hl.pendingCount(); n > 0 {
			out[node] = n
		}
	}
	return out
}

// HandoffStats is the node's cumulative repair activity, surfaced on
// GET /cluster/status.
type HandoffStats struct {
	// HintsQueued / HintsDelivered count hinted-handoff activity since the
	// process started; HintsPending is the live per-peer queue depth.
	HintsQueued    int64          `json:"hints_queued"`
	HintsDelivered int64          `json:"hints_delivered"`
	HintsPending   map[string]int `json:"hints_pending,omitempty"`
	// Scrub* count WAL scrubber activity since the process started.
	ScrubRuns     int64 `json:"scrub_runs"`
	ScrubCorrupt  int64 `json:"scrub_corrupt_segments"`
	ScrubRepaired int64 `json:"scrub_repaired_segments"`
	ScrubRestored int64 `json:"scrub_records_restored"`
}

// Handoff snapshots the node's repair stats.
func (r *Replicated) Handoff() HandoffStats {
	return HandoffStats{
		HintsQueued:    r.hintsQueued.Load(),
		HintsDelivered: r.hintsDelivered.Load(),
		HintsPending:   r.HintsPending(),
		ScrubRuns:      r.scrubRuns.Load(),
		ScrubCorrupt:   r.scrubCorrupt.Load(),
		ScrubRepaired:  r.scrubRepaired.Load(),
		ScrubRestored:  r.scrubRestored.Load(),
	}
}

// Sync pulls every peer's records for exactly the given digests and
// unions them locally — the restarted-follower catch-up path run at daemon
// startup, and the one-design pull of read repair and design adoption.
// Per-peer failures are skipped (a dead peer must not block recovery); the
// first local append error aborts.
func (r *Replicated) Sync(ctx context.Context, digests []string) (adopted int, err error) {
	seen := make(map[string]bool, len(digests))
	for _, digest := range digests {
		if seen[digest] || !core.ValidDigest(digest) {
			continue
		}
		seen[digest] = true
		for _, node := range r.peers {
			if err := ctx.Err(); err != nil {
				return adopted, err
			}
			recs, ferr := r.fetch(ctx, node, digest)
			if ferr != nil || len(recs) == 0 {
				continue
			}
			added, _, aerr := r.wal.Append(digest, recs)
			if aerr != nil {
				return adopted, aerr
			}
			adopted += added
		}
	}
	if adopted > 0 {
		mCatchups.Inc()
	}
	return adopted, nil
}

// ApplyReplica durably appends records replicated from a peer and returns
// this node's resulting total for the design — the peer compares it with
// its own to decide whether a catch-up stream is needed. Appends dedup by
// buyer, so replays and races converge by union.
func (r *Replicated) ApplyReplica(digest string, recs []Record) (total uint64, err error) {
	_, total, err = r.wal.Append(digest, recs)
	return total, err
}

// Records returns the design's committed records in append order — the
// serving side of a peer's Fetch.
func (r *Replicated) Records(digest string) []Record { return r.wal.Records(digest) }

// Total returns the design's committed record count.
func (r *Replicated) Total(digest string) uint64 { return r.wal.Total(digest) }

// Digests lists every design with a WAL segment.
func (r *Replicated) Digests() []string { return r.wal.Digests() }

// Seq is the design's committed record count: a replicating peer's append
// moves it, telling the serving layer its in-memory registry is stale.
func (r *Replicated) Seq(digest string) uint64 { return r.wal.Total(digest) }

// Close stops every background loop — straggler replications, the hint
// redelivery loop, the scrubber — joins them, then closes the hint logs and
// the WAL. Append calls racing Close fail their replication legs instead of
// leaking goroutines.
func (r *Replicated) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	r.mu.Unlock()
	r.cancel()
	r.wg.Wait()
	for _, hl := range r.hints {
		hl.close()
	}
	return r.wal.Close()
}
