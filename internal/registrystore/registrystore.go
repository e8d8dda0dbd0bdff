// Package registrystore is the durable home of per-design issuance
// registries — the legal record that lets the IP vendor accuse a buyer
// (Dunbar & Qu §III-E; SIGNED's buyer-identifying registry frames the same
// obligation). The serving layer (internal/serve) holds a live
// registry.Registry per design in memory; this package owns the only state
// the service can never afford to lose: the acknowledged issuances.
//
// Two implementations satisfy Store:
//
//   - Local persists each design's registry as an atomically replaced JSON
//     snapshot (<digest>.registry.json), exactly the single-node daemon's
//     historical format — crash-safe via temp file + fsync + rename.
//   - Replicated turns the registry into an append-only write-ahead log
//     (one WAL segment per design digest, CRC-framed records, group-
//     committed fsync) replicated synchronously to the peer replicas of an
//     odcfpd cluster: an Append acknowledges only after W replicas hold the
//     records durably, so any single node can be killed without losing an
//     acknowledged issuance.
//
// The two are interchangeable behind Store because issuance is
// deterministic: a fingerprint value is a pure function of (design digest,
// buyer), so replaying, re-minting or even double-appending a record can
// never produce a conflicting registry — the property that lets the
// replicated store converge by record union instead of consensus
// (DESIGN.md §13).
package registrystore

import (
	"context"
	"sync"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/registry"
)

// Store metrics. Append/load counts are workload-determined; fsync counts
// depend on group-commit batching under concurrent load and are Nondet,
// as is everything downstream of replication and fault timing.
var (
	mAppends    = obs.NewCounter("registrystore", "appends")
	mRecords    = obs.NewCounter("registrystore", "records")
	mLoads      = obs.NewCounter("registrystore", "loads")
	mWALFsyncs  = obs.NewCounter("registrystore", "wal_fsyncs", obs.Nondet())
	mWALTruncs  = obs.NewCounter("registrystore", "wal_truncated_records", obs.Nondet())
	mReplAcks   = obs.NewCounter("registrystore", "repl_acks", obs.Nondet())
	mReplErrors = obs.NewCounter("registrystore", "repl_errors", obs.Nondet())
	mCatchups   = obs.NewCounter("registrystore", "repl_catchups", obs.Nondet())

	// Hinted handoff (hints.go): hints queued when a peer replication
	// fails past quorum, delivered when the redelivery loop drains them.
	mHintsQueued    = obs.NewCounter("registrystore", "cluster_hints_queued", obs.Nondet())
	mHintsDelivered = obs.NewCounter("registrystore", "cluster_hints_delivered", obs.Nondet())
	gHintsPending   = obs.NewGauge("registrystore", "cluster_hints_pending", obs.Nondet())

	// WAL scrubber (scrub.go): segments verified, found corrupt, rebuilt,
	// and records restored into rebuilt segments; salvages count open-time
	// mid-file recoveries.
	mScrubRuns     = obs.NewCounter("registrystore", "scrub_runs", obs.Nondet())
	mScrubSegments = obs.NewCounter("registrystore", "scrub_segments", obs.Nondet())
	mScrubCorrupt  = obs.NewCounter("registrystore", "scrub_corrupt_segments", obs.Nondet())
	mScrubRepaired = obs.NewCounter("registrystore", "scrub_repaired_segments", obs.Nondet())
	mScrubRestored = obs.NewCounter("registrystore", "scrub_records_restored", obs.Nondet())
	mScrubSalvages = obs.NewCounter("registrystore", "scrub_open_salvages", obs.Nondet())
)

// peerErrCounters lazily materialises one registrystore.peer_errors{node}
// counter per peer, so operators can tell a dead peer (one node's counter
// climbing) from a flaky fabric (every counter climbing).
var peerErrCounters struct {
	mu sync.Mutex
	m  map[string]*obs.Counter
}

// peerErrCounter returns (registering on first use) the peer's replication
// error counter.
func peerErrCounter(node string) *obs.Counter {
	peerErrCounters.mu.Lock()
	defer peerErrCounters.mu.Unlock()
	if peerErrCounters.m == nil {
		peerErrCounters.m = make(map[string]*obs.Counter)
	}
	c, ok := peerErrCounters.m[node]
	if !ok {
		c = obs.NewCounter("registrystore", `peer_errors{node="`+node+`"}`, obs.Nondet())
		peerErrCounters.m[node] = c
	}
	return c
}

// Record is one acknowledged issuance (registry.Record): the buyer a
// fingerprinted copy was minted for and the decimal fingerprint value
// recorded for them. Records are immutable and self-contained, so a record
// alone is a complete acknowledgement.
type Record = registry.Record

// Store persists issuance registries, one per design digest. The serving
// layer mutates an in-memory registry.Registry first (reserving values
// under the design lock) and then calls Append with the freshly created
// records; only when Append returns nil may the issuance be acknowledged
// to a client.
type Store interface {
	// Load rebuilds the design's registry from durable state, validating it
	// against the analysis, and returns the store's current sequence number
	// for the design. A design with no durable records yields a fresh empty
	// registry, not an error.
	Load(digest string, a *core.Analysis) (*registry.Registry, uint64, error)

	// Append durably persists recs for the design and returns the store's
	// new sequence number. reg is the in-memory registry already holding
	// the records (snapshot implementations serialise it; the replicated
	// log compares its record count with the log's, so records another
	// writer appended meanwhile still show up as a Seq change). The
	// durability contract: when Append returns nil, the records survive
	// any crash the implementation claims to tolerate — a process kill for
	// Local, the kill of any single cluster node for Replicated.
	Append(ctx context.Context, digest string, reg *registry.Registry, recs []Record) (uint64, error)

	// Seq returns the store's current sequence number for the design. A
	// value different from the one observed at Load (or returned by the
	// last Append) means another writer — a replicating peer — has grown
	// the durable record set, and the in-memory registry must be reloaded
	// before its next use.
	Seq(digest string) uint64

	// Close releases file handles and stops background work. The store must
	// not be used afterwards.
	Close() error
}
