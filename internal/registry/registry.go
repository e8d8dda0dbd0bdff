// Package registry persists the IP vendor's issued-fingerprint records —
// the bookkeeping §III-E presumes ("the designer can compare the
// fingerprinted IP with the design ... to obtain the fingerprint" and then
// look up which buyer it was issued to). A Registry maps buyer names to
// fingerprint values (mixed-radix integers over the design's modification
// slots) and serialises to JSON, keyed by a digest of the design so a
// registry cannot accidentally be used with the wrong netlist.
//
// A Registry is safe for concurrent use: IssueBatch, TraceExact, TraceScores,
// Buyers, Save and AppendJSON may be called from any number of goroutines
// (the serving daemon in internal/serve does exactly that). The expensive
// circuit work — embedding a copy, extracting a suspect's assignment — runs
// outside the internal lock; only the issued-record map and the indexes
// derived from it are guarded.
package registry

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/big"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/jsonw"
)

// Registry records issued fingerprints for one design.
type Registry struct {
	// mu guards Issued, byValue, table and rowOf. The exported fields are
	// set at construction/load time and never mutated afterwards, so reads
	// of Design/Digest need no lock; every access to Issued takes it.
	mu sync.RWMutex

	// Design is the circuit name (informational).
	Design string `json:"design"`
	// Digest fingerprints the analysed netlist structure; Load rejects a
	// registry whose digest does not match the analysis it is used with.
	Digest string `json:"digest"`
	// Issued maps buyer name → decimal fingerprint value. Callers must not
	// access it directly while other goroutines use the registry; it is
	// exported only for JSON serialisation.
	Issued map[string]string `json:"issued"`

	// byValue is the reverse index (decimal value → buyer) behind the
	// collision check — built lazily under mu, never serialised. Without it
	// every fresh reservation scans the whole record map, which turns
	// fleet-scale batch minting quadratic. Once built it is kept in sync
	// with Issued and never dropped, so TraceExact reads it under the read
	// lock.
	byValue map[string]string

	// table is the resident score table behind TraceScores: every record
	// decoded once into a row, instead of once per trace. rowOf maps each
	// buyer to its row. Both are built lazily under mu by the first
	// TraceScores and nil until then, so issuance into a registry nobody
	// score-traces pays nothing. Invariant: whenever mu is released, a
	// built table's rows are exactly the records of Issued.
	table *table
	rowOf map[string]int

	// checked is the core.Analysis.ID of the last analysis that passed
	// check, so a repeat check skips re-hashing the netlist. An ID, not the
	// pointer: the registry must not keep an evicted analysis alive.
	checked atomic.Uint64
}

// valueIndex returns the reverse value→buyer index, building it from the
// records on first use. The caller must hold mu for writing.
func (r *Registry) valueIndex() map[string]string {
	if r.byValue == nil {
		r.byValue = make(map[string]string, len(r.Issued))
		for buyer, val := range r.Issued {
			r.byValue[val] = buyer
		}
	}
	return r.byValue
}

// buildTable decodes every record into the resident score table unless it
// is already built. The caller must hold mu for writing.
func (r *Registry) buildTable(a *core.Analysis) error {
	if r.table != nil {
		return nil
	}
	t := newTable(a)
	rowOf := make(map[string]int, len(r.Issued))
	for buyer, val := range r.Issued {
		v, ok := new(big.Int).SetString(val, 10)
		if !ok {
			return fmt.Errorf("registry: corrupt record for %q", buyer)
		}
		if err := t.addValue(buyer, v); err != nil {
			return err
		}
		rowOf[buyer] = t.len() - 1
	}
	r.table, r.rowOf = t, rowOf
	return nil
}

// addRow mirrors a new record into the score table, if it is built. A
// value the table cannot hold (out of the design's range; only Adopt can
// record one) drops the table, so the next TraceScores rebuilds it and
// reports that record. The caller must hold mu for writing.
func (r *Registry) addRow(buyer string, value *big.Int) {
	if r.table == nil {
		return
	}
	if err := r.table.addValue(buyer, value); err != nil {
		r.table, r.rowOf = nil, nil
		return
	}
	r.rowOf[buyer] = r.table.len() - 1
}

// DesignDigest hashes the structural identity of the analysed design: the
// canonical node list plus the location/target/variant shape. Any change to
// the netlist or the analysis options changes the digest.
func DesignDigest(a *core.Analysis) string {
	h := sha256.New()
	io.WriteString(h, a.Circuit.String())
	for i := range a.Locations {
		loc := &a.Locations[i]
		fmt.Fprintf(h, "L%d:%d:%d:%d;", loc.Primary, loc.FFCRoot, loc.Trigger, len(loc.Targets))
		for j := range loc.Targets {
			fmt.Fprintf(h, "T%d:%d;", loc.Targets[j].Gate, len(loc.Targets[j].Variants))
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// New creates an empty registry bound to the analysed design.
func New(a *core.Analysis) *Registry {
	return &Registry{
		Design: a.Circuit.Name,
		Digest: DesignDigest(a),
		Issued: map[string]string{},
	}
}

// deriveValue is the deterministic buyer→fingerprint derivation: a keyed
// hash of the buyer name reduced modulo the design's combination count.
func (r *Registry) deriveValue(buyer string, combos *big.Int) *big.Int {
	sum := sha256.Sum256([]byte("odcfp-issue:" + r.Digest + ":" + buyer))
	value := new(big.Int).SetBytes(sum[:])
	return value.Mod(value, combos)
}

// deleteRecord drops a buyer's record, its reverse-index entry and its
// score-table row. The caller must hold mu for writing.
func (r *Registry) deleteRecord(buyer string) {
	if val, ok := r.Issued[buyer]; ok && r.byValue != nil {
		delete(r.byValue, val)
	}
	if row, ok := r.rowOf[buyer]; ok {
		r.table.delete(row)
		if row < r.table.len() {
			r.rowOf[r.table.name(row)] = row
		}
		delete(r.rowOf, buyer)
	}
	delete(r.Issued, buyer)
}

// BatchItem is one minted copy out of an IssueBatch call.
type BatchItem struct {
	// Buyer names the copy's recipient.
	Buyer string
	// Circuit is the fingerprinted netlist.
	Circuit *circuit.Circuit
	// Value is the embedded fingerprint (mixed-radix integer).
	Value *big.Int
	// Fresh reports whether this batch created the buyer's record (false:
	// the buyer was already issued and the recorded value was re-minted).
	Fresh bool
}

// IssueBatch mints copies for every buyer — a single copy is a batch of
// one. Each new buyer is assigned a fingerprint value derived
// deterministically from its name (a keyed hash reduced modulo the design's
// combination count), so issuing a buyer again re-mints the same copy. All
// values are reserved up front — collision-checked against existing records
// and against each other (a collision is rejected; retry with another name,
// which is astronomically unlikely to be needed beyond toy designs) — before
// any embedding starts, then each copy is embedded with a cancellation
// check per copy. On any failure (an embed error, a duplicate buyer in the
// batch, or ctx dying between copies) every reservation the batch created
// is released, so a partial failure leaves the registry exactly as it was.
// Buyers already issued keep their recorded value, making a retried batch
// idempotent copy-for-copy.
//
// The expensive per-copy embeds run outside the registry lock, so
// concurrent batches embed their copies in parallel; the record map alone
// is serialised.
func (r *Registry) IssueBatch(ctx context.Context, a *core.Analysis, buyers []string) ([]BatchItem, error) {
	items, err := r.IssueBatchValues(ctx, a, buyers)
	if err != nil {
		return nil, err
	}
	for i := range items {
		// Per-copy cancellation point: a dead context abandons the batch
		// before the next embed and rolls back its reservations.
		if err := ctx.Err(); err != nil {
			r.ReleaseItems(items)
			return nil, err
		}
		asg, err := a.AssignmentFromInt(items[i].Value)
		if err != nil {
			r.ReleaseItems(items)
			return nil, err
		}
		cp, err := core.Embed(a, asg)
		if err != nil {
			r.ReleaseItems(items)
			return nil, fmt.Errorf("registry: embedding copy for %q: %w", items[i].Buyer, err)
		}
		items[i].Circuit = cp
	}
	return items, nil
}

// IssueBatchValues is IssueBatch without the netlists: every buyer's
// fingerprint value is reserved (or re-read, for buyers already issued)
// atomically, but no copy is embedded — Circuit is nil on every item.
// Because issuance is deterministic per buyer, a recorded value alone is a
// complete acknowledgement: the copy it names can be materialized later,
// byte-identically, by IssueBatch. Fleet-scale async jobs run on this path,
// paying the per-copy embed only when a buyer actually fetches.
func (r *Registry) IssueBatchValues(ctx context.Context, a *core.Analysis, buyers []string) ([]BatchItem, error) {
	if err := r.check(a); err != nil {
		return nil, err
	}
	if len(buyers) == 0 {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	combos := a.Combinations()
	if combos.Sign() <= 0 || combos.Cmp(big.NewInt(1)) == 0 {
		return nil, fmt.Errorf("registry: design has no fingerprint capacity")
	}
	return r.reserveBatch(buyers, combos)
}

// reserveBatch records a value for every buyer under one write lock,
// rolling every new record back if any reservation fails.
func (r *Registry) reserveBatch(buyers []string, combos *big.Int) ([]BatchItem, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	items := make([]BatchItem, len(buyers))
	seen := make(map[string]bool, len(buyers))
	var added []string
	rollback := func() {
		for _, b := range added {
			r.deleteRecord(b)
		}
	}
	for i, buyer := range buyers {
		if buyer == "" {
			rollback()
			return nil, fmt.Errorf("registry: empty buyer name")
		}
		if seen[buyer] {
			rollback()
			return nil, fmt.Errorf("registry: duplicate buyer %q in batch", buyer)
		}
		seen[buyer] = true
		items[i].Buyer = buyer
		if prev, ok := r.Issued[buyer]; ok {
			v, ok2 := new(big.Int).SetString(prev, 10)
			if !ok2 {
				rollback()
				return nil, fmt.Errorf("registry: corrupt record for %q", buyer)
			}
			items[i].Value = v
			continue
		}
		v := r.deriveValue(buyer, combos)
		dec := v.String()
		idx := r.valueIndex()
		if other, ok := idx[dec]; ok {
			rollback()
			return nil, fmt.Errorf("registry: fingerprint collision between %q and %q", buyer, other)
		}
		r.Issued[buyer] = dec
		idx[dec] = buyer
		r.addRow(buyer, v)
		items[i].Value = v
		items[i].Fresh = true
		added = append(added, buyer)
	}
	return items, nil
}

// Adopt installs an externally persisted issuance record — the replicated
// store's WAL-replay and peer-catch-up path. Adopting a record identical to
// an existing one is a no-op; a different value for an already recorded
// buyer, a value colliding with another buyer's, or a non-decimal value is
// corruption and errors without mutating the registry. Because issuance is
// deterministic per (digest, buyer), adopted records are byte-identical to
// the ones local issuance would have derived.
func (r *Registry) Adopt(buyer, value string) error {
	if buyer == "" {
		return fmt.Errorf("registry: empty buyer name")
	}
	v, ok := new(big.Int).SetString(value, 10)
	if !ok {
		return fmt.Errorf("registry: adopting corrupt value for %q", buyer)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.Issued[buyer]; ok {
		if prev != value {
			return fmt.Errorf("registry: adopting conflicting record for %q", buyer)
		}
		return nil
	}
	idx := r.valueIndex()
	if other, ok := idx[value]; ok && other != buyer {
		return fmt.Errorf("registry: fingerprint collision between %q and %q", buyer, other)
	}
	r.Issued[buyer] = value
	idx[value] = buyer
	r.addRow(buyer, v)
	return nil
}

// ReleaseItems drops the records IssueBatch created (Fresh items only —
// pre-existing issuances are never touched). Callers use it when the step
// after minting fails, e.g. the durable registry save, so the failed batch
// leaves no trace.
func (r *Registry) ReleaseItems(items []BatchItem) {
	r.mu.Lock()
	for i := range items {
		if items[i].Fresh {
			r.deleteRecord(items[i].Buyer)
		}
	}
	r.mu.Unlock()
}

// Buyers returns the registered buyer names, sorted.
func (r *Registry) Buyers() []string {
	r.mu.RLock()
	out := make([]string, 0, len(r.Issued))
	for b := range r.Issued {
		out = append(out, b)
	}
	r.mu.RUnlock()
	sort.Strings(out)
	return out
}

// NumIssued returns the number of recorded buyers.
func (r *Registry) NumIssued() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.Issued)
}

// Value returns the decimal fingerprint value recorded for buyer, or false.
func (r *Registry) Value(buyer string) (string, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	v, ok := r.Issued[buyer]
	return v, ok
}

// TraceExact extracts the fingerprint of an untampered suspect copy and
// returns the buyer it was issued to.
func (r *Registry) TraceExact(a *core.Analysis, suspect *circuit.Circuit) (string, error) {
	if err := r.check(a); err != nil {
		return "", err
	}
	asg, err := core.Extract(a, suspect)
	if err != nil {
		return "", err
	}
	v, err := a.IntFromAssignment(asg)
	if err != nil {
		return "", err
	}
	dec := v.String()
	r.mu.RLock()
	idx := r.byValue
	buyer, ok := idx[dec]
	r.mu.RUnlock()
	if idx == nil {
		r.mu.Lock()
		buyer, ok = r.valueIndex()[dec]
		r.mu.Unlock()
	}
	if !ok {
		return "", fmt.Errorf("registry: fingerprint %s matches no issued copy", dec)
	}
	return buyer, nil
}

// TraceScores scores every registered buyer against a possibly tampered
// suspect with the marking-assumption scoring (Score), best first and ties
// by buyer name. It scores against the resident table (built on the first
// call), so a trace decodes no record.
func (r *Registry) TraceScores(a *core.Analysis, suspect *circuit.Circuit) ([]Score, error) {
	if err := r.check(a); err != nil {
		return nil, err
	}
	got, _, err := core.ExtractTolerant(a, suspect)
	if err != nil {
		return nil, err
	}
	r.mu.RLock()
	// Once built, the table stays in sync with Issued; only an Adopt the
	// table cannot hold drops it, and the next pass rebuilds it.
	for r.table == nil {
		r.mu.RUnlock()
		r.mu.Lock()
		err := r.buildTable(a)
		r.mu.Unlock()
		if err != nil {
			return nil, err
		}
		r.mu.RLock()
	}
	scores := r.table.scores(got)
	r.mu.RUnlock()
	sortScores(scores)
	return scores, nil
}

func (r *Registry) check(a *core.Analysis) error {
	id := a.ID()
	if r.checked.Load() == id {
		return nil
	}
	if got := DesignDigest(a); got != r.Digest {
		return fmt.Errorf("registry: design digest mismatch (registry %s, analysis %s)", r.Digest, got)
	}
	r.checked.Store(id)
	return nil
}

// AppendJSON appends the registry snapshot — design, digest and the
// buyer → value records sorted by buyer — exactly as encoding/json's
// SetIndent("", "  ") Encoder writes it, trailing newline included. It
// copies the records under the read lock and sorts and encodes them outside
// it, so a snapshot racing concurrent IssueBatch calls is a consistent
// (point-in-time) state and holds issuance up only for the copy. Durable
// callers (internal/registrystore) must write the output via temp file +
// fsync + rename, never truncate-in-place.
func (r *Registry) AppendJSON(dst []byte) []byte {
	type record struct{ buyer, value string }
	r.mu.RLock()
	recs := make([]record, 0, len(r.Issued))
	for b, v := range r.Issued {
		recs = append(recs, record{b, v})
	}
	r.mu.RUnlock()
	// encoding/json orders map keys by their unescaped bytes.
	slices.SortFunc(recs, func(x, y record) int { return strings.Compare(x.buyer, y.buyer) })
	dst = append(dst, "{\n  \"design\": "...)
	dst = jsonw.AppendString(dst, r.Design)
	dst = append(dst, ",\n  \"digest\": "...)
	dst = jsonw.AppendString(dst, r.Digest)
	dst = append(dst, ",\n  \"issued\": {"...)
	for i, rec := range recs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, "\n    "...)
		dst = jsonw.AppendString(dst, rec.buyer)
		dst = append(dst, ": "...)
		dst = jsonw.AppendString(dst, rec.value)
	}
	if len(recs) > 0 {
		dst = append(dst, "\n  "...)
	}
	return append(dst, "}\n}\n"...)
}

// Save writes the registry snapshot (AppendJSON) to w.
func (r *Registry) Save(w io.Writer) error {
	_, err := w.Write(r.AppendJSON(nil))
	return err
}

// Load reads a registry and validates it against the analysis.
func Load(rd io.Reader, a *core.Analysis) (*Registry, error) {
	var r Registry
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	if r.Issued == nil {
		r.Issued = map[string]string{}
	}
	if err := r.check(a); err != nil {
		return nil, err
	}
	return &r, nil
}
