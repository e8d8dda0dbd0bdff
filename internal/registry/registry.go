// Package registry persists the IP vendor's issued-fingerprint records —
// the bookkeeping §III-E presumes ("the designer can compare the
// fingerprinted IP with the design ... to obtain the fingerprint" and then
// look up which buyer it was issued to). A Registry maps buyer names to
// fingerprint values (mixed-radix integers over the design's modification
// slots) and serialises to JSON, keyed by a digest of the design so a
// registry cannot accidentally be used with the wrong netlist.
//
// A Registry is safe for concurrent use: IssueBatch, TraceExact, TraceScores,
// ExactBuyer, Scores, Buyers, Save and AppendJSON may be called from any
// number of goroutines (the serving daemon in internal/serve does exactly
// that). The expensive circuit work — embedding a copy, extracting a
// suspect's assignment — runs outside the internal lock; only the
// buyer-ordered record list and the indexes derived from it are guarded.
package registry

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/big"
	"slices"
	"strings"
	"sync"
	"unicode/utf8"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/jsonw"
)

// Record is one issuance: the buyer a fingerprinted copy was minted for
// and the decimal fingerprint value recorded for them. Records are
// self-contained — the value re-derives the copy byte-identically, since
// issuance is deterministic per buyer — so a record alone is a complete
// acknowledgement, and it is the unit registrystore persists.
type Record struct {
	// Buyer names the recipient.
	Buyer string `json:"buyer"`
	// Value is the fingerprint as a decimal mixed-radix integer.
	Value string `json:"value"`
}

// entry is a Record as the registry holds it, with its score-table row
// and whether snapshots may copy it verbatim. The flag fits in the
// padding after the 32-bit row, so an entry is no larger than a record
// and an int, and insert moves no more bytes per record.
type entry struct {
	Record
	// row is the record's row in the score table; meaningless while the
	// table is not built.
	row int32
	// plain reports that encoding/json writes both the buyer and the
	// value as themselves in quotes (jsonw.Plain), so AppendJSON copies
	// them without an escape pass. insert sets it.
	plain bool
}

// compareEntries orders records by buyer name, byte-wise — the order
// encoding/json gives map keys, so snapshots need no sort.
func compareEntries(x, y entry) int { return strings.Compare(x.Buyer, y.Buyer) }

// Registry records issued fingerprints for one design. The zero value is
// an empty registry bound to no design.
type Registry struct {
	// mu guards records, byValue and table. Design and Digest are set at
	// construction/load time and never mutated afterwards, so reads of
	// them need no lock.
	mu sync.RWMutex

	// Design is the circuit name (informational).
	Design string
	// Digest fingerprints the analysed netlist structure; Load rejects a
	// registry whose digest does not match the analysis it is used with.
	Digest string

	// records holds every issued record, sorted by buyer name. It is the
	// one per-buyer structure: lookups binary-search it, snapshots and
	// Buyers walk it, and score traces emit in its order.
	records []entry

	// byValue is the reverse index (decimal value → buyer) behind the
	// collision check — built lazily under mu, never serialised. Without it
	// every fresh reservation scans every record, which turns fleet-scale
	// batch minting quadratic. Once built it is kept in sync with records
	// and never dropped, so TraceExact reads it under the read lock.
	byValue map[string]string

	// table is the resident score table behind TraceScores: every record
	// decoded once into a row, instead of once per trace. It is built
	// lazily under mu by the first TraceScores and nil until then, so
	// issuance into a registry nobody score-traces pays nothing.
	// Invariant: whenever mu is released, a built table's rows are exactly
	// the records, and each entry's row names its own.
	table *table
}

// search binary-searches buyer-ordered records for buyer, returning its
// index or the index it would be inserted at.
func search(recs []entry, buyer string) (int, bool) {
	return slices.BinarySearchFunc(recs, buyer, func(e entry, b string) int {
		return strings.Compare(e.Buyer, b)
	})
}

// valueIndex returns the reverse value→buyer index, building it from the
// records on first use, with room for extra values the caller is about to
// add. The caller must hold mu for writing.
func (r *Registry) valueIndex(extra int) map[string]string {
	if r.byValue == nil {
		r.byValue = make(map[string]string, len(r.records)+extra)
		for _, e := range r.records {
			r.byValue[e.Value] = e.Buyer
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
	for i := range r.records {
		e := &r.records[i]
		v, ok := new(big.Int).SetString(e.Value, 10)
		if !ok {
			return fmt.Errorf("registry: corrupt record for %q", e.Buyer)
		}
		if err := t.addValue(e.Buyer, v); err != nil {
			return err
		}
		e.row = int32(i)
	}
	r.table = t
	return nil
}

// addRow mirrors a new record into the score table, if it is built. A
// value the table cannot hold (out of the design's range; only Adopt can
// record one) drops the table, so the next TraceScores rebuilds it and
// reports that record. The caller must hold mu for writing.
func (r *Registry) addRow(e *entry, value *big.Int) {
	if r.table == nil {
		return
	}
	if err := r.table.addValue(e.Buyer, value); err != nil {
		r.table = nil
		return
	}
	e.row = int32(r.table.len() - 1)
}

// insert merges add — sorted by buyer, none of them recorded yet — into the
// records in one backward pass: each run of existing records moves once,
// so a batch of k costs Θ(n + k log n), not k shifts of the whole slice.
// It is the one way in for a record, so it is where each record's plain
// flag is set. The caller must hold mu for writing.
func (r *Registry) insert(add []entry) {
	n, k := len(r.records), len(add)
	r.records = slices.Grow(r.records, k)[:n+k]
	hi := n // records[:hi] have not moved yet
	for j := k - 1; j >= 0; j-- {
		add[j].plain = jsonw.Plain(add[j].Buyer) && jsonw.Plain(add[j].Value)
		pos, _ := search(r.records[:hi], add[j].Buyer)
		copy(r.records[pos+j+1:], r.records[pos:hi])
		r.records[pos+j] = add[j]
		hi = pos
	}
}

// remove drops the records at the sorted, distinct indexes idx, with their
// reverse-index entries and score-table rows, compacting the records in
// one pass. The caller must hold mu for writing.
func (r *Registry) remove(idx []int) {
	for _, i := range idx {
		e := &r.records[i]
		if r.byValue != nil {
			delete(r.byValue, e.Value)
		}
		if r.table != nil {
			// The table moves its last row into the freed one; repoint
			// that row's record. Nothing is compacted yet, so every name
			// still resolves.
			r.table.delete(int(e.row))
			if int(e.row) < r.table.len() {
				j, _ := search(r.records, r.table.name(int(e.row)))
				r.records[j].row = e.row
			}
		}
	}
	w := idx[0]
	for k, i := range idx {
		end := len(r.records)
		if k+1 < len(idx) {
			end = idx[k+1]
		}
		w += copy(r.records[w:], r.records[i+1:end])
	}
	clear(r.records[w:])
	r.records = r.records[:w]
}

// DesignDigest is a.Digest(). It is kept only for perfbench/traced.go and
// perfbench/plan_test.go, which a benchmark change moves onto a.Digest().
func DesignDigest(a *core.Analysis) string { return a.Digest() }

// New creates an empty registry bound to the analysed design.
func New(a *core.Analysis) *Registry {
	return &Registry{Design: a.Circuit.Name, Digest: a.Digest()}
}

// deriveValue is the deterministic buyer→fingerprint derivation: a keyed
// hash of the buyer name reduced modulo the design's combination count.
func (r *Registry) deriveValue(buyer string, combos *big.Int) *big.Int {
	sum := sha256.Sum256([]byte("odcfp-issue:" + r.Digest + ":" + buyer))
	value := new(big.Int).SetBytes(sum[:])
	return value.Mod(value, combos)
}

// BatchItem is one minted copy out of an IssueBatch call.
type BatchItem struct {
	// Buyer names the copy's recipient.
	Buyer string
	// Circuit is the fingerprinted netlist.
	Circuit *circuit.Circuit
	// Value is the embedded fingerprint (mixed-radix integer).
	Value *big.Int
	// Assignment is Value decoded, set with Circuit.
	Assignment core.Assignment
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
		items[i].Circuit, items[i].Assignment = cp, asg
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

// reserveBatch records a value for every buyer under one write lock and
// merges the new records in at once; if any reservation fails, the
// registry is left as it was.
func (r *Registry) reserveBatch(buyers []string, combos *big.Int) ([]BatchItem, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	items := make([]BatchItem, len(buyers))
	seen := make(map[string]bool, len(buyers))
	var fresh []entry
	var freshValues []*big.Int
	// Until the merge, a failed batch has touched only the reverse index.
	rollback := func(err error) ([]BatchItem, error) {
		for _, e := range fresh {
			delete(r.byValue, e.Value)
		}
		return nil, err
	}
	for i, buyer := range buyers {
		if buyer == "" {
			return rollback(fmt.Errorf("registry: empty buyer name"))
		}
		if seen[buyer] {
			return rollback(fmt.Errorf("registry: duplicate buyer %q in batch", buyer))
		}
		seen[buyer] = true
		items[i].Buyer = buyer
		if j, ok := search(r.records, buyer); ok {
			v, ok := new(big.Int).SetString(r.records[j].Value, 10)
			if !ok {
				return rollback(fmt.Errorf("registry: corrupt record for %q", buyer))
			}
			items[i].Value = v
			continue
		}
		v := r.deriveValue(buyer, combos)
		dec := v.String()
		idx := r.valueIndex(len(buyers))
		if other, ok := idx[dec]; ok {
			return rollback(fmt.Errorf("registry: fingerprint collision between %q and %q", buyer, other))
		}
		idx[dec] = buyer
		fresh = append(fresh, entry{Record: Record{Buyer: buyer, Value: dec}})
		freshValues = append(freshValues, v)
		items[i].Value = v
		items[i].Fresh = true
	}
	for k := range fresh {
		r.addRow(&fresh[k], freshValues[k])
	}
	slices.SortFunc(fresh, compareEntries)
	r.insert(fresh)
	return items, nil
}

// Adopt installs one externally persisted issuance record: AdoptAll of
// one record.
func (r *Registry) Adopt(buyer, value string) error {
	return r.AdoptAll([]Record{{Buyer: buyer, Value: value}})
}

// AdoptAll installs externally persisted issuance records — WAL replay,
// peer catch-up and snapshot Load — in any order, sorting them once and
// merging them in at once. Adopting a record identical to an existing one
// (or twice) is a no-op; two values for one buyer, a value colliding with
// another buyer's, an empty buyer or a value that is not a canonical
// decimal (decimal) is corruption and errors without mutating the registry.
// Because issuance is deterministic per (digest, buyer), adopted records
// are byte-identical to the ones local issuance would have derived.
func (r *Registry) AdoptAll(recs []Record) error {
	add := make([]entry, len(recs))
	for i, rec := range recs {
		if rec.Buyer == "" {
			return fmt.Errorf("registry: empty buyer name")
		}
		if !decimal(rec.Value) {
			return fmt.Errorf("registry: adopting corrupt value for %q", rec.Buyer)
		}
		add[i].Record = rec
	}
	slices.SortFunc(add, compareEntries)
	r.mu.Lock()
	defer r.mu.Unlock()
	idx := r.valueIndex(len(add))
	n := 0 // add[:n] are the new records, already in idx
	fail := func(err error) error {
		for _, e := range add[:n] {
			delete(idx, e.Value)
		}
		return err
	}
	for _, e := range add {
		prev, seen := "", false
		if j, ok := search(r.records, e.Buyer); ok {
			prev, seen = r.records[j].Value, true
		} else if n > 0 && add[n-1].Buyer == e.Buyer {
			prev, seen = add[n-1].Value, true
		}
		if seen {
			if prev != e.Value {
				return fail(fmt.Errorf("registry: adopting conflicting record for %q", e.Buyer))
			}
			continue
		}
		if other, ok := idx[e.Value]; ok {
			return fail(fmt.Errorf("registry: fingerprint collision between %q and %q", e.Buyer, other))
		}
		idx[e.Value] = e.Buyer
		add[n] = e
		n++
	}
	if r.table != nil {
		for k := range add[:n] {
			v, _ := new(big.Int).SetString(add[k].Value, 10) // decimal, checked above
			r.addRow(&add[k], v)
		}
	}
	r.insert(add[:n])
	return nil
}

// decimal reports whether s is a canonical decimal: "0", or a run of
// ASCII digits with no leading zero — the only form a non-negative
// big.Int's String writes, and so of every value issuance records. Only
// canonical values keep one number to one string, which the collision
// check and ExactBuyer's lookup of v.String() rely on.
func decimal(s string) bool {
	if s == "" || s[0] == '0' && len(s) > 1 {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

// ReleaseItems drops the records IssueBatch created (Fresh items only —
// pre-existing issuances are never touched). Callers use it when the step
// after minting fails, e.g. the durable registry save, so the failed batch
// leaves no trace.
func (r *Registry) ReleaseItems(items []BatchItem) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var idx []int
	for i := range items {
		if !items[i].Fresh {
			continue
		}
		if j, ok := search(r.records, items[i].Buyer); ok {
			idx = append(idx, j)
		}
	}
	if len(idx) == 0 {
		return
	}
	slices.Sort(idx)
	r.remove(slices.Compact(idx))
}

// Buyers returns the registered buyer names, sorted.
func (r *Registry) Buyers() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, len(r.records))
	for i := range r.records {
		out[i] = r.records[i].Buyer
	}
	return out
}

// Records returns a copy of every record, sorted by buyer.
func (r *Registry) Records() []Record {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Record, len(r.records))
	for i := range r.records {
		out[i] = r.records[i].Record
	}
	return out
}

// NumIssued returns the number of recorded buyers.
func (r *Registry) NumIssued() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.records)
}

// Value returns the decimal fingerprint value recorded for buyer, or false.
func (r *Registry) Value(buyer string) (string, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if i, ok := search(r.records, buyer); ok {
		return r.records[i].Value, true
	}
	return "", false
}

// TraceExact extracts the fingerprint of an untampered suspect copy and
// returns the buyer it was issued to: core.Extract, then ExactBuyer. It
// and TraceScores serve callers that hold a built circuit: cmd/odcfp, the
// examples and perfbench's traced replay.
func (r *Registry) TraceExact(a *core.Analysis, suspect *circuit.Circuit) (string, error) {
	asg, err := core.Extract(a, suspect)
	if err != nil {
		return "", err
	}
	return r.ExactBuyer(a, asg)
}

// TraceScores scores every registered buyer against a possibly tampered
// suspect copy: core.ExtractTolerant, then Scores.
func (r *Registry) TraceScores(a *core.Analysis, suspect *circuit.Circuit) ([]Score, error) {
	got, _, err := core.ExtractTolerant(a, suspect)
	if err != nil {
		return nil, err
	}
	return r.Scores(a, got)
}

// ExactBuyer returns the buyer whose recorded fingerprint is asg, an
// assignment extracted from an untampered suspect (core.Extract, or
// core.ExtractTolerant with no tampered slot).
func (r *Registry) ExactBuyer(a *core.Analysis, asg core.Assignment) (string, error) {
	if err := r.check(a); err != nil {
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
		buyer, ok = r.valueIndex(0)[dec]
		r.mu.Unlock()
	}
	if !ok {
		return "", fmt.Errorf("registry: fingerprint %s matches no issued copy", dec)
	}
	return buyer, nil
}

// Scores scores every registered buyer against got, the assignment
// core.ExtractTolerant extracted with a from a possibly tampered suspect
// (so it has a's shape), with the marking-assumption scoring (Score),
// best first and ties by buyer name. It scores against the resident table
// (built on the first call), so a trace decodes no record, and ranks
// without comparing names (table.scores).
func (r *Registry) Scores(a *core.Analysis, got core.Assignment) ([]Score, error) {
	if err := r.check(a); err != nil {
		return nil, err
	}
	r.mu.RLock()
	// Once built, the table stays in sync with the records; only an Adopt
	// the table cannot hold drops it, and the next pass rebuilds it.
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
	scores := r.table.scores(got, r.records)
	r.mu.RUnlock()
	return scores, nil
}

// check rejects an analysis of another design than the registry's.
func (r *Registry) check(a *core.Analysis) error {
	if got := a.Digest(); got != r.Digest {
		return fmt.Errorf("registry: design digest mismatch (registry %s, analysis %s)", r.Digest, got)
	}
	return nil
}

// AppendJSON appends the registry snapshot — design, digest and the
// buyer → value records sorted by buyer — exactly as encoding/json's
// SetIndent("", "  ") Encoder writes it, trailing newline included. It
// walks the records in their kept order under the read lock, so a
// snapshot racing concurrent IssueBatch calls is a consistent
// (point-in-time) state. A plain record (every issued value, and any
// buyer name encoding/json leaves as it is) is copied straight between
// its quotes; only the others go through jsonw.AppendString. Durable
// callers (internal/registrystore) must write the output via temp file +
// fsync + rename, never truncate-in-place.
func (r *Registry) AppendJSON(dst []byte) []byte {
	dst = append(dst, "{\n  \"design\": "...)
	dst = jsonw.AppendString(dst, r.Design)
	dst = append(dst, ",\n  \"digest\": "...)
	dst = jsonw.AppendString(dst, r.Digest)
	dst = append(dst, ",\n  \"issued\": {"...)
	r.mu.RLock()
	defer r.mu.RUnlock()
	for i, e := range r.records {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, "\n    "...)
		if e.plain {
			dst = append(dst, '"')
			dst = append(dst, e.Buyer...)
			dst = append(dst, `": "`...)
			dst = append(dst, e.Value...)
			dst = append(dst, '"')
			continue
		}
		dst = jsonw.AppendString(dst, e.Buyer)
		dst = append(dst, ": "...)
		dst = jsonw.AppendString(dst, e.Value)
	}
	if len(r.records) > 0 {
		dst = append(dst, "\n  "...)
	}
	return append(dst, "}\n}\n"...)
}

// Save writes the registry snapshot (AppendJSON) to w.
func (r *Registry) Save(w io.Writer) error {
	_, err := w.Write(r.AppendJSON(nil))
	return err
}

// Load reads a registry snapshot of the analysed design. Its records go
// through AdoptAll in the order the snapshot lists them, so a snapshot
// holding a record AdoptAll rejects (an empty buyer, a value that is not a
// canonical decimal, two buyers with one value, one buyer listed with two
// values) fails to load rather than loading a registry that traces
// ambiguously. A snapshot is one JSON object: anything but whitespace after
// it, such as a second snapshot, fails the load as well.
func Load(rd io.Reader, a *core.Analysis) (*Registry, error) {
	var w struct {
		Digest string          `json:"digest"`
		Issued snapshotRecords `json:"issued"`
	}
	dec := json.NewDecoder(rd)
	if err := dec.Decode(&w); err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("registry: data after the snapshot")
	}
	r := New(a)
	if w.Digest != r.Digest {
		return nil, fmt.Errorf("registry: design digest mismatch (snapshot %s, analysis %s)", w.Digest, r.Digest)
	}
	if err := r.AdoptAll(w.Issued); err != nil {
		return nil, err
	}
	return r, nil
}

// snapshotRecords is a snapshot's "issued" object, buyer → value, read in
// document order with every key kept. Decoding into a map would keep only
// a repeated buyer's last value and so hide the conflict from AdoptAll.
type snapshotRecords []Record

// UnmarshalJSON appends the records of one JSON object of strings; null
// appends none, as it leaves a map nil. encoding/json hands it one whole
// value it has already checked, so only the value's shape can be wrong.
func (s *snapshotRecords) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		return nil
	}
	if len(b) == 0 || b[0] != '{' {
		return fmt.Errorf("issued: want an object of buyer → value, got %.20s", b)
	}
	i := 1
	for {
		i = skipSpace(b, i)
		if i < len(b) && b[i] == ',' {
			i = skipSpace(b, i+1)
		}
		if i >= len(b) || b[i] == '}' {
			return nil
		}
		var rec Record
		var err error
		if rec.Buyer, i, err = unquote(b, i); err != nil {
			return err
		}
		i = skipSpace(b, skipSpace(b, i)+1) // past the ':'
		if i >= len(b) || b[i] != '"' {
			return fmt.Errorf("issued: value for %q is not a string", rec.Buyer)
		}
		if rec.Value, i, err = unquote(b, i); err != nil {
			return err
		}
		*s = append(*s, rec)
	}
}

// skipSpace returns the index of the first byte of b at or after i that
// is not JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// unquote decodes the JSON string starting at b[i], a '"', returning it
// and the index past its closing quote. A string with no escape and valid
// UTF-8 is its bytes; any other goes through encoding/json.
func unquote(b []byte, i int) (string, int, error) {
	escaped := false
	for j := i + 1; j < len(b); j++ {
		switch b[j] {
		case '"':
			if raw := b[i+1 : j]; !escaped && utf8.Valid(raw) {
				return string(raw), j + 1, nil
			}
			var str string
			err := json.Unmarshal(b[i:j+1], &str)
			return str, j + 1, err
		case '\\':
			escaped = true
			j++
		}
	}
	return "", len(b), fmt.Errorf("issued: unterminated string")
}
