package registrystore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/cell"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/registry"
)

const replTestDigest = "ffeeddccbbaa99887766554433221100"

// fakeTransport backs each peer with a real WAL, so replication tests
// exercise the same union/dedup semantics the HTTP transport reaches.
type fakeTransport struct {
	mu    sync.Mutex
	peers map[string]*WAL
	down  map[string]bool
	// fullSends counts Replicate calls per node whose record list was
	// longer than one append's worth — the catch-up re-send signature.
	sends map[string][]int
	// fetches lists the digests Fetch was asked for, per node.
	fetches map[string][]string
}

func newFakeTransport(t *testing.T, nodes ...string) *fakeTransport {
	ft := &fakeTransport{
		peers: make(map[string]*WAL),
		down:  make(map[string]bool),
		sends: make(map[string][]int),

		fetches: make(map[string][]string),
	}
	for _, n := range nodes {
		w, err := OpenWAL(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		ft.peers[n] = w
	}
	return ft
}

func (ft *fakeTransport) setDown(node string, down bool) {
	ft.mu.Lock()
	ft.down[node] = down
	ft.mu.Unlock()
}

func (ft *fakeTransport) Replicate(ctx context.Context, node, digest string, recs []Record, total uint64) (uint64, error) {
	ft.mu.Lock()
	down := ft.down[node]
	ft.sends[node] = append(ft.sends[node], len(recs))
	w := ft.peers[node]
	ft.mu.Unlock()
	if down {
		return 0, errors.New("peer down")
	}
	_, pt, err := w.Append(digest, recs)
	return pt, err
}

func (ft *fakeTransport) Fetch(ctx context.Context, node, digest string) ([]Record, error) {
	ft.mu.Lock()
	down := ft.down[node]
	w := ft.peers[node]
	ft.fetches[node] = append(ft.fetches[node], digest)
	ft.mu.Unlock()
	if down {
		return nil, errors.New("peer down")
	}
	return w.Records(digest), nil
}

func openTestReplicated(t *testing.T, ft *fakeTransport, self string, nodes []string, w int) *Replicated {
	t.Helper()
	r, err := OpenReplicated(ReplicatedConfig{
		Dir: t.TempDir(), Self: self, Nodes: nodes, W: w,
		Transport: ft, AckTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestReplicatedQuorumAck: a W=2 append over three nodes acknowledges and
// every peer — not just the quorum — ends up holding the records.
func TestReplicatedQuorumAck(t *testing.T) {
	nodes := []string{"n1", "n2", "n3"}
	ft := newFakeTransport(t, "n2", "n3")
	r := openTestReplicated(t, ft, "n1", nodes, 2)

	recs := []Record{{Buyer: "alice", Value: "101"}, {Buyer: "bob", Value: "202"}}
	total, err := r.Append(context.Background(), replTestDigest, nil, recs)
	if err != nil {
		t.Fatal(err)
	}
	if total != 2 || r.Total(replTestDigest) != 2 {
		t.Fatalf("total = %d (local %d), want 2", total, r.Total(replTestDigest))
	}
	// The quorum covers self + one peer; stragglers catch up in the
	// background under the ack timeout.
	for _, n := range []string{"n2", "n3"} {
		waitFor(t, n+" replication", func() bool { return ft.peers[n].Total(replTestDigest) == 2 })
	}
}

// TestReplicatedAppendSeqFlagsForeignRecords: a record another writer
// replicates in after a registry was loaded must leave Seq different from
// the sequence Append returns for that registry — otherwise the caller
// keeps serving a registry that misses an acknowledged issuance.
func TestReplicatedAppendSeqFlagsForeignRecords(t *testing.T) {
	r := openTestReplicated(t, newFakeTransport(t), "n1", []string{"n1"}, 1)
	reg := &registry.Registry{}
	issue := func(buyer, value string) uint64 {
		t.Helper()
		if err := reg.Adopt(buyer, value); err != nil {
			t.Fatal(err)
		}
		seq, err := r.Append(context.Background(), replTestDigest, reg, []Record{{Buyer: buyer, Value: value}})
		if err != nil {
			t.Fatal(err)
		}
		return seq
	}
	if seq := issue("alice", "101"); seq != r.Seq(replTestDigest) {
		t.Fatalf("in-sync append returned seq %d, store at %d", seq, r.Seq(replTestDigest))
	}
	if _, err := r.ApplyReplica(replTestDigest, []Record{{Buyer: "bob", Value: "202"}}); err != nil {
		t.Fatal(err)
	}
	if seq := issue("carol", "303"); seq == r.Seq(replTestDigest) {
		t.Fatalf("append returned seq %d equal to the store's although the registry lacks bob", seq)
	}
}

// TestReplicatedQuorumFailure: with every peer down a W=2 append fails with
// a transient error (the serve retry loop may re-drive it), but the records
// stay durable locally — an acknowledged superset is always legal.
func TestReplicatedQuorumFailure(t *testing.T) {
	nodes := []string{"n1", "n2", "n3"}
	ft := newFakeTransport(t, "n2", "n3")
	ft.setDown("n2", true)
	ft.setDown("n3", true)
	r := openTestReplicated(t, ft, "n1", nodes, 2)

	recs := []Record{{Buyer: "alice", Value: "101"}}
	_, err := r.Append(context.Background(), replTestDigest, nil, recs)
	if err == nil {
		t.Fatal("append with all peers down reached its quorum")
	}
	var tr interface{ Transient() bool }
	if !errors.As(err, &tr) || !tr.Transient() {
		t.Fatalf("quorum failure %v is not transient", err)
	}
	if r.Total(replTestDigest) != 1 {
		t.Fatalf("local total = %d, want 1 (locally durable despite quorum failure)", r.Total(replTestDigest))
	}

	// Peers recover; the retried append is idempotent and now acknowledges.
	ft.setDown("n2", false)
	ft.setDown("n3", false)
	total, err := r.Append(context.Background(), replTestDigest, nil, recs)
	if err != nil || total != 1 {
		t.Fatalf("retried append: total=%d err=%v", total, err)
	}
}

// TestReplicatedCatchupResend: a peer that missed earlier appends (it
// restarted empty) acks with a lower total; the sender responds by
// re-sending its full record list in the same ack window, so the peer is
// complete before the append even returns.
func TestReplicatedCatchupResend(t *testing.T) {
	nodes := []string{"n1", "n2"}
	ft := newFakeTransport(t, "n2")
	r := openTestReplicated(t, ft, "n1", nodes, 2)

	// Seed history the peer never saw (as if it was down for two appends).
	if _, _, err := r.wal.Append(replTestDigest, []Record{
		{Buyer: "old-1", Value: "1"}, {Buyer: "old-2", Value: "2"},
	}); err != nil {
		t.Fatal(err)
	}

	total, err := r.Append(context.Background(), replTestDigest, nil,
		[]Record{{Buyer: "new-3", Value: "3"}})
	if err != nil || total != 3 {
		t.Fatalf("append: total=%d err=%v", total, err)
	}
	waitFor(t, "peer catch-up", func() bool { return ft.peers["n2"].Total(replTestDigest) == 3 })
	got := ft.peers["n2"].Records(replTestDigest)
	want := map[string]string{"old-1": "1", "old-2": "2", "new-3": "3"}
	for _, rec := range got {
		if want[rec.Buyer] != rec.Value {
			t.Fatalf("peer record %+v unexpected (all: %v)", rec, got)
		}
		delete(want, rec.Buyer)
	}
	if len(want) != 0 {
		t.Fatalf("peer missing records %v after catch-up", want)
	}
}

// TestReplicatedPullWhenBehind: a peer's ack reveals it holds records this
// node lacks; the node pulls them in the background and the segments
// converge by union.
func TestReplicatedPullWhenBehind(t *testing.T) {
	nodes := []string{"n1", "n2"}
	ft := newFakeTransport(t, "n2")
	r := openTestReplicated(t, ft, "n1", nodes, 2)

	// The peer already holds three records this node never saw.
	if _, _, err := ft.peers["n2"].Append(replTestDigest, []Record{
		{Buyer: "p-1", Value: "1"}, {Buyer: "p-2", Value: "2"}, {Buyer: "p-3", Value: "3"},
	}); err != nil {
		t.Fatal(err)
	}

	if _, err := r.Append(context.Background(), replTestDigest, nil,
		[]Record{{Buyer: "mine", Value: "9"}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "behind-pull union", func() bool { return r.Total(replTestDigest) == 4 })
}

// TestReplicatedSyncAdopts: startup Sync pulls a digest's records from the
// peers — the restarted-follower path — and skips dead peers rather than
// blocking recovery.
func TestReplicatedSyncAdopts(t *testing.T) {
	nodes := []string{"n1", "n2", "n3"}
	ft := newFakeTransport(t, "n2", "n3")
	ft.setDown("n3", true)
	r := openTestReplicated(t, ft, "n1", nodes, 2)

	if _, _, err := ft.peers["n2"].Append(replTestDigest, []Record{
		{Buyer: "s-1", Value: "1"}, {Buyer: "s-2", Value: "2"},
	}); err != nil {
		t.Fatal(err)
	}
	adopted, err := r.Sync(context.Background(), []string{replTestDigest})
	if err != nil {
		t.Fatal(err)
	}
	if adopted != 2 || r.Total(replTestDigest) != 2 {
		t.Fatalf("Sync adopted %d (local total %d), want 2", adopted, r.Total(replTestDigest))
	}
	// A second sync is a no-op: everything dedups.
	adopted, err = r.Sync(context.Background(), []string{replTestDigest})
	if err != nil || adopted != 0 {
		t.Fatalf("second Sync adopted %d err=%v, want 0, nil", adopted, err)
	}
}

// TestReplicatedSyncPullsOnlyItsDigests: Sync fetches exactly the digests
// it is given. A one-design pull (read repair, design adoption) must not
// also fetch every other design the local WAL holds.
func TestReplicatedSyncPullsOnlyItsDigests(t *testing.T) {
	const other = "00112233445566778899aabbccddeeff"
	ft := newFakeTransport(t, "n2", "n3")
	r := openTestReplicated(t, ft, "n1", []string{"n1", "n2", "n3"}, 2)
	if _, _, err := r.wal.Append(other, []Record{{Buyer: "o-1", Value: "1"}}); err != nil {
		t.Fatal(err)
	}
	for _, node := range []string{"n2", "n3"} {
		if _, _, err := ft.peers[node].Append(other, []Record{{Buyer: "o-1", Value: "1"}, {Buyer: "o-2", Value: "2"}}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ft.peers[node].Append(replTestDigest, []Record{{Buyer: "s-1", Value: "1"}}); err != nil {
			t.Fatal(err)
		}
	}

	if _, err := r.Sync(context.Background(), []string{replTestDigest}); err != nil {
		t.Fatal(err)
	}
	ft.mu.Lock()
	defer ft.mu.Unlock()
	for _, node := range []string{"n2", "n3"} {
		if got := ft.fetches[node]; !slices.Equal(got, []string{replTestDigest}) {
			t.Errorf("Sync of one digest fetched %v from %s, want only %s", got, node, replTestDigest)
		}
	}
	if r.Total(replTestDigest) != 1 || r.Total(other) != 1 {
		t.Errorf("totals after Sync: requested %d, other %d; want 1 and 1 (other not pulled)",
			r.Total(replTestDigest), r.Total(other))
	}
}

// TestRegistryOrderIndependent: however a registry's records arrive, it
// keeps one buyer order. Four registries of the same c880 records — minted
// by IssueBatch, adopted one by one in shuffled order, loaded from a
// snapshot, and replayed by Replicated.Load from a WAL written in shuffled
// order — give byte-identical snapshots and equal score traces.
func TestRegistryOrderIndependent(t *testing.T) {
	spec, err := bench.ByName("c880")
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Analyze(spec.Build(), core.DefaultOptions(cell.Default()))
	if err != nil {
		t.Fatal(err)
	}
	digest := a.Digest()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(3))
	shuffled := func(recs []Record) []Record {
		out := slices.Clone(recs)
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	var buyers []string
	for _, i := range rng.Perm(300) {
		buyers = append(buyers, fmt.Sprintf("buyer-%03d", i))
	}

	minted := registry.New(a)
	var suspect *circuit.Circuit
	for _, chunk := range [][]string{buyers[:1], buyers[1:120], buyers[120:]} {
		items, err := minted.IssueBatch(ctx, a, chunk)
		if err != nil {
			t.Fatal(err)
		}
		if suspect == nil {
			suspect = items[0].Circuit
		}
	}
	recs := minted.Records()

	adopted := registry.New(a)
	for _, rec := range shuffled(recs) {
		if err := adopted.Adopt(rec.Buyer, rec.Value); err != nil {
			t.Fatal(err)
		}
	}

	loaded, err := registry.Load(bytes.NewReader(minted.AppendJSON(nil)), a)
	if err != nil {
		t.Fatal(err)
	}

	rs := openTestReplicated(t, newFakeTransport(t), "n1", []string{"n1"}, 1)
	walRecs := shuffled(recs)
	for len(walRecs) > 0 {
		n := min(len(walRecs), 1+rng.Intn(40))
		if _, err := rs.Append(ctx, digest, nil, walRecs[:n]); err != nil {
			t.Fatal(err)
		}
		walRecs = walRecs[n:]
	}
	replayed, _, err := rs.Load(digest, a)
	if err != nil {
		t.Fatal(err)
	}

	want := minted.AppendJSON(nil)
	wantScores, err := minted.TraceScores(a, suspect)
	if err != nil {
		t.Fatal(err)
	}
	for label, reg := range map[string]*registry.Registry{"Adopt": adopted, "Load": loaded, "Replicated.Load": replayed} {
		if got := reg.AppendJSON(nil); !bytes.Equal(got, want) {
			t.Errorf("%s: snapshot differs from the IssueBatch registry's", label)
		}
		got, err := reg.TraceScores(a, suspect)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, wantScores) {
			t.Errorf("%s: score trace differs from the IssueBatch registry's", label)
		}
	}
	if !slices.IsSortedFunc(recs, func(x, y Record) int { return strings.Compare(x.Buyer, y.Buyer) }) {
		t.Error("Records is not sorted by buyer")
	}
}

// TestReplicatedFetchFailuresCount: every peer fetch — the behind-peer
// pull, the scrubber's source and Sync — counts a failed fetch once in
// repl_errors and once in the peer's peer_errors{node}.
func TestReplicatedFetchFailuresCount(t *testing.T) {
	ft := newFakeTransport(t, "n2")
	ft.setDown("n2", true)
	r := openTestReplicated(t, ft, "n1", []string{"n1", "n2"}, 2)
	for _, fetch := range []struct {
		name string
		run  func()
	}{
		{"pull", func() { r.pull("n2", replTestDigest) }},
		{"fetchPeers", func() { r.fetchPeers(replTestDigest) }},
		{"Sync", func() { r.Sync(context.Background(), []string{replTestDigest}) }},
	} {
		repl, peer := mReplErrors.Value(), peerErrCounter("n2").Value()
		fetch.run()
		if n := mReplErrors.Value() - repl; n != 1 {
			t.Errorf("%s: a failed fetch added %d to repl_errors, want 1", fetch.name, n)
		}
		if n := peerErrCounter("n2").Value() - peer; n != 1 {
			t.Errorf("%s: a failed fetch added %d to peer_errors{n2}, want 1", fetch.name, n)
		}
	}
}

// coreDigests reads core.digests: how many times a netlist was hashed.
func coreDigests() int64 {
	for _, m := range obs.Snapshot(false) {
		if m.Name == "core.digests" {
			return m.Value
		}
	}
	return 0
}

// TestOneAnalysisHashesOnce: Load, New, IssueBatch, TraceExact and
// TraceScores against one analysis hash its netlist once in total; a
// reload after an append, as a follower makes when a peer's records
// arrive, hashes nothing.
func TestOneAnalysisHashesOnce(t *testing.T) {
	spec, err := bench.ByName("c432")
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Analyze(spec.Build(), core.DefaultOptions(cell.Default()))
	if err != nil {
		t.Fatal(err)
	}
	r := openTestReplicated(t, newFakeTransport(t), "n1", []string{"n1"}, 1)
	base := coreDigests()
	reg, _, err := r.Load(a.Digest(), a)
	if err != nil {
		t.Fatal(err)
	}
	registry.New(a)
	items, err := reg.IssueBatch(context.Background(), a, []string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.TraceExact(a, items[0].Circuit); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.TraceScores(a, items[0].Circuit); err != nil {
		t.Fatal(err)
	}
	if n := coreDigests() - base; n != 1 {
		t.Errorf("one analysis hashed %d times, want 1", n)
	}
	if _, err := r.ApplyReplica(a.Digest(), []Record{{Buyer: "peer", Value: "1"}}); err != nil {
		t.Fatal(err)
	}
	base = coreDigests()
	reg, seq, err := r.Load(a.Digest(), a)
	if err != nil || seq != 1 || reg.NumIssued() != 1 {
		t.Fatalf("reload: seq %d, %d records, err %v; want 1, 1, nil", seq, reg.NumIssued(), err)
	}
	if n := coreDigests() - base; n != 0 {
		t.Errorf("a reload hashed %d times, want 0", n)
	}
}
