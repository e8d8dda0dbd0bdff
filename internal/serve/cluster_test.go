package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
)

// startTestCluster boots n cluster replicas on loopback listeners. The
// listeners are bound before any server is built so every replica knows the
// full URL set up front (the ring is a pure function of it). kill[i]
// severs node i abruptly — listener closed, live connections cut, no drain
// — approximating a process kill as closely as one process allows; the
// graceful cleanup still runs at test end.
func startTestCluster(t *testing.T, n int) (bases []string, servers []*Server, kill []func()) {
	t.Helper()
	lns := make([]net.Listener, n)
	bases = make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		bases[i] = "http://" + ln.Addr().String()
	}
	servers = make([]*Server, n)
	kill = make([]func(), n)
	for i := range servers {
		s, err := New(Config{
			StoreDir: t.TempDir(),
			Cluster: &ClusterConfig{
				Self: bases[i], Nodes: bases,
				ReplicationFactor: 2, AckTimeout: 2 * time.Second,
				// Fast hint redelivery so partition tests settle quickly; the
				// background scrub loop stays off (tests trigger Scrub
				// directly for determinism).
				HintRetry: 20 * time.Millisecond, ScrubInterval: -1,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewUnstartedServer(s.Handler())
		ts.Listener.Close()
		ts.Listener = lns[i]
		ts.Start()
		servers[i] = s

		var hardOnce sync.Once
		ln := lns[i]
		kill[i] = func() {
			hardOnce.Do(func() {
				ln.Close()
				ts.CloseClientConnections()
			})
		}
		srv, killFn := s, kill[i]
		t.Cleanup(func() {
			killFn()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		})
	}
	return bases, servers, kill
}

// issueVia mints buyer's copy through one specific replica, returning the
// copy bytes, fingerprint and which node ultimately served the request.
func issueVia(t testing.TB, base, digest, buyer string) (body []byte, fp, node string, err error) {
	t.Helper()
	resp, err := http.Post(base+"/designs/"+digest+"/issue?buyer="+buyer, "text/plain", nil)
	if err != nil {
		return nil, "", "", err
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return nil, "", "", fmt.Errorf("issue %s via %s: status %d: %s", buyer, base, resp.StatusCode, b)
	}
	return b, resp.Header.Get("X-Odcfp-Fingerprint"), resp.Header.Get(nodeHeader), nil
}

// clusterTotals reads one replica's per-design committed record counts.
func clusterTotals(t testing.TB, base string) map[string]uint64 {
	t.Helper()
	resp, err := http.Get(base + "/cluster/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Self   string            `json:"self"`
		Totals map[string]uint64 `json:"totals"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st.Totals
}

// TestClusterRouteAndConverge: any replica accepts any request — uploads
// broadcast, issues and traces route to the design's leader, re-issues are
// idempotent across entry points — and every node's registry converges to
// the full record set.
func TestClusterRouteAndConverge(t *testing.T) {
	bases, _, _ := startTestCluster(t, 3)
	netlist := benchBytes(t, "c880")
	info, _ := uploadDesign(t, bases[0], netlist)

	const buyers = 6
	fps := make(map[string]string, buyers)
	copies := make(map[string][]byte, buyers)
	served := ""
	for i := 0; i < buyers; i++ {
		buyer := fmt.Sprintf("cbuyer-%02d", i)
		body, fp, node, err := issueVia(t, bases[i%3], info.Digest, buyer)
		if err != nil {
			t.Fatal(err)
		}
		if fp == "" || node == "" {
			t.Fatalf("issue %s: fingerprint %q node %q", buyer, fp, node)
		}
		if served == "" {
			served = node
		} else if node != served {
			t.Errorf("issue %s served by %s, others by %s — one leader per design", buyer, node, served)
		}
		fps[buyer] = fp
		copies[buyer] = body
	}
	seen := map[string]string{}
	for buyer, fp := range fps {
		if other, dup := seen[fp]; dup {
			t.Errorf("%s and %s share fingerprint %s", buyer, other, fp)
		}
		seen[fp] = buyer
	}

	// Idempotent re-issue through every entry point: same value.
	for _, base := range bases {
		_, fp, _, err := issueVia(t, base, info.Digest, "cbuyer-00")
		if err != nil {
			t.Fatal(err)
		}
		if fp != fps["cbuyer-00"] {
			t.Errorf("re-issue via %s changed fingerprint %s → %s", base, fps["cbuyer-00"], fp)
		}
	}

	// A copy traces back through any replica.
	for _, base := range bases {
		tr := traceSuspect(t, base, info.Digest, copies["cbuyer-03"], "")
		if tr.Exact != "cbuyer-03" {
			t.Errorf("trace via %s = %q, want cbuyer-03", base, tr.Exact)
		}
	}

	// Every replica's WAL converges to all records (stragglers replicate
	// past the quorum in the background).
	deadline := time.Now().Add(10 * time.Second)
	for _, base := range bases {
		for {
			if got := clusterTotals(t, base)[info.Digest]; got == buyers {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("node %s totals = %v, want %s:%d",
					base, clusterTotals(t, base), info.Digest, buyers)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// TestClusterFollowerReloadHashesNothing: a follower whose registry a
// peer's append made stale reloads it against its cached analysis without
// hashing the netlist again.
func TestClusterFollowerReloadHashesNothing(t *testing.T) {
	bases, servers, _ := startTestCluster(t, 2)
	info, _ := uploadDesign(t, bases[0], benchBytes(t, "c432"))
	leader := slices.Index(bases, servers[0].cluster.ring.Order(info.Digest)[0])
	f := servers[1-leader]
	var d *design
	waitUntil(t, "design broadcast", 5*time.Second, func() bool {
		d = f.lookupDesign(info.Digest)
		return d != nil
	})
	a, err := f.analysis(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := f.registryOf(d, a)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := issueVia(t, bases[leader], info.Digest, "peer"); err != nil {
		t.Fatal(err)
	}
	if f.regstore.Seq(info.Digest) != 1 {
		t.Fatalf("follower at seq %d after the acknowledged append, want 1", f.regstore.Seq(info.Digest))
	}
	base := coreDigests()
	reloaded, err := f.registryOf(d, a)
	if err != nil {
		t.Fatal(err)
	}
	if reloaded == reg || reloaded.NumIssued() != 1 {
		t.Fatalf("follower registry not reloaded (%d records)", reloaded.NumIssued())
	}
	if n := coreDigests() - base; n != 0 {
		t.Errorf("the follower's reload hashed %d times, want 0", n)
	}
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t testing.TB, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestChaosClusterPartition: the partition-tolerance acceptance test. A
// 3-node cluster is split mid-load into a majority side (the design's
// leader plus one follower) and a minority side (the remaining follower):
// issuance on the majority side must keep acknowledging (W=2 is satisfied
// without the minority), every miss toward the severed peer must queue a
// durable hint, and after the partition heals the hinted handoff alone —
// no client traffic, no manual sync — must converge the minority to the
// full acknowledged record set with zero losses. Run under -race in CI.
func TestChaosClusterPartition(t *testing.T) {
	bases, servers, _ := startTestCluster(t, 3)
	netlist := benchBytes(t, "c880")
	info, _ := uploadDesign(t, bases[0], netlist)

	leaderURL := servers[0].cluster.ring.Leader(info.Digest)
	leaderIdx := -1
	for i, b := range bases {
		if b == leaderURL {
			leaderIdx = i
		}
	}
	if leaderIdx < 0 {
		t.Fatalf("leader %s not in %v", leaderURL, bases)
	}
	majorityIdx := (leaderIdx + 1) % 3
	minorityIdx := (leaderIdx + 2) % 3

	// The upload's design push is asynchronous; let it land everywhere
	// first, or a partition that cuts it leaves the majority without the
	// design whenever the upload went to the minority node.
	for _, srv := range servers {
		waitUntil(t, "design push", 5*time.Second, func() bool {
			srv.mu.Lock()
			defer srv.mu.Unlock()
			return srv.designs[info.Digest] != nil
		})
	}

	// Sever the minority node from both majority nodes. Node ids are the
	// advertised base URLs, so the group tokens are exact.
	plan := fault.NewPlan(7, map[fault.Point]fault.Rule{
		fault.NetPartition: {Groups: [][]string{
			{bases[leaderIdx], bases[majorityIdx]},
			{bases[minorityIdx]},
		}},
	})
	fault.Enable(plan)
	t.Cleanup(fault.Disable)

	const buyers = 12
	acked := make(map[string][]byte)
	majority := []int{leaderIdx, majorityIdx}
	for i := 0; i < buyers; i++ {
		buyer := fmt.Sprintf("pbuyer-%02d", i)
		var lastErr error
		for attempt := 0; attempt < 3; attempt++ {
			body, _, _, err := issueVia(t, bases[majority[(i+attempt)%2]], info.Digest, buyer)
			if err == nil {
				acked[buyer] = body
				lastErr = nil
				break
			}
			lastErr = err
			time.Sleep(20 * time.Millisecond)
		}
		if lastErr != nil {
			t.Fatalf("issue %s on the majority side failed during the partition: %v", buyer, lastErr)
		}
	}

	// The partition really severed the minority: it holds none of the load
	// issued while cut off, and the coordinator owes it hints.
	if got := servers[minorityIdx].cluster.store.Total(info.Digest); got != 0 {
		t.Fatalf("minority node holds %d records across the partition", got)
	}
	waitUntil(t, "hints queued for the severed peer", 5*time.Second, func() bool {
		return servers[leaderIdx].cluster.store.HintsPending()[bases[minorityIdx]] > 0
	})

	// Heal. Hint redelivery alone must converge the minority — no client
	// traffic, no ?sync=1.
	fault.Disable()
	waitUntil(t, "hinted handoff convergence", 10*time.Second, func() bool {
		return servers[minorityIdx].cluster.store.Total(info.Digest) == uint64(len(acked))
	})
	waitUntil(t, "hint queues drained", 10*time.Second, func() bool {
		for _, s := range servers {
			if len(s.cluster.store.HintsPending()) != 0 {
				return false
			}
		}
		return true
	})
	if st := servers[leaderIdx].cluster.store.Handoff(); st.HintsQueued == 0 || st.HintsDelivered == 0 {
		t.Fatalf("leader handoff stats %+v recorded no hint activity", st)
	}

	// An explicit anti-entropy pass finds nothing left to repair.
	resp, err := http.Get(bases[minorityIdx] + "/cluster/status?sync=1")
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Totals map[string]uint64 `json:"totals"`
		Health struct {
			HintsPending map[string]int `json:"hints_pending"`
		} `json:"health"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Totals[info.Digest] != uint64(len(acked)) {
		t.Fatalf("minority total %d after sync, want %d", st.Totals[info.Digest], len(acked))
	}
	if len(st.Health.HintsPending) != 0 {
		t.Fatalf("minority still owed hints after convergence: %v", st.Health.HintsPending)
	}

	// Zero acknowledged losses: every acked copy traces from every node.
	for buyer, body := range acked {
		for i, base := range bases {
			tr := traceSuspect(t, base, info.Digest, body, "")
			if tr.Exact != buyer {
				t.Errorf("acknowledged %s traced to %q via node %d — issuance lost", buyer, tr.Exact, i)
			}
		}
	}
}

// TestChaosClusterScrubBitFlip: latent on-disk corruption on a live
// replica. After the cluster converges, a bit is flipped inside one node's
// WAL segment; the next scrub pass must quarantine the damaged file,
// rebuild it byte-identically from the in-memory replay, and leave every
// acknowledged issuance traceable through the repaired node. Run under
// -race in CI.
func TestChaosClusterScrubBitFlip(t *testing.T) {
	bases, servers, _ := startTestCluster(t, 3)
	netlist := benchBytes(t, "c880")
	info, _ := uploadDesign(t, bases[0], netlist)

	const buyers = 8
	acked := make(map[string][]byte)
	for i := 0; i < buyers; i++ {
		buyer := fmt.Sprintf("sbuyer-%02d", i)
		body, _, _, err := issueVia(t, bases[i%3], info.Digest, buyer)
		if err != nil {
			t.Fatal(err)
		}
		acked[buyer] = body
	}
	// Wait for every replica to hold the full set so no straggler append
	// races the corruption below.
	for i := range servers {
		srv := servers[i]
		waitUntil(t, fmt.Sprintf("node %d convergence", i), 10*time.Second, func() bool {
			return srv.cluster.store.Total(info.Digest) == buyers
		})
	}

	victim := servers[1]
	seg := filepath.Join(victim.cfg.StoreDir, "wal", info.Digest+".wal")
	pristine, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	damaged := append([]byte(nil), pristine...)
	damaged[len(damaged)/2] ^= 0x10
	if err := os.WriteFile(seg, damaged, 0o644); err != nil {
		t.Fatal(err)
	}

	rep := victim.cluster.store.Scrub()
	if rep.Corrupt != 1 || rep.Repaired != 1 {
		t.Fatalf("scrub report %+v, want corrupt=1 repaired=1", rep)
	}
	rebuilt, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rebuilt, pristine) {
		t.Fatal("rebuilt segment is not byte-identical to the pre-corruption file")
	}
	if _, err := os.Stat(seg + ".corrupt"); err != nil {
		t.Fatalf("damaged segment not quarantined: %v", err)
	}
	if st := victim.cluster.store.Handoff(); st.ScrubCorrupt != 1 || st.ScrubRepaired != 1 {
		t.Fatalf("victim handoff stats %+v missed the repair", st)
	}
	if got := victim.cluster.store.Total(info.Digest); got != buyers {
		t.Fatalf("victim total %d after repair, want %d", got, buyers)
	}
	for buyer, body := range acked {
		tr := traceSuspect(t, bases[1], info.Digest, body, "")
		if tr.Exact != buyer {
			t.Errorf("acknowledged %s traced to %q through the repaired node", buyer, tr.Exact)
		}
	}
}

// TestChaosClusterKillNode: the durability acceptance test for cluster
// mode. With the replication window widened by fault injection, the
// design's leader is severed abruptly mid-load; every issuance that was
// acknowledged (HTTP 200) before or after the kill must remain traceable
// from both survivors, and the survivors' registries must converge.
// Run under -race in CI.
func TestChaosClusterKillNode(t *testing.T) {
	plan, err := fault.Parse("repl.window:delay=3ms")
	if err != nil {
		t.Fatal(err)
	}
	fault.Enable(plan)
	t.Cleanup(fault.Disable)

	bases, servers, kill := startTestCluster(t, 3)
	netlist := benchBytes(t, "c880")
	info, _ := uploadDesign(t, bases[0], netlist)

	leaderURL := servers[0].cluster.ring.Leader(info.Digest)
	leaderIdx := -1
	var survivors []int
	for i, b := range bases {
		if b == leaderURL {
			leaderIdx = i
		} else {
			survivors = append(survivors, i)
		}
	}
	if leaderIdx < 0 {
		t.Fatalf("leader %s not in %v", leaderURL, bases)
	}

	const buyers = 18
	const killAfter = 6
	acked := make(map[string][]byte)
	for i := 0; i < buyers; i++ {
		if i == killAfter {
			kill[leaderIdx]()
		}
		buyer := fmt.Sprintf("kbuyer-%02d", i)
		// Clients only ever talk to the survivors; the cluster routes
		// around the dead leader (breaker + preference order). One retry
		// absorbs the request unlucky enough to be mid-forward at the kill.
		var lastErr error
		for attempt := 0; attempt < 3; attempt++ {
			body, _, _, err := issueVia(t, bases[survivors[(i+attempt)%2]], info.Digest, buyer)
			if err == nil {
				acked[buyer] = body
				lastErr = nil
				break
			}
			lastErr = err
			time.Sleep(50 * time.Millisecond)
		}
		if lastErr != nil {
			t.Logf("issue %s never acknowledged (allowed): %v", buyer, lastErr)
		}
	}
	if len(acked) < killAfter {
		t.Fatalf("only %d issuances acknowledged, expected at least the %d pre-kill ones", len(acked), killAfter)
	}
	post := len(acked) - killAfter
	if post <= 0 {
		t.Fatalf("no issuance acknowledged after the leader kill — failover never engaged")
	}

	// Converge the survivors the way a restarted follower would: union
	// each other's records. Then both must agree and hold every ack.
	for _, i := range survivors {
		if _, err := servers[i].cluster.store.Sync(context.Background(), []string{info.Digest}); err != nil {
			t.Fatalf("survivor %d sync: %v", i, err)
		}
	}
	t0, t1 := clusterTotals(t, bases[survivors[0]])[info.Digest], clusterTotals(t, bases[survivors[1]])[info.Digest]
	if t0 != t1 || t0 < uint64(len(acked)) {
		t.Fatalf("survivor totals %d, %d — want equal and ≥ %d acknowledged", t0, t1, len(acked))
	}

	// Zero acknowledged losses: every acked copy traces exactly from both
	// survivors.
	for buyer, body := range acked {
		for _, i := range survivors {
			tr := traceSuspect(t, bases[i], info.Digest, body, "")
			if tr.Exact != buyer {
				t.Errorf("acknowledged %s traced to %q via survivor %d — issuance lost", buyer, tr.Exact, i)
			}
		}
	}
}
