package serve

// Chaos suite: the httptest daemon under injected faults (internal/fault).
// These tests assert the PR's resilience contract: a request whose deadline
// expires mid-SAT-search frees its worker slot promptly, acknowledged
// issuances survive a crash/restart even when the store is flaky, degraded
// verification is always labeled, overload sheds instead of queueing
// without bound, and nothing leaks goroutines.
//
// The fault plan is process-global, so none of these tests may use
// t.Parallel; each arms its plan through chaosFaults, which disarms on
// cleanup.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
)

// chaosFaults arms a fault plan for one test and disarms it on cleanup.
func chaosFaults(t testing.TB, spec string) {
	t.Helper()
	p, err := fault.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	fault.Enable(p)
	t.Cleanup(fault.Disable)
}

// rawIssue is issueCopy without the status assertion: chaos runs expect
// some requests to fail, so the caller inspects status/headers/body itself.
func rawIssue(t testing.TB, base, digest, buyer, query string) (int, http.Header, string) {
	t.Helper()
	url := fmt.Sprintf("%s/designs/%s/issue?buyer=%s%s", base, digest, buyer, query)
	resp, err := http.Post(url, "text/plain", nil)
	if err != nil {
		t.Fatalf("issue %s: %v", buyer, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, string(body)
}

// assertNoGoroutineLeak polls until the goroutine count settles back to the
// baseline (with slack for httptest connection teardown), dumping all
// stacks if it never does.
func assertNoGoroutineLeak(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		http.DefaultClient.CloseIdleConnections()
		n := runtime.NumGoroutine()
		if n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			m := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d live, baseline %d\n%s", n, baseline, buf[:m])
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestChaosDeadlineFreesSlot: a request whose deadline expires mid-SAT-
// search comes back 504 and its worker slot is free within 100ms of the
// response. The injected sat.slow stall guarantees the verify search is
// still running when the deadline fires; the strict cancellation-latency
// bound on an unstalled search is asserted in internal/sat's ctx tests.
func TestChaosDeadlineFreesSlot(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, RequestTimeout: 50 * time.Millisecond})
	s.breaker = newBreaker(100, breakerCooldown) // keep SAT verification armed throughout
	info, _ := uploadDesign(t, ts.URL, benchBytes(t, "c432"))
	baseline := runtime.NumGoroutine()

	// Build the shared verifier session outside any request, so the slow
	// request spends its whole budget in cancellable SAT search rather than
	// in (uncancellable, one-time) session construction.
	d := s.lookupDesign(info.Digest)
	a, err := s.analysis(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	a.SharedVerifier()

	// Every SAT context poll stalls past the whole request deadline, so the
	// very first poll of the verify search already finds ctx expired.
	chaosFaults(t, "sat.slow:delay=60ms")
	t0 := time.Now()
	status, _, body := rawIssue(t, ts.URL, info.Digest, "slow", "&verify=1")
	elapsed := time.Since(t0)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("stalled verify: status %d (%s), want 504", status, body)
	}
	// Bound: deadline + one injected 60ms stall + the 100ms promptness
	// budget. Anything above means the search ran on past its deadline.
	if elapsed > 250*time.Millisecond {
		t.Fatalf("504 took %v, want prompt cancellation", elapsed)
	}
	// The slot must be free within 100ms of the response.
	freeBy := time.Now().Add(100 * time.Millisecond)
	for s.InFlight() != 0 {
		if time.Now().After(freeBy) {
			t.Fatalf("worker slot still held %d in-flight 100ms after the 504", s.InFlight())
		}
		time.Sleep(time.Millisecond)
	}

	// The daemon keeps serving: with faults disarmed a plain issue succeeds.
	fault.Disable()
	if status, _, body := rawIssue(t, ts.URL, info.Digest, "after", ""); status != http.StatusOK {
		t.Fatalf("issue after cancelled request: status %d (%s)", status, body)
	}
	assertNoGoroutineLeak(t, baseline)
}

// TestChaosIssuanceDurability: a concurrent issuance run under injected
// store failures and SAT budget exhaustion loses no acknowledged issuance
// across a restart, labels every acknowledged response's verification, and
// leaks no goroutines.
func TestChaosIssuanceDurability(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, Config{StoreDir: dir, Workers: 4})
	s1.backoff = time.Millisecond
	s1.breaker = newBreaker(2, time.Hour)
	s1.maxQueue = math.MaxInt // no shedding: every buyer gets a definite answer
	info, _ := uploadDesign(t, ts1.URL, benchBytes(t, "c432"))
	baseline := runtime.NumGoroutine()

	chaosFaults(t, "store.write:p=0.4;store.fsync:delay=2ms,every=3;sat.budget:every=2;seed:11")
	const buyers = 24
	type outcome struct {
		buyer    string
		status   int
		verified string
		body     string
	}
	results := make([]outcome, buyers)
	var wg sync.WaitGroup
	for i := 0; i < buyers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			buyer := fmt.Sprintf("chaos-%02d", i)
			url := fmt.Sprintf("%s/designs/%s/issue?buyer=%s&verify=1", ts1.URL, info.Digest, buyer)
			resp, err := http.Post(url, "text/plain", nil)
			if err != nil {
				t.Error(err)
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			results[i] = outcome{buyer, resp.StatusCode, resp.Header.Get("X-Odcfp-Verified"), string(body)}
		}(i)
	}
	wg.Wait()
	// Fires reads the armed plan, so sample before disarming.
	storeFires, budgetFires := fault.Fires(fault.StoreWrite), fault.Fires(fault.SATBudget)
	fault.Disable()

	var acked []string
	degraded := 0
	for _, r := range results {
		switch r.status {
		case http.StatusOK:
			acked = append(acked, r.buyer)
			switch r.verified {
			case "equivalent":
			case "degraded":
				degraded++
			default:
				t.Errorf("%s acknowledged with verification label %q, want equivalent or degraded", r.buyer, r.verified)
			}
		case http.StatusServiceUnavailable:
			// Store gave out after every retry — the issuance was NOT
			// acknowledged, which is allowed, but only for the injected
			// fault.
			if !strings.Contains(r.body, "injected") {
				t.Errorf("%s: unexpected 503: %s", r.buyer, r.body)
			}
		case http.StatusConflict:
			// Random fingerprints can collide at c432's modest capacity; the
			// buyer is simply not acknowledged. Any other conflict is a bug.
			if !strings.Contains(r.body, "collision") {
				t.Errorf("%s: unexpected 409: %s", r.buyer, r.body)
			}
		default:
			t.Errorf("%s: unexpected status %d: %s", r.buyer, r.status, r.body)
		}
	}
	if len(acked) == 0 {
		t.Fatal("chaos run acknowledged no issuances at all")
	}
	if degraded == 0 {
		t.Error("no response used degraded verification; sat.budget chaos was vacuous")
	}
	if storeFires == 0 {
		t.Error("store.write fault never fired; chaos run was vacuous")
	}
	if budgetFires == 0 {
		t.Error("sat.budget fault never fired; chaos run was vacuous")
	}
	t.Logf("chaos: %d/%d acknowledged, %d degraded, %d store faults, %d budget faults",
		len(acked), buyers, degraded, storeFires, budgetFires)

	// Restart on the same store: every acknowledged buyer must be present.
	_, ts2 := newTestServer(t, Config{StoreDir: dir})
	resp, err := http.Get(ts2.URL + "/designs/" + info.Digest)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var infoResp struct {
		Buyers []string `json:"buyers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&infoResp); err != nil {
		t.Fatal(err)
	}
	have := make(map[string]bool, len(infoResp.Buyers))
	for _, b := range infoResp.Buyers {
		have[b] = true
	}
	for _, b := range acked {
		if !have[b] {
			t.Errorf("acknowledged issuance for %s lost across restart", b)
		}
	}

	// Retry/breaker/degrade counters are visible in /metrics, and the run
	// snapshot can be exported for the CI artifact.
	snap := metricsSnapshot(t, ts1.URL)
	for _, name := range []string{"serve.store_retries", "serve.breaker_trips", "serve.verify_degraded", "serve.shed_requests"} {
		if _, ok := snap[name]; !ok {
			t.Errorf("metric %s missing from /metrics", name)
		}
	}
	if snap["serve.verify_degraded"] < int64(degraded) {
		t.Errorf("serve.verify_degraded = %d, want >= %d observed degraded responses", snap["serve.verify_degraded"], degraded)
	}
	if out := os.Getenv("CHAOS_METRICS_OUT"); out != "" {
		data, err := json.MarshalIndent(obs.Snapshot(false), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(out, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	assertNoGoroutineLeak(t, baseline)
}

// metricsSnapshot fetches /metrics and indexes it by metric name.
func metricsSnapshot(t testing.TB, base string) map[string]int64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snaps []obs.MetricSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snaps); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]int64, len(snaps))
	for _, s := range snaps {
		out[s.Name] = s.Value
	}
	return out
}

// TestChaosLoadShedding: once the pool's queue depth reaches the bound,
// further requests are shed with 429 + Retry-After instead of queueing,
// and the queued work still completes once the worker frees up.
func TestChaosLoadShedding(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, RequestTimeout: 5 * time.Second})
	s.maxQueue = 1
	info, _ := uploadDesign(t, ts.URL, benchBytes(t, "c432"))

	release := make(chan struct{})
	s.testHook = func(kind string) {
		if kind == "info" {
			<-release
		}
	}
	statuses := make(chan int, 2)
	get := func() {
		resp, err := http.Get(ts.URL + "/designs/" + info.Digest)
		if err != nil {
			t.Error(err)
			statuses <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		statuses <- resp.StatusCode
	}

	// Occupy the single worker, then fill the queue to its bound of 1.
	go get()
	waitFor(t, "worker occupied", func() bool { return s.InFlight() == 1 })
	go get()
	waitFor(t, "queue filled", func() bool { return s.pool.Waiting() >= 1 })

	// The next request must be shed immediately.
	resp, err := http.Get(ts.URL + "/designs/" + info.Digest)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded request: status %d (%s), want 429", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", got)
	}

	// Releasing the worker drains the queue; both admitted requests finish.
	close(release)
	for i := 0; i < 2; i++ {
		if st := <-statuses; st != http.StatusOK {
			t.Errorf("admitted request %d: status %d, want 200", i, st)
		}
	}
	if snap := metricsSnapshot(t, ts.URL); snap["serve.shed_requests"] < 1 {
		t.Errorf("serve.shed_requests = %d, want >= 1", snap["serve.shed_requests"])
	}
}

// waitFor spins until cond holds, failing after 2s.
func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestChaosPoolSaturate: the pool.saturate fault point simulates a pool
// that never admits the request; the request times out with 504 instead of
// hanging, bounded by the configured request deadline.
func TestChaosPoolSaturate(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, RequestTimeout: 60 * time.Millisecond})
	info, _ := uploadDesign(t, ts.URL, benchBytes(t, "c432"))
	chaosFaults(t, "pool.saturate:every=1")
	t0 := time.Now()
	resp, err := http.Get(ts.URL + "/designs/" + info.Digest)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	elapsed := time.Since(t0)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("saturated pool: status %d (%s), want 504", resp.StatusCode, body)
	}
	if elapsed > time.Second {
		t.Fatalf("saturated request took %v, want ~the 60ms deadline", elapsed)
	}
}

// TestChaosBatchKillMidJob kills the daemon at the worst instant of an
// async batch — one chunk acknowledged, the next chunk's copies durable in
// the registry but not yet listed in the job record — and asserts the
// restarted daemon resumes the job to completion with every acknowledged
// copy intact: nothing lost, nothing duplicated, fingerprints unchanged.
func TestChaosBatchKillMidJob(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, Config{StoreDir: dir, BatchChunk: 4})
	info, _ := uploadDesign(t, ts1.URL, benchBytes(t, "c432"))
	baseline := runtime.NumGoroutine()

	// Let chunk 1 commit fully, then freeze the runner right after chunk 2
	// hits the registry — before the job record acknowledges it.
	mintedChunks := 0
	blocked := make(chan struct{})
	release := make(chan struct{})
	s1.testHook = func(kind string) {
		if kind != "job-chunk-minted" {
			return
		}
		mintedChunks++
		if mintedChunks == 2 {
			close(blocked)
			<-release
		}
	}

	const total = 12 // 3 chunks of 4
	body := strings.NewReader(`{"count": 12, "prefix": "kill-"}`)
	resp, err := http.Post(ts1.URL+"/designs/"+info.Digest+"/issue/batch?async=1", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	sub, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit: status %d: %s", resp.StatusCode, sub)
	}
	var job jobStatus
	if err := json.Unmarshal(sub, &job); err != nil {
		t.Fatal(err)
	}

	select {
	case <-blocked:
	case <-time.After(10 * time.Second):
		t.Fatal("runner never reached chunk 2")
	}

	// Frozen state: the job record acknowledges exactly chunk 1.
	st := pollJobOnce(t, ts1.URL, job.ID)
	if st.Acknowledged != 4 {
		t.Fatalf("pre-kill acknowledged = %d, want 4", st.Acknowledged)
	}

	// The runner holds no worker slot while frozen: interactive issuance
	// still goes through (the anti-starvation contract).
	if status, _, _ := rawIssue(t, ts1.URL, info.Digest, "walk-in", ""); status != http.StatusOK {
		t.Fatalf("interactive issue starved behind frozen batch: status %d", status)
	}

	// Record the durable fingerprints of chunks 1+2 (idempotent re-fetch).
	preFP := make(map[string]string, 8)
	for i := 0; i < 8; i++ {
		buyer := fmt.Sprintf("kill-%05d", i)
		status, hdr, body := rawIssue(t, ts1.URL, info.Digest, buyer, "")
		if status != http.StatusOK {
			t.Fatalf("pre-kill fetch of %s: status %d: %s", buyer, status, body)
		}
		preFP[buyer] = hdr.Get("X-Odcfp-Fingerprint")
	}

	// Kill the daemon mid-batch: the runner dies inside the frozen window.
	resumed0 := mJobsResumed.Value()
	s1.runnerCancel()
	close(release)
	select {
	case <-s1.runnerDone:
	case <-time.After(5 * time.Second):
		t.Fatal("runner did not die after cancel")
	}

	// Restart over the same store: the interrupted job is resumed and
	// driven to done.
	_, ts2 := newTestServer(t, Config{StoreDir: dir, BatchChunk: 4})
	if d := mJobsResumed.Value() - resumed0; d != 1 {
		t.Errorf("jobs_resumed += %d across restart, want 1", d)
	}
	final := pollJob(t, ts2.URL, job.ID)
	if final.State != JobDone {
		t.Fatalf("resumed job state %q (%s), want done", final.State, final.Error)
	}
	if final.Acknowledged != total || final.Remaining != 0 {
		t.Fatalf("resumed job acknowledged %d/%d", final.Acknowledged, final.Total)
	}

	// No acknowledged copy lost, none duplicated, none diverged.
	seen := make(map[string]int, total)
	for _, b := range final.Done {
		seen[b]++
	}
	for i := 0; i < total; i++ {
		buyer := fmt.Sprintf("kill-%05d", i)
		if seen[buyer] != 1 {
			t.Errorf("%s acknowledged %d times, want exactly once", buyer, seen[buyer])
		}
		status, hdr, body := rawIssue(t, ts2.URL, info.Digest, buyer, "")
		if status != http.StatusOK {
			t.Errorf("post-resume fetch of %s: status %d: %s", buyer, status, body)
			continue
		}
		if want, ok := preFP[buyer]; ok && hdr.Get("X-Odcfp-Fingerprint") != want {
			t.Errorf("%s fingerprint changed across kill/resume: %s -> %s",
				buyer, want, hdr.Get("X-Odcfp-Fingerprint"))
		}
	}
	if len(seen) != total {
		t.Errorf("done list names %d distinct buyers, want %d", len(seen), total)
	}

	// The registry itself holds each batch buyer exactly once.
	dresp, err := http.Get(ts2.URL + "/designs/" + info.Digest)
	if err != nil {
		t.Fatal(err)
	}
	defer dresp.Body.Close()
	var dinfo struct {
		Buyers []string `json:"buyers"`
	}
	if err := json.NewDecoder(dresp.Body).Decode(&dinfo); err != nil {
		t.Fatal(err)
	}
	count := make(map[string]int)
	for _, b := range dinfo.Buyers {
		if strings.HasPrefix(b, "kill-") {
			count[b]++
		}
	}
	if len(count) != total {
		t.Errorf("registry holds %d kill- buyers, want %d", len(count), total)
	}
	for b, n := range count {
		if n != 1 {
			t.Errorf("registry holds %s %d times", b, n)
		}
	}

	assertNoGoroutineLeak(t, baseline)
}

// pollJobOnce fetches a job's status once (no waiting).
func pollJobOnce(t testing.TB, base, id string) jobStatus {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// recordedIn reports whether the design's in-memory registry holds buyer.
// It takes the design lock, so it sees a record only once the minting
// routine that reserved it has left its locked section.
func recordedIn(d *design, buyer string) bool {
	d.mu.Lock()
	reg := d.reg
	d.mu.Unlock()
	if reg == nil {
		return false
	}
	_, ok := reg.Value(buyer)
	return ok
}

// assertTracesTo requires the copy to trace exactly to buyer on the live
// daemon and on a fresh daemon over the same store.
func assertTracesTo(t *testing.T, base, dir, digest string, netlist []byte, buyer string) {
	t.Helper()
	if got := traceSuspect(t, base, digest, netlist, "").Exact; got != buyer {
		t.Errorf("acknowledged copy of %s traces to %q", buyer, got)
	}
	_, ts2 := newTestServer(t, Config{StoreDir: dir})
	if got := traceSuspect(t, ts2.URL, digest, netlist, "").Exact; got != buyer {
		t.Errorf("after restart, acknowledged copy of %s traces to %q", buyer, got)
	}
}

// TestChaosIssueDuringBatchVerify: a plain /issue for a buyer whose
// verified sync batch is still proving its copy is acknowledged from the
// record the batch made. When the batch then dies at its deadline, that
// acknowledged copy must still trace to the buyer, before and after a
// restart: a batch may not drop a record another request acknowledged.
func TestChaosIssueDuringBatchVerify(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{StoreDir: dir, Workers: 2, RequestTimeout: 1500 * time.Millisecond})
	s.breaker = newBreaker(100, breakerCooldown) // keep SAT verification armed throughout
	info, _ := uploadDesign(t, ts.URL, benchBytes(t, "c880"))
	d := s.lookupDesign(info.Digest)

	chaosFaults(t, "sat.slow:delay=400ms")
	batch := make(chan string, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/designs/"+info.Digest+"/issue/batch?verify=1", "application/json", strings.NewReader(`{"buyers": ["x"]}`))
		if err != nil {
			batch <- err.Error()
			return
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		batch <- fmt.Sprintf("%d %s", resp.StatusCode, b)
	}()
	waitFor(t, "batch verifying", func() bool { return recordedIn(d, "x") })

	status, _, netlist := rawIssue(t, ts.URL, info.Digest, "x", "")
	if status != http.StatusOK {
		t.Fatalf("issue during batch verify: status %d: %s", status, netlist)
	}
	select {
	case out := <-batch:
		if strings.HasPrefix(out, "200 ") {
			t.Fatalf("batch verified before its deadline; the probe needs it to fail: %.80s", out)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("batch never answered")
	}
	fault.Disable()
	assertTracesTo(t, ts.URL, dir, info.Digest, []byte(netlist), "x")
}

// TestChaosIssueDuringJobVerify is the async-job form of the same race: a
// plain /issue is acknowledged while a verified job's chunk proves the
// buyer's copy, and the store then fails every write. The job may fail, but
// the acknowledged copy must still trace to the buyer, before and after a
// restart.
func TestChaosIssueDuringJobVerify(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{StoreDir: dir, Workers: 2, RequestTimeout: 1500 * time.Millisecond})
	s.backoff = time.Millisecond
	s.breaker = newBreaker(100, breakerCooldown)
	info, _ := uploadDesign(t, ts.URL, benchBytes(t, "c880"))
	d := s.lookupDesign(info.Digest)

	chaosFaults(t, "sat.slow:delay=400ms")
	code, _, sub := postBatch(t, ts.URL, info.Digest, "?async=1&verify=1", BatchIssueRequest{Buyers: []string{"x"}})
	if code != http.StatusAccepted {
		t.Fatalf("async submit: status %d: %s", code, sub)
	}
	var job jobStatus
	if err := json.Unmarshal(sub, &job); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job verifying", func() bool { return recordedIn(d, "x") })

	status, _, netlist := rawIssue(t, ts.URL, info.Digest, "x", "")
	if status != http.StatusOK {
		t.Fatalf("issue during job verify: status %d: %s", status, netlist)
	}
	// From here on every store write fails: the job's progress commits,
	// and any append of the chunk that has not happened yet.
	chaosFaults(t, "store.write:every=1")
	final := pollJob(t, ts.URL, job.ID)
	fault.Disable()
	t.Logf("job ended %s (%s)", final.State, final.Error)
	assertTracesTo(t, ts.URL, dir, info.Digest, []byte(netlist), "x")
}
