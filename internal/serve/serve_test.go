package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/benchfmt"
	"repro/internal/circuit"
	"repro/internal/obs"
	"repro/internal/redteam"
)

// benchBytes renders a suite circuit as .bench text — the client-side view
// of a netlist upload.
func benchBytes(t testing.TB, name string) []byte {
	t.Helper()
	spec, err := bench.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := benchfmt.Write(&buf, spec.Build()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.StoreDir == "" {
		cfg.StoreDir = t.TempDir()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	// Stop the job runner before the store directory is removed, so no job
	// commit lands in a directory being deleted.
	t.Cleanup(func() {
		s.runnerCancel()
		<-s.runnerDone
	})
	return s, ts
}

func uploadDesign(t testing.TB, base string, netlist []byte) (DesignInfo, int) {
	t.Helper()
	resp, err := http.Post(base+"/designs", "text/plain", bytes.NewReader(netlist))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		t.Fatalf("upload: status %d: %s", resp.StatusCode, body)
	}
	var info DesignInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatalf("upload response: %v: %s", err, body)
	}
	return info, resp.StatusCode
}

// issueCopy mints buyer's copy and returns the netlist bytes plus the
// fingerprint value header.
func issueCopy(t testing.TB, base, digest, buyer, query string) ([]byte, string) {
	t.Helper()
	url := fmt.Sprintf("%s/designs/%s/issue?buyer=%s%s", base, digest, buyer, query)
	resp, err := http.Post(url, "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("issue %s: status %d: %s", buyer, resp.StatusCode, body)
	}
	return body, resp.Header.Get("X-Odcfp-Fingerprint")
}

func traceSuspect(t testing.TB, base, digest string, netlist []byte, query string) TraceResponse {
	t.Helper()
	url := base + "/designs/" + digest + "/trace" + query
	resp, err := http.Post(url, "text/plain", bytes.NewReader(netlist))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace: status %d: %s", resp.StatusCode, body)
	}
	var tr TraceResponse
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatalf("trace response: %v: %s", err, body)
	}
	return tr
}

func parseBench(t testing.TB, data []byte) *circuit.Circuit {
	t.Helper()
	c, err := benchfmt.Parse(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestServeEndToEnd walks the whole service lifecycle over HTTP: upload a
// design, issue two buyers (one verified), trace a verbatim copy exactly,
// collude the two copies and confirm the trace implicates both colluders.
func TestServeEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	netlist := benchBytes(t, "c880")

	info, status := uploadDesign(t, ts.URL, netlist)
	if status != http.StatusCreated {
		t.Fatalf("first upload status = %d, want 201", status)
	}
	if info.Digest == "" || info.Locations == 0 || info.CapacityBits <= 0 {
		t.Fatalf("implausible upload info: %+v", info)
	}
	// Re-uploading the same design is idempotent: 200, same digest.
	info2, status2 := uploadDesign(t, ts.URL, netlist)
	if status2 != http.StatusOK || info2.Digest != info.Digest {
		t.Fatalf("re-upload = %d %s, want 200 %s", status2, info2.Digest, info.Digest)
	}

	aliceBody, aliceFP := issueCopy(t, ts.URL, info.Digest, "alice", "&verify=1")
	bobBody, bobFP := issueCopy(t, ts.URL, info.Digest, "bob", "")
	if aliceFP == bobFP {
		t.Fatalf("alice and bob share fingerprint %s", aliceFP)
	}
	// Innocent buyers the collusion trace must NOT implicate.
	for _, b := range []string{"carol", "dave", "erin"} {
		issueCopy(t, ts.URL, info.Digest, b, "")
	}
	// Idempotent re-issue: same fingerprint value.
	_, aliceFP2 := issueCopy(t, ts.URL, info.Digest, "alice", "")
	if aliceFP2 != aliceFP {
		t.Errorf("re-issue changed fingerprint: %s → %s", aliceFP, aliceFP2)
	}

	// A verbatim pirated copy traces exactly to its buyer, and at the
	// default threshold 1.0 the score-based accusation implicates exactly
	// that buyer (registry.Implicated's marking-assumption rule).
	tr := traceSuspect(t, ts.URL, info.Digest, aliceBody, "")
	if tr.Exact != "alice" {
		t.Errorf("exact trace = %q, want alice", tr.Exact)
	}
	tr = traceSuspect(t, ts.URL, info.Digest, aliceBody, "?scores=1")
	if len(tr.Implicated) != 1 || tr.Implicated[0] != "alice" {
		t.Errorf("pirated-copy accusation = %v, want [alice]", tr.Implicated)
	}

	// Collusion: alice and bob merge their copies. Slots where the two
	// copies agreed survive intact (marking assumption), so the colluders
	// dominate the score table; a threshold below both colluders' scores
	// but above every innocent's implicates exactly the coalition. The
	// whole pipeline is deterministic (hash-derived fingerprints), so 0.4
	// separates cleanly for this design: colluders score ≥ 0.5, innocents
	// ≤ 0.31.
	coll, err := redteam.Coalition([]*circuit.Circuit{
		parseBench(t, aliceBody), parseBench(t, bobBody),
	}, redteam.StrategyFewestPins)
	if err != nil {
		t.Fatal(err)
	}
	if len(coll.DetectedGates) == 0 {
		t.Fatal("collusion detected no differing sites")
	}
	var forged bytes.Buffer
	if err := benchfmt.Write(&forged, coll.Forged); err != nil {
		t.Fatal(err)
	}
	tr = traceSuspect(t, ts.URL, info.Digest, forged.Bytes(), "?scores=1&threshold=0.4")
	implicated := map[string]bool{}
	for _, b := range tr.Implicated {
		implicated[b] = true
	}
	if len(implicated) != 2 || !implicated["alice"] || !implicated["bob"] {
		t.Errorf("collusion trace implicated %v, want exactly {alice, bob} (scores %+v)", tr.Implicated, tr.Scores)
	}
	// The forged copy matches no registered fingerprint exactly.
	if tr.Exact != "" {
		t.Errorf("forged copy traced exactly to %q", tr.Exact)
	}

	// Listing and info agree with what we uploaded.
	resp, err := http.Get(ts.URL + "/designs/" + info.Digest)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Info   DesignInfo `json:"info"`
		Buyers []string   `json:"buyers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got.Info.Buyers != 5 || len(got.Buyers) != 5 {
		t.Errorf("info buyers = %d %v, want the 5 issued", got.Info.Buyers, got.Buyers)
	}

	// Health and metrics endpoints respond.
	for _, path := range []string{"/healthz", "/metrics", "/designs"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d", path, resp.StatusCode)
		}
	}
}

// TestServeReuploadKeepsWarmAnalysis: re-uploading the bytes of a design
// that is already served keeps the cached analysis — and with it the
// shared verifier's window certificates — instead of replacing it with a
// fresh, cold one, so the next verified issue proves no window again and
// builds no session.
func TestServeReuploadKeepsWarmAnalysis(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	netlist := benchBytes(t, "c880")
	info, _ := uploadDesign(t, ts.URL, netlist)
	issueCopy(t, ts.URL, info.Digest, "alice", "&verify=1")
	first := s.cache.get(info.Digest)
	if first == nil {
		t.Fatal("uploaded design not in the analysis cache")
	}
	m := metricsSnapshot(t, ts.URL)
	sessions, proved := m["cec.sessions_built"], m["cec.windows_proved"]
	if proved == 0 {
		t.Fatal("verified issue proved no window certificate")
	}

	if again, status := uploadDesign(t, ts.URL, netlist); again.Digest != info.Digest || status != http.StatusOK {
		t.Fatalf("re-upload: digest %s status %d, want %s 200", again.Digest, status, info.Digest)
	}
	issueCopy(t, ts.URL, info.Digest, "bob", "&verify=1")
	if got := s.cache.get(info.Digest); got != first {
		t.Error("re-upload replaced the cached analysis")
	}
	m = metricsSnapshot(t, ts.URL)
	if got := m["cec.sessions_built"]; got != sessions {
		t.Errorf("cec.sessions_built moved %d → %d across re-upload and verified issue", sessions, got)
	}
	if got := m["cec.windows_proved"]; got != proved {
		t.Errorf("cec.windows_proved moved %d → %d across re-upload and verified issue", proved, got)
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

// TestUploadIssueHashesOnce: uploading a new design and making a verified
// issue hash its netlist once, at upload. The registry's creation, its
// check and the verifier compare the digest the analysis keeps.
func TestUploadIssueHashesOnce(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	base := coreDigests()
	info, _ := uploadDesign(t, ts.URL, benchBytes(t, "c432"))
	issueCopy(t, ts.URL, info.Digest, "once", "&verify=1")
	if n := coreDigests() - base; n != 1 {
		t.Errorf("upload and verified issue hashed %d times, want 1", n)
	}
}

// TestServeRestartLosesNothing: issued fingerprints and designs survive a
// daemon restart on the same store directory — the acceptance criterion
// that an acknowledged issuance is never lost.
func TestServeRestartLosesNothing(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, Config{StoreDir: dir})
	netlist := benchBytes(t, "c880")
	info, _ := uploadDesign(t, ts1.URL, netlist)
	aliceBody, aliceFP := issueCopy(t, ts1.URL, info.Digest, "alice", "")

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	// Draining is visible on the health endpoint; pooled endpoints refuse.
	resp, err := http.Get(ts1.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining = %d, want 503", resp.StatusCode)
	}
	ts1.Close()

	// "Restart": a fresh server over the same store.
	s2, ts2 := newTestServer(t, Config{StoreDir: dir})
	if n := s2.NumDesigns(); n != 1 {
		t.Fatalf("restarted server has %d designs, want 1", n)
	}
	// The pre-restart copy still traces to alice (the record survived).
	tr := traceSuspect(t, ts2.URL, info.Digest, aliceBody, "")
	if tr.Exact != "alice" {
		t.Errorf("post-restart trace = %q, want alice", tr.Exact)
	}
	// Re-issuing alice yields the identical fingerprint from the reloaded
	// registry, not a fresh derivation that happens to match.
	_, fp2 := issueCopy(t, ts2.URL, info.Digest, "alice", "")
	if fp2 != aliceFP {
		t.Errorf("post-restart fingerprint %s, want %s", fp2, aliceFP)
	}
}

// TestServeGracefulShutdown: Shutdown lets an in-flight request run to
// completion, then Serve returns nil and the port stops accepting.
func TestServeGracefulShutdown(t *testing.T) {
	s, err := New(Config{StoreDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	s.testHook = func(kind string) {
		if kind == "issue" {
			entered <- struct{}{}
			<-release
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	info, _ := uploadDesign(t, base, benchBytes(t, "c432"))

	type result struct {
		status int
		fp     string
		err    error
	}
	issueDone := make(chan result, 1)
	go func() {
		resp, err := http.Post(base+"/designs/"+info.Digest+"/issue?buyer=alice", "text/plain", nil)
		if err != nil {
			issueDone <- result{err: err}
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		issueDone <- result{status: resp.StatusCode, fp: resp.Header.Get("X-Odcfp-Fingerprint")}
	}()
	<-entered // the issue request now holds a worker slot

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	for !s.draining.Load() {
		time.Sleep(time.Millisecond)
	}
	select {
	case r := <-issueDone:
		t.Fatalf("in-flight request finished before release: %+v", r)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)

	r := <-issueDone
	if r.err != nil || r.status != http.StatusOK || r.fp == "" {
		t.Fatalf("in-flight issue after shutdown began = %+v, want 200 with fingerprint", r)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("port still accepting connections after shutdown")
	}
}

// TestServeConcurrentIssue: many clients issuing different buyers at once
// all succeed with distinct fingerprints (run under -race). Shedding is
// disabled: on a small machine the default queue depth (4×workers) is
// below the burst size, and load shedding under pressure is not what this
// test is about (the chaos suite covers it).
func TestServeConcurrentIssue(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.maxQueue = math.MaxInt
	info, _ := uploadDesign(t, ts.URL, benchBytes(t, "c880"))

	const buyers = 8
	fps := make([]string, buyers)
	var wg sync.WaitGroup
	for i := 0; i < buyers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, fps[i] = issueCopy(t, ts.URL, info.Digest, fmt.Sprintf("buyer-%02d", i), "")
		}(i)
	}
	wg.Wait()
	seen := map[string]int{}
	for i, fp := range fps {
		if fp == "" {
			t.Fatalf("buyer %d got no fingerprint", i)
		}
		if j, dup := seen[fp]; dup {
			t.Errorf("buyers %d and %d share fingerprint %s", i, j, fp)
		}
		seen[fp] = i
	}
	resp, err := http.Get(ts.URL + "/designs/" + info.Digest)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Info DesignInfo `json:"info"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got.Info.Buyers != buyers {
		t.Errorf("registry has %d buyers, want %d", got.Info.Buyers, buyers)
	}
}

// TestServeRequestLimits: oversized bodies are rejected with 413 and a
// request stuck behind a saturated pool times out with 504.
func TestServeRequestLimits(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, MaxRequestBytes: 256, RequestTimeout: 200 * time.Millisecond})

	big := bytes.Repeat([]byte("# padding line\n"), 100)
	resp, err := http.Post(ts.URL+"/designs", "text/plain", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized upload = %d, want 413", resp.StatusCode)
	}

	// A tiny inverter fits the 256-byte budget for the timeout half.
	tiny := []byte("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n")
	info, _ := uploadDesign(t, ts.URL, tiny)

	// An oversized JSON issue body (no ?buyer=) is 413 like every upload.
	bigIssue := `{"buyer": "` + strings.Repeat("x", 300) + `"}`
	resp, err = http.Post(ts.URL+"/designs/"+info.Digest+"/issue", "application/json", strings.NewReader(bigIssue))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized issue body = %d, want 413", resp.StatusCode)
	}

	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	s.testHook = func(kind string) {
		if kind == "info" {
			entered <- struct{}{}
			<-release
		}
	}
	go func() {
		resp, err := http.Get(ts.URL + "/designs/" + info.Digest)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	<-entered // worker slot occupied
	resp, err = http.Post(ts.URL+"/designs/"+info.Digest+"/issue?buyer=waiter", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("queued request = %d (%s), want 504", resp.StatusCode, body)
	}
	close(release)
}

// TestServeErrors: malformed requests get sensible statuses.
func TestServeErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	post := func(path string, body string) int {
		resp, err := http.Post(ts.URL+path, "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := post("/designs", ""); got != http.StatusBadRequest {
		t.Errorf("empty upload = %d, want 400", got)
	}
	if got := post("/designs", "INPUT(a\n???"); got != http.StatusBadRequest {
		t.Errorf("garbage upload = %d, want 400", got)
	}
	unknown := strings.Repeat("ab", 16)
	if got := post("/designs/"+unknown+"/issue?buyer=x", ""); got != http.StatusNotFound {
		t.Errorf("issue on unknown digest = %d, want 404", got)
	}
	if got := post("/designs/"+unknown+"/trace", "INPUT(a)\nOUTPUT(a)\n"); got != http.StatusNotFound {
		t.Errorf("trace on unknown digest = %d, want 404", got)
	}
	info, _ := uploadDesign(t, ts.URL, benchBytes(t, "c432"))
	if got := post("/designs/"+info.Digest+"/issue", ""); got != http.StatusBadRequest {
		t.Errorf("issue without buyer = %d, want 400", got)
	}
	if got := post("/designs/"+info.Digest+"/trace", ""); got != http.StatusBadRequest {
		t.Errorf("trace with empty body = %d, want 400", got)
	}
	// An unknown output format is refused before any buyer is recorded.
	if got := post("/designs/"+info.Digest+"/issue?buyer=y&format=blif", ""); got != http.StatusBadRequest {
		t.Errorf("issue with format=blif = %d, want 400", got)
	}
	if got := post("/designs/"+info.Digest+"/issue/batch?format=edif", `{"buyers": ["z"]}`); got != http.StatusBadRequest {
		t.Errorf("batch with format=edif = %d, want 400", got)
	}
	resp, err := http.Get(ts.URL + "/designs/" + info.Digest)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Buyers []string `json:"buyers"`
	}
	err = json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Buyers) != 0 {
		t.Errorf("refused issues recorded buyers %v", got.Buyers)
	}
	// ParseFloat accepts NaN and ±Inf; none is a threshold in [0, 1].
	master := string(benchBytes(t, "c432"))
	for _, th := range []string{"NaN", "nan", "+Inf", "-1", "1.5", "x"} {
		if got := post("/designs/"+info.Digest+"/trace?scores=1&threshold="+url.QueryEscape(th), master); got != http.StatusBadRequest {
			t.Errorf("trace with threshold %s = %d, want 400", th, got)
		}
	}
}

// TestTraceOutcomeSignals: every trace response carries the accusation
// count in X-Odcfp-Accused, scored traces of a stripped/never-issued copy
// report full_removal instead of an empty implication list, and both
// outcomes feed the serve.trace_accusations / serve.trace_misses counters.
func TestTraceOutcomeSignals(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	design := benchBytes(t, "c432")
	info, _ := uploadDesign(t, ts.URL, design)
	aliceBody, _ := issueCopy(t, ts.URL, info.Digest, "alice", "")

	accBefore := mTraceAccusations.Value()
	missBefore := mTraceMisses.Value()

	// A verbatim pirated copy: one accusation, in header and counter.
	resp, err := http.Post(ts.URL+"/designs/"+info.Digest+"/trace", "text/plain", bytes.NewReader(aliceBody))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Odcfp-Accused"); got != "1" {
		t.Errorf("pirated copy: X-Odcfp-Accused = %q, want 1", got)
	}
	if d := mTraceAccusations.Value() - accBefore; d != 1 {
		t.Errorf("trace_accusations rose by %d, want 1", d)
	}

	// The unfingerprinted master: a scored trace must classify it as a
	// full removal, implicate nobody, and count a miss.
	resp, err = http.Post(ts.URL+"/designs/"+info.Digest+"/trace?scores=1", "text/plain", bytes.NewReader(design))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Odcfp-Accused"); got != "0" {
		t.Errorf("master copy: X-Odcfp-Accused = %q, want 0", got)
	}
	var tr TraceResponse
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatalf("trace response: %v: %s", err, body)
	}
	if !tr.FullRemoval {
		t.Error("master copy not reported as full_removal")
	}
	if len(tr.Implicated) != 0 {
		t.Errorf("full removal implicated %v", tr.Implicated)
	}
	if d := mTraceMisses.Value() - missBefore; d != 1 {
		t.Errorf("trace_misses rose by %d, want 1", d)
	}
}

// TestDetectFormat: the format is read off the first line that is neither
// blank nor a "#" or "//" comment.
func TestDetectFormat(t *testing.T) {
	cases := []struct{ name, body, want string }{
		{"bench", "INPUT(a)\nOUTPUT(q)\nq = NOT(a)\n", "bench"},
		{"bench after comments", "# c17\n\n   \n# 5 inputs\nINPUT(G1)\n", "bench"},
		{"blif", ".model m\n.inputs a\n", "blif"},
		{"blif after comments", "# generated\n\n.model m\n", "blif"},
		{"verilog", "module m (a, q);\n", "v"},
		{"verilog after // comments", "// circuit c17\n  // more\n\nmodule c17 (N1, N22);\n", "v"},
		{"crlf", "\r\n# x\r\n  \t\r\nmodule m (a);\r\n", "v"},
		{"crlf blif", "\r\n.model m\r\n", "blif"},
		{"indented", "   .inputs a\n", "blif"},
		{"no newline", "module m (a);", "v"},
		{"all comments", "# one\n// two\n\n   \n", "bench"},
		{"empty", "", "bench"},
		{"later lines ignored", "INPUT(a)\nmodule m;\n.model x\n", "bench"},
	}
	for _, tc := range cases {
		if got := detectFormat([]byte(tc.body)); got != tc.want {
			t.Errorf("%s: detectFormat = %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestScoreTraceChunked: a score-mode answer larger than one write chunk
// is streamed with chunked transfer encoding and no Content-Length, and
// decodes to every buyer's score.
func TestScoreTraceChunked(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	info, _ := uploadDesign(t, ts.URL, benchBytes(t, "c880"))
	const buyers = 300
	if st := pollJob(t, ts.URL, submitAsync(t, ts.URL, info.Digest, BatchIssueRequest{Count: buyers})); st.State != JobDone {
		t.Fatalf("preseed job: state %q (%s)", st.State, st.Error)
	}
	suspect, _ := issueCopy(t, ts.URL, info.Digest, "buyer-00042", "")
	resp, err := http.Post(ts.URL+"/designs/"+info.Digest+"/trace?scores=1", "text/plain", bytes.NewReader(suspect))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("trace: status %d, %v: %.200s", resp.StatusCode, err, body)
	}
	if len(body) <= traceChunk {
		t.Fatalf("a %d-byte body fits one chunk", len(body))
	}
	if resp.ContentLength != -1 || !slices.Equal(resp.TransferEncoding, []string{"chunked"}) {
		t.Errorf("Content-Length %d, Transfer-Encoding %v; want a chunked body", resp.ContentLength, resp.TransferEncoding)
	}
	var tr TraceResponse
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.Scores) != buyers || tr.Scores[0].Buyer != "buyer-00042" || tr.Exact != "buyer-00042" {
		t.Errorf("%d scores, top %q, exact %q", len(tr.Scores), tr.Scores[0].Buyer, tr.Exact)
	}
}

// TestMetricsRuntimeGC: /metrics carries the runtime's GC and allocation
// figures, marked Nondet, and the cumulative ones do not fall across a
// score trace, which allocates.
func TestMetricsRuntimeGC(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	info, _ := uploadDesign(t, ts.URL, benchBytes(t, "c432"))
	suspect, _ := issueCopy(t, ts.URL, info.Digest, "alice", "")
	read := func() map[string]obs.MetricSnapshot {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var snaps []obs.MetricSnapshot
		if err := json.NewDecoder(resp.Body).Decode(&snaps); err != nil {
			t.Fatal(err)
		}
		if !slices.IsSortedFunc(snaps, func(x, y obs.MetricSnapshot) int { return strings.Compare(x.Name, y.Name) }) {
			t.Error("/metrics is not sorted by name")
		}
		out := map[string]obs.MetricSnapshot{}
		for _, s := range snaps {
			out[s.Name] = s
		}
		return out
	}
	before := read()
	traceSuspect(t, ts.URL, info.Digest, suspect, "?scores=1")
	after := read()
	for _, m := range runtimeMetrics {
		b, okb := before[m.name]
		a, oka := after[m.name]
		if !okb || !oka || !a.Nondet || a.Kind != m.kind {
			t.Errorf("%s: present %v/%v, nondet %v, kind %q", m.name, okb, oka, a.Nondet, a.Kind)
			continue
		}
		if m.kind == obs.KindCounter && a.Value < b.Value {
			t.Errorf("%s fell from %d to %d", m.name, b.Value, a.Value)
		}
	}
	if after["go.alloc_bytes"].Value <= before["go.alloc_bytes"].Value {
		t.Error("go.alloc_bytes did not rise across a score trace")
	}
	if after["go.heap_goal_bytes"].Value <= 0 {
		t.Error("go.heap_goal_bytes is not positive")
	}
}
