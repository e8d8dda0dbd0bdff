package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// postBatch submits a batch issue request and returns the raw outcome.
func postBatch(t testing.TB, base, digest, query string, req BatchIssueRequest) (int, http.Header, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/designs/"+digest+"/issue/batch"+query, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, b
}

// pollJob polls GET /jobs/{id} until the job reaches a terminal state,
// within 2 s.
func pollJob(t testing.TB, base, id string) jobStatus {
	t.Helper()
	return pollJobWithin(t, base, id, 2*time.Second)
}

// pollJobWithin is pollJob with its own time budget, for a job whose pace
// its test does not assert.
func pollJobWithin(t testing.TB, base, id string, timeout time.Duration) jobStatus {
	t.Helper()
	var st jobStatus
	waitUntil(t, "job "+id+" terminal", timeout, func() bool {
		resp, err := http.Get(base + "/jobs/" + id + "?buyers=1")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("job poll: status %d: %s", resp.StatusCode, b)
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st.State == JobDone || st.State == JobFailed
	})
	return st
}

// TestServeBatchIssueSync: one request mints several buyers (chunked
// durable commits), each copy traces back to its buyer, and re-posting the
// same batch is idempotent copy-for-copy.
func TestServeBatchIssueSync(t *testing.T) {
	_, ts := newTestServer(t, Config{BatchChunk: 2})
	info, _ := uploadDesign(t, ts.URL, benchBytes(t, "c432"))

	req := BatchIssueRequest{Buyers: []string{"alice", "bob", "carol"}}
	status, _, body := postBatch(t, ts.URL, info.Digest, "", req)
	if status != http.StatusOK {
		t.Fatalf("batch: status %d: %s", status, body)
	}
	var resp BatchIssueResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("batch response: %v", err)
	}
	if len(resp.Copies) != 3 {
		t.Fatalf("got %d copies, want 3", len(resp.Copies))
	}
	prints := map[string]string{}
	for i, cp := range resp.Copies {
		if cp.Buyer != req.Buyers[i] {
			t.Errorf("copy %d buyer %q, want %q", i, cp.Buyer, req.Buyers[i])
		}
		tr := traceSuspect(t, ts.URL, info.Digest, []byte(cp.Netlist), "")
		if tr.Exact != cp.Buyer {
			t.Errorf("copy for %q traced to %q", cp.Buyer, tr.Exact)
		}
		prints[cp.Buyer] = cp.Fingerprint
	}

	// Idempotent re-mint: same buyers, same fingerprints, same netlists.
	status, _, body = postBatch(t, ts.URL, info.Digest, "", req)
	if status != http.StatusOK {
		t.Fatalf("batch re-post: status %d: %s", status, body)
	}
	var again BatchIssueResponse
	if err := json.Unmarshal(body, &again); err != nil {
		t.Fatal(err)
	}
	for i, cp := range again.Copies {
		if prints[cp.Buyer] != cp.Fingerprint {
			t.Errorf("re-minted %q fingerprint changed", cp.Buyer)
		}
		if cp.Netlist != resp.Copies[i].Netlist {
			t.Errorf("re-minted %q netlist changed", cp.Buyer)
		}
	}

	// A batch copy and a single-issue copy for the same buyer agree.
	single, fp := issueCopy(t, ts.URL, info.Digest, "alice", "")
	if fp != prints["alice"] {
		t.Errorf("single issue fingerprint %s != batch %s", fp, prints["alice"])
	}
	if string(single) != resp.Copies[0].Netlist {
		t.Error("single-issue netlist differs from batch copy")
	}
}

// TestServeBatchIssueValidation: duplicate buyers and oversized
// synchronous batches are rejected up front.
func TestServeBatchIssueValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBatchBuyers: 4})
	info, _ := uploadDesign(t, ts.URL, benchBytes(t, "c432"))

	status, _, body := postBatch(t, ts.URL, info.Digest, "", BatchIssueRequest{Buyers: []string{"a", "a"}})
	if status != http.StatusBadRequest || !strings.Contains(string(body), "duplicate") {
		t.Errorf("duplicate buyers: status %d: %s", status, body)
	}
	status, _, body = postBatch(t, ts.URL, info.Digest, "", BatchIssueRequest{Count: 5})
	if status != http.StatusBadRequest || !strings.Contains(string(body), "async") {
		t.Errorf("oversized sync batch: status %d: %s", status, body)
	}
	status, _, body = postBatch(t, ts.URL, info.Digest, "", BatchIssueRequest{})
	if status != http.StatusBadRequest {
		t.Errorf("empty batch: status %d: %s", status, body)
	}
	if status, _, body := postBatch(t, ts.URL, "0000000000000000deadbeef00000000", "", BatchIssueRequest{Count: 1}); status != http.StatusNotFound {
		t.Errorf("unknown design: status %d: %s", status, body)
	}
}

// TestServeBatchCountBound: a generated buyer list may not exceed the names
// an explicit list could carry within MaxRequestBytes (4 bytes per name), so
// a tiny {"count": N} body cannot make the server allocate N names.
func TestServeBatchCountBound(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxRequestBytes: 256})
	tiny := []byte("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n")
	info, _ := uploadDesign(t, ts.URL, tiny)

	status, _, body := postBatch(t, ts.URL, info.Digest, "?async=1", BatchIssueRequest{Count: 1000})
	if status != http.StatusBadRequest || !strings.Contains(string(body), "exceeds") {
		t.Errorf("async count 1000 under a 256-byte limit: status %d: %s", status, body)
	}
	status, _, body = postBatch(t, ts.URL, info.Digest, "", BatchIssueRequest{Count: 1000})
	if status != http.StatusBadRequest || !strings.Contains(string(body), "async") {
		t.Errorf("sync count 1000: status %d: %s", status, body)
	}
}

// TestServeBatchIssueAsync: ?async=1 answers 202 with a durable job that
// the runner drives to done; every acknowledged copy is re-fetchable
// byte-identically through the idempotent /issue path.
func TestServeBatchIssueAsync(t *testing.T) {
	_, ts := newTestServer(t, Config{BatchChunk: 3})
	info, _ := uploadDesign(t, ts.URL, benchBytes(t, "c432"))

	const n = 8
	status, hdr, body := postBatch(t, ts.URL, info.Digest, "?async=1", BatchIssueRequest{Count: n, Prefix: "fleet-"})
	if status != http.StatusAccepted {
		t.Fatalf("async submit: status %d: %s", status, body)
	}
	var sub jobStatus
	if err := json.Unmarshal(body, &sub); err != nil || sub.ID == "" {
		t.Fatalf("submit response: %v: %s", err, body)
	}
	if loc := hdr.Get("Location"); loc != "/jobs/"+sub.ID {
		t.Errorf("Location = %q, want /jobs/%s", loc, sub.ID)
	}
	if sub.State != JobQueued && sub.State != JobRunning && sub.State != JobDone {
		t.Errorf("submit state = %q", sub.State)
	}

	st := pollJob(t, ts.URL, sub.ID)
	if st.State != JobDone {
		t.Fatalf("job state %q (%s), want done", st.State, st.Error)
	}
	if st.Acknowledged != n || st.Remaining != 0 || len(st.Done) != n {
		t.Fatalf("job done with %d/%d acknowledged (%d listed)", st.Acknowledged, st.Total, len(st.Done))
	}
	for i := 0; i < n; i++ {
		buyer := fmt.Sprintf("fleet-%05d", i)
		copyBytes, _ := issueCopy(t, ts.URL, info.Digest, buyer, "")
		tr := traceSuspect(t, ts.URL, info.Digest, copyBytes, "")
		if tr.Exact != buyer {
			t.Errorf("async copy %q traced to %q", buyer, tr.Exact)
		}
	}

	// The job list includes the finished job.
	resp, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Jobs []jobStatus `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, j := range list.Jobs {
		if j.ID == sub.ID && j.State == JobDone {
			found = true
		}
	}
	if !found {
		t.Errorf("finished job %s missing from /jobs", sub.ID)
	}

	if status, _, _ := postBatch(t, ts.URL, info.Digest, "", BatchIssueRequest{Count: 1}); status != http.StatusOK {
		t.Error("interactive batch blocked after async job")
	}
}

// submitAsync submits an async batch and returns the job id.
func submitAsync(t testing.TB, base, digest string, req BatchIssueRequest) string {
	t.Helper()
	status, _, body := postBatch(t, base, digest, "?async=1", req)
	if status != http.StatusAccepted {
		t.Fatalf("async submit: status %d: %s", status, body)
	}
	var st jobStatus
	if err := json.Unmarshal(body, &st); err != nil || st.ID == "" {
		t.Fatalf("submit response: %v: %s", err, body)
	}
	return st.ID
}

// registryBuyers counts each buyer the design's registry lists.
func registryBuyers(t testing.TB, base, digest string) map[string]int {
	t.Helper()
	resp, err := http.Get(base + "/designs/" + digest)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info struct {
		Buyers []string `json:"buyers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	count := make(map[string]int, len(info.Buyers))
	for _, b := range info.Buyers {
		count[b]++
	}
	return count
}

// TestJobCommitFixedSize: a chunk commit rewrites only the job's progress
// file, whose size does not grow with the job; the request file, with the
// buyer list, is written once at submit and never again.
func TestJobCommitFixedSize(t *testing.T) {
	s, ts := newTestServer(t, Config{BatchChunk: 4})
	info, _ := uploadDesign(t, ts.URL, benchBytes(t, "c880"))

	const total = 1000
	var (
		id      string
		request []byte
		chunks  int
	)
	known := make(chan struct{})
	s.testHook = func(kind string) {
		if kind != "job-chunk" {
			return
		}
		<-known
		chunks++
		b, err := os.ReadFile(s.store.jobPath(id))
		if err != nil {
			t.Errorf("chunk %d: %v", chunks, err)
			return
		}
		if request == nil {
			request = b
		} else if !bytes.Equal(b, request) {
			t.Errorf("chunk %d rewrote the request file (%d bytes, was %d)", chunks, len(b), len(request))
		}
		fi, err := os.Stat(s.store.progressPath(id))
		if err != nil {
			t.Errorf("chunk %d: %v", chunks, err)
			return
		}
		if fi.Size() >= 256 {
			t.Errorf("chunk %d: progress file is %d bytes, want < 256", chunks, fi.Size())
		}
	}
	id = submitAsync(t, ts.URL, info.Digest, BatchIssueRequest{Count: total, Prefix: "fixed-"})
	close(known)
	// 1000 copies take ≈1 s under -race; the test asserts the files, not
	// the pace, so it does not share pollJob's 2 s.
	st := pollJobWithin(t, ts.URL, id, time.Minute)
	if st.State != JobDone || st.Acknowledged != total {
		t.Fatalf("job %s with %d/%d acknowledged (%s)", st.State, st.Acknowledged, total, st.Error)
	}
	if chunks != total/4 {
		t.Errorf("observed %d chunk commits, want %d", chunks, total/4)
	}
	if b, err := os.ReadFile(s.store.jobPath(id)); err != nil || !bytes.Equal(b, request) {
		t.Errorf("request file changed by the job's end (%v)", err)
	}
}

// TestJobLegacyFormatResumes: a job file written before progress files
// existed (the whole record, rewritten per chunk, with a done list) loads
// with its state and len(done) acknowledged, and resumes from there: the
// acknowledged copies keep their fingerprints and none is minted again.
func TestJobLegacyFormatResumes(t *testing.T) {
	const id = "4c6567616379a0b1" // running, 4 of 12 buyers done
	fixture, err := os.ReadFile(filepath.Join("testdata", "legacy-job", "job-"+id+".json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, Config{StoreDir: dir})
	info, _ := uploadDesign(t, ts1.URL, benchBytes(t, "c432"))

	// The daemon that wrote the fixture had acknowledged the first 4 copies,
	// so their records are in the registry.
	status, _, body := postBatch(t, ts1.URL, info.Digest, "", BatchIssueRequest{Count: 4, Prefix: "legacy-"})
	if status != http.StatusOK {
		t.Fatalf("batch: status %d: %s", status, body)
	}
	var pre BatchIssueResponse
	if err := json.Unmarshal(body, &pre); err != nil {
		t.Fatal(err)
	}
	s1.runnerCancel()
	<-s1.runnerDone
	if err := os.WriteFile(filepath.Join(dir, "job-"+id+".json"), fixture, 0o600); err != nil {
		t.Fatal(err)
	}

	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := st.LoadJobs()
	if err != nil {
		t.Fatal(err)
	}
	rec := jobs[id]
	if rec == nil {
		t.Fatalf("fixture job not loaded: %v", jobs)
	}
	if rec.Digest != info.Digest {
		t.Fatalf("fixture digest %s, c432 uploads as %s", rec.Digest, info.Digest)
	}
	if rec.State != JobRunning || rec.Acked != 4 || len(rec.Buyers) != 12 {
		t.Fatalf("loaded state %q, %d of %d acknowledged; want running, 4 of 12", rec.State, rec.Acked, len(rec.Buyers))
	}

	copies0 := mBatchCopies.Value()
	_, ts2 := newTestServer(t, Config{StoreDir: dir, BatchChunk: 4})
	final := pollJob(t, ts2.URL, id)
	if final.State != JobDone || final.Acknowledged != 12 || len(final.Done) != 12 {
		t.Fatalf("resumed job %s with %d/12 acknowledged (%s)", final.State, final.Acknowledged, final.Error)
	}
	if d := mBatchCopies.Value() - copies0; d != 8 {
		t.Errorf("resume minted %d copies, want the 8 unacknowledged", d)
	}
	for _, cp := range pre.Copies {
		status, hdr, body := rawIssue(t, ts2.URL, info.Digest, cp.Buyer, "")
		if status != http.StatusOK {
			t.Fatalf("fetch %s: status %d: %s", cp.Buyer, status, body)
		}
		if got := hdr.Get("X-Odcfp-Fingerprint"); got != cp.Fingerprint {
			t.Errorf("%s fingerprint %s across resume, was %s", cp.Buyer, got, cp.Fingerprint)
		}
	}
	count := registryBuyers(t, ts2.URL, info.Digest)
	for i := 0; i < 12; i++ {
		if b := fmt.Sprintf("legacy-%05d", i); count[b] != 1 {
			t.Errorf("registry holds %s %d times, want 1", b, count[b])
		}
	}
}

// TestJobRetention: only the keepJobs most recently finished jobs stay, in
// the job map and in the store, so a restarted daemon loads only those;
// start-up retires the excess and removes orphan progress files.
func TestJobRetention(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{StoreDir: dir})
	const keep = 3
	s.keepJobs = keep
	info, _ := uploadDesign(t, ts.URL, benchBytes(t, "c432"))

	var ids []string
	for i := 0; i < keep+2; i++ {
		id := submitAsync(t, ts.URL, info.Digest, BatchIssueRequest{Count: 1, Prefix: fmt.Sprintf("ret%d-", i)})
		if st := pollJob(t, ts.URL, id); st.State != JobDone {
			t.Fatalf("job %d: state %q (%s)", i, st.State, st.Error)
		}
		ids = append(ids, id)
	}
	jobFiles := func() []string {
		names, err := filepath.Glob(filepath.Join(dir, jobPrefix+"*"))
		if err != nil {
			t.Fatal(err)
		}
		return names
	}
	// retired reports whether s holds n jobs, each one of kept, and the
	// store holds their two files each and no others.
	retired := func(s *Server, n int, kept []string) bool {
		s.jobMu.Lock()
		defer s.jobMu.Unlock()
		if len(s.jobs) != n || len(jobFiles()) != 2*n {
			return false
		}
		for id := range s.jobs {
			if !slices.Contains(kept, id) {
				return false
			}
		}
		return true
	}
	waitFor(t, "retirement", func() bool { return retired(s, keep, ids[2:]) })
	for _, id := range ids[2:] {
		for _, path := range []string{s.store.jobPath(id), s.store.progressPath(id)} {
			if _, err := os.Stat(path); err != nil {
				t.Errorf("kept job: %v", err)
			}
		}
	}
	resp, err := http.Get(ts.URL + "/jobs/" + ids[0])
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("retired job: status %d, want 404", resp.StatusCode)
	}

	// A retirement cut short between its two removals leaves a progress
	// file alone; start-up removes it.
	orphan := s.store.progressPath("00000000000000ff")
	if err := os.WriteFile(orphan, []byte(`{"state":"done","acked":1,"updated":""}`+"\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	s.runnerCancel()
	<-s.runnerDone
	s2, _ := newTestServer(t, Config{StoreDir: dir})
	if !retired(s2, keep, ids[2:]) {
		t.Errorf("restart loaded %d jobs and left %d job files, want %d and %d", len(s2.jobs), len(jobFiles()), keep, 2*keep)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Errorf("orphan progress file survived start-up: %v", err)
	}

	// Start-up retires whatever exceeds the bound.
	s2.keepJobs = 1
	if err := s2.loadJobs(); err != nil {
		t.Fatal(err)
	}
	if !retired(s2, 1, ids[2:]) {
		t.Errorf("reload kept %d jobs and %d job files, want 1 and 2", len(s2.jobs), len(jobFiles()))
	}
}

// TestJobsRunInSubmissionOrder: jobs submitted within one second, whose
// creation times are therefore equal, list, run and, after a reload,
// retire in the order they were submitted, not in the order of their
// random ids.
func TestJobsRunInSubmissionOrder(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{StoreDir: dir})
	info, _ := uploadDesign(t, ts.URL, benchBytes(t, "c432"))
	// With the runner stopped the jobs stay queued, and the test picks
	// them itself as the runner would.
	s.runnerCancel()
	<-s.runnerDone
	var ids []string
	for i := 0; i < 5; i++ {
		ids = append(ids, submitAsync(t, ts.URL, info.Digest, BatchIssueRequest{Count: 1, Prefix: fmt.Sprintf("order%d-", i)}))
	}

	var list struct{ Jobs []jobStatus }
	resp, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var listed []string
	for _, st := range list.Jobs {
		listed = append(listed, st.ID)
	}
	if !slices.Equal(listed, ids) {
		t.Errorf("GET /jobs lists %v, submitted %v", listed, ids)
	}

	var ran []string
	for rec := s.nextJob(); rec != nil; rec = s.nextJob() {
		ran = append(ran, rec.ID)
		s.processJob(context.Background(), rec)
	}
	if !slices.Equal(ran, ids) {
		t.Errorf("jobs ran in order %v, submitted %v", ran, ids)
	}

	// A reload that keeps one finished job keeps the last one submitted.
	s.keepJobs = 1
	if err := s.loadJobs(); err != nil {
		t.Fatal(err)
	}
	s.jobMu.Lock()
	_, kept := s.jobs[ids[4]]
	n := len(s.jobs)
	s.jobMu.Unlock()
	if n != 1 || !kept {
		t.Errorf("reload kept %d jobs, the last submitted among them: %v", n, kept)
	}
}
