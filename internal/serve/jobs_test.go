package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
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

// pollJob polls GET /jobs/{id} until the job reaches a terminal state.
func pollJob(t testing.TB, base, id string) jobStatus {
	t.Helper()
	var st jobStatus
	waitFor(t, "job "+id+" terminal", func() bool {
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
