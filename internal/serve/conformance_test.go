package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// conformanceFailures reads the core.conformance_failures counter.
func conformanceFailures() int64 {
	for _, m := range obs.Snapshot(false) {
		if m.Name == "core.conformance_failures" {
			return m.Value
		}
	}
	return 0
}

// TestVerifiedIssueConforms: verified issues of c880 copies, in both
// output formats, are labelled equivalent, and no copy fails the
// conformance check. It reads no copy back, so a fault in how copies are
// built shows here as a refused issue, not through extraction.
func TestVerifiedIssueConforms(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	info, _ := uploadDesign(t, ts.URL, benchBytes(t, "c880"))
	before := conformanceFailures()
	for i := range 16 {
		format := []string{"bench", "v"}[i%2]
		url := fmt.Sprintf("%s/designs/%s/issue?buyer=conform%d&verify=1&format=%s", ts.URL, info.Digest, i, format)
		resp, err := http.Post(url, "text/plain", nil)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("verified issue %d: status %d: %s", i, resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-Odcfp-Verified"); got != "equivalent" {
			t.Fatalf("verified issue %d labelled %q", i, got)
		}
	}
	if n := conformanceFailures() - before; n != 0 {
		t.Errorf("%d copies failed the conformance check", n)
	}
}

// TestNonconformingIssueRefused: a copy that fails the conformance check
// is refused with a 500, as an inequivalent copy is, not a 409.
func TestNonconformingIssueRefused(t *testing.T) {
	err := issueError(context.Background(), "issue", fmt.Errorf("registry: embedding copy for %q: %w", "x", core.ErrNonconforming))
	var ae *apiError
	if !errors.As(err, &ae) || ae.status != http.StatusInternalServerError {
		t.Fatalf("nonconforming copy mapped to %v, want a 500", err)
	}
}
