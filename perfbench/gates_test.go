package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// fakeDaemon answers like odcfpd, with one planted defect.
type fakeDaemon struct {
	// verified is the X-Odcfp-Verified label issues carry.
	verified string
	// label overrides the X-Odcfp-Buyer of issued copies when set.
	label string
	// exact overrides the buyer an exact trace names when set.
	exact string
	// implicate lists the buyers a score trace implicates (nil: the copy's).
	implicate []string
	// status, when set, answers every POST with it.
	status int
}

func (f *fakeDaemon) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if f.status != 0 {
		w.WriteHeader(f.status)
		w.Write([]byte(`{"error":"planted"}`))
		return
	}
	switch {
	case r.URL.Path == "/designs":
		json.NewEncoder(w).Encode(map[string]string{"digest": "d2"})
	case strings.HasSuffix(r.URL.Path, "/issue"):
		buyer := r.URL.Query().Get("buyer")
		if f.label != "" {
			buyer = f.label
		}
		w.Header().Set("X-Odcfp-Buyer", buyer)
		if r.URL.Query().Get("verify") == "1" {
			w.Header().Set("X-Odcfp-Verified", f.verified)
		}
		w.Write([]byte("copy-of:" + buyer))
	case strings.HasSuffix(r.URL.Path, "/trace"):
		body, _ := io.ReadAll(r.Body)
		buyer := strings.TrimPrefix(string(body), "copy-of:")
		resp := traceResponse{Exact: buyer}
		if f.exact != "" {
			resp.Exact = f.exact
		}
		if r.URL.Query().Get("scores") == "1" {
			resp.Implicated = f.implicate
			if resp.Implicated == nil {
				resp.Implicated = []string{buyer}
			}
		}
		json.NewEncoder(w).Encode(resp)
	default:
		http.NotFound(w, r)
	}
}

func fakeRunner(t *testing.T, f *fakeDaemon) *runner {
	srv := httptest.NewServer(f)
	t.Cleanup(srv.Close)
	w := &workload{name: "fake", verify: true, pickWindow: 16}
	c := newClient(srv.URL)
	t.Cleanup(c.close)
	self, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	return &runner{
		w: w, plan: newPlan(w, 1), c: c, digest: "d",
		// The test process stands in for the daemon whose CPU is read.
		d:      &daemon{cmd: &exec.Cmd{Process: self}},
		res:    &e2eResult{lat: map[string][]float64{}, cpu: map[string][]float64{}},
		copies: []copyRec{{digest: "d", buyer: "old", netlist: []byte("copy-of:old")}},
	}
}

func TestGatesPassAGoodDaemon(t *testing.T) {
	r := fakeRunner(t, &fakeDaemon{verified: "equivalent"})
	for _, k := range []stepKind{stepIssueTrace, stepIssueTraceScores, stepOnboard, stepTrace, stepScores, stepUpload} {
		r.runStep(step{kind: k, buyer: "new", variant: 1})
	}
	r.traceSample(1, []int{0, 1}, time.Now())
	if r.res.failed != 0 || r.res.attempted != 12 {
		t.Fatalf("good daemon: %d of %d failed: %v", r.res.failed, r.res.attempted, r.res.failures)
	}
	if len(r.res.recover) != 1 {
		t.Errorf("recoveries timed = %d, want 1", len(r.res.recover))
	}
}

func TestGatesCountPlantedBadResponses(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fake  fakeDaemon
		kind  stepKind
		fails int
	}{
		{"degraded verification", fakeDaemon{verified: "degraded"}, stepIssueTrace, 1},
		{"unverified copy", fakeDaemon{verified: ""}, stepIssueTrace, 1},
		{"copy for another buyer", fakeDaemon{verified: "equivalent", label: "eve"}, stepIssueTrace, 1},
		{"onboarding issue degraded", fakeDaemon{verified: "degraded"}, stepOnboard, 1},
		{"exact trace names another buyer", fakeDaemon{verified: "equivalent", exact: "eve"}, stepTrace, 1},
		{"exact trace after issue names another buyer", fakeDaemon{verified: "equivalent", exact: "eve"}, stepIssueTrace, 1},
		{"score trace misses the buyer", fakeDaemon{verified: "equivalent", implicate: []string{"eve"}}, stepScores, 1},
		{"score trace after issue misses the buyer", fakeDaemon{verified: "equivalent", implicate: []string{"eve"}}, stepIssueTraceScores, 1},
		{"shed", fakeDaemon{status: http.StatusTooManyRequests}, stepTrace, 1},
		{"server error", fakeDaemon{status: http.StatusInternalServerError}, stepScores, 1},
		{"unavailable", fakeDaemon{status: http.StatusServiceUnavailable}, stepUpload, 1},
		{"onboarding upload refused", fakeDaemon{status: http.StatusServiceUnavailable}, stepOnboard, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := tc.fake
			r := fakeRunner(t, &f)
			r.runStep(step{kind: tc.kind, buyer: "new", variant: 1})
			if r.res.failed != tc.fails {
				t.Errorf("failed = %d, want %d (attempted %d)", r.res.failed, tc.fails, r.res.attempted)
			}
			if tc.kind != stepIssueTrace && tc.kind != stepIssueTraceScores && tc.kind != stepOnboard && len(r.res.lat["issue"])+len(r.res.lat["trace"])+len(r.res.lat["scores"]) != 0 {
				t.Errorf("a failed request left a latency sample: %v", r.res.lat)
			}
		})
	}
}

func TestRecoveryGateCountsLostCopies(t *testing.T) {
	r := fakeRunner(t, &fakeDaemon{exact: "eve"})
	r.traceSample(1, []int{0, 0, 0}, time.Now())
	if r.res.failed != 3 || len(r.res.recover) != 0 {
		t.Errorf("failed = %d, recoveries timed = %d; want 3 and 0", r.res.failed, len(r.res.recover))
	}
}

func TestFailedStartIsCounted(t *testing.T) {
	cfg := defaultConfig()
	cfg.daemonBin, cfg.workDir = "/bin/false", t.TempDir()
	res, err := runE2E(workloads[0], cfg, 1)
	if err == nil || res == nil || res.failed != 1 || res.attempted != 1 {
		t.Fatalf("daemon that exits at start: err %v, result %+v; want an error and one failed check", err, res)
	}
}
