package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"time"

	"repro/internal/obs"
)

// client drives odcfpd over one keep-alive connection. Every method checks
// the response it gets and returns an error for anything a designer's tool
// could not use: a non-2xx status (429 and 5xx included), a copy that was
// not proven equivalent, or a trace that names the wrong buyer. Nothing is
// retried.
type client struct {
	base string
	hc   *http.Client
	// rtt is the last request's round trip: from sending it until its
	// response body was read. Checking the response happens after.
	rtt time.Duration
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: 120 * time.Second}}
}

// reset points the client at a restarted daemon and drops the dead
// connection, so the first request after a restart dials afresh.
func (c *client) reset(base string) {
	c.hc.CloseIdleConnections()
	c.base = base
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends body and returns the response with its body read.
func (c *client) post(path, ctype string, body []byte) (*http.Response, []byte, error) {
	t0 := time.Now()
	resp, err := c.hc.Post(c.base+path, ctype, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	c.rtt = time.Since(t0)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return nil, nil, fmt.Errorf("POST %s: %s: %.200s", path, resp.Status, b)
	}
	return resp, b, nil
}

func (c *client) getJSON(path string, v any) error {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET %s: %s: %.200s", path, resp.Status, b)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// upload posts a .bench netlist and returns its digest.
func (c *client) upload(netlist []byte) (string, error) {
	_, b, err := c.post("/designs?format=bench", "text/plain", netlist)
	if err != nil {
		return "", err
	}
	var info struct {
		Digest string `json:"digest"`
	}
	if err := json.Unmarshal(b, &info); err != nil || info.Digest == "" {
		return "", fmt.Errorf("upload: response without a digest: %.200s", b)
	}
	return info.Digest, nil
}

// issue mints buyer's copy; with verify the daemon must prove it
// equivalent to the design ("degraded" is a failure).
func (c *client) issue(digest, buyer string, verify bool) ([]byte, error) {
	path := "/designs/" + digest + "/issue?buyer=" + url.QueryEscape(buyer)
	if verify {
		path += "&verify=1"
	}
	resp, b, err := c.post(path, "text/plain", nil)
	if err != nil {
		return nil, err
	}
	if got := resp.Header.Get("X-Odcfp-Buyer"); got != buyer {
		return nil, fmt.Errorf("issue %s: copy labelled for buyer %q", buyer, got)
	}
	if verify {
		if got := resp.Header.Get("X-Odcfp-Verified"); got != "equivalent" {
			return nil, fmt.Errorf("issue %s: X-Odcfp-Verified %q, want \"equivalent\"", buyer, got)
		}
	}
	if len(b) == 0 {
		return nil, fmt.Errorf("issue %s: empty copy", buyer)
	}
	return b, nil
}

// traceResponse is the part of a /trace answer the gates read.
type traceResponse struct {
	Exact      string   `json:"exact"`
	Implicated []string `json:"implicated"`
}

// trace runs an exact trace of a copy, which must name its buyer.
func (c *client) trace(digest string, cp []byte, buyer string) error {
	_, b, err := c.post("/designs/"+digest+"/trace", "text/plain", cp)
	if err != nil {
		return err
	}
	var tr traceResponse
	if err := json.Unmarshal(b, &tr); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if tr.Exact != buyer {
		return fmt.Errorf("trace: exact %q, want %q", tr.Exact, buyer)
	}
	return nil
}

// scores runs a score-mode trace, which must implicate the copy's buyer;
// it returns the response size.
func (c *client) scores(digest string, cp []byte, buyer string) (int, error) {
	_, b, err := c.post("/designs/"+digest+"/trace?scores=1", "text/plain", cp)
	if err != nil {
		return 0, err
	}
	var tr traceResponse
	if err := json.Unmarshal(b, &tr); err != nil {
		return 0, fmt.Errorf("scores: %w", err)
	}
	if !slices.Contains(tr.Implicated, buyer) {
		return 0, fmt.Errorf("scores: %q not implicated (got %d buyers)", buyer, len(tr.Implicated))
	}
	return len(b), nil
}

// seedBuyers mints count generated buyers through one durable async batch
// job and polls it to completion.
func (c *client) seedBuyers(digest, prefix string, count int) error {
	body, err := json.Marshal(map[string]any{"count": count, "prefix": prefix, "async": true})
	if err != nil {
		return err
	}
	resp, b, err := c.post("/designs/"+digest+"/issue/batch", "application/json", body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("seed: %s, want 202", resp.Status)
	}
	var job struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(b, &job); err != nil || job.ID == "" {
		return fmt.Errorf("seed: response without a job id: %.200s", b)
	}
	for {
		time.Sleep(20 * time.Millisecond)
		var st struct {
			State        string `json:"state"`
			Acknowledged int    `json:"acknowledged"`
			Error        string `json:"error"`
		}
		if err := c.getJSON("/jobs/"+job.ID, &st); err != nil {
			return fmt.Errorf("seed: %w", err)
		}
		switch st.State {
		case "done":
			if st.Acknowledged != count {
				return fmt.Errorf("seed: job done with %d of %d acknowledged", st.Acknowledged, count)
			}
			return nil
		case "failed":
			return fmt.Errorf("seed: job failed: %s", st.Error)
		}
	}
}

// metrics reads the daemon's /metrics counters by name.
func (c *client) metrics() (map[string]int64, error) {
	var snap []obs.MetricSnapshot
	if err := c.getJSON("/metrics", &snap); err != nil {
		return nil, err
	}
	m := make(map[string]int64, len(snap))
	for _, s := range snap {
		m[s.Name] = s.Value
	}
	return m, nil
}
