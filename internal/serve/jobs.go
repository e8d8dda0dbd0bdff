package serve

// This file is the fleet-scale issuance path: POST /issue/batch mints k
// copies in one request — one cached analysis, one shared verifier for
// every copy (window certificates, with the cec.Session as the fallback),
// one registry fsync per chunk instead of per copy — and its
// async mode turns the same work into a durable job (202 + /jobs/{id}
// polling) that survives daemon restarts. Every chunk, synchronous or
// async, mints through mint, the reserve→append→verify routine /issue
// uses: the chunk's records are durable before any of its copies is
// verified, so a verification failure or an expired deadline never takes
// back a record that a concurrent /issue of the same buyer has already
// acknowledged. A job's buyer list is written once, in its request file,
// before the 202; after that only its progress, a count of acknowledged
// buyers, is rewritten. The durability contract mirrors the registry
// store's: a copy counts as acknowledged only once the registry holding
// its fingerprint AND the job progress covering it have both been written
// with the temp-file+fsync+rename discipline, in that order. A crash
// between the two writes re-runs the chunk on resume; because issuance is
// deterministic per buyer (registry.IssueBatch reuses recorded values), the
// re-run mints byte-identical copies — an acknowledged copy is never lost
// and never duplicated.

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"time"

	"repro/internal/circuit"
	"repro/internal/obs"
)

// Batch/job metrics. Submission and copy counts are workload-determined;
// resumes and failures depend on crash/fault timing.
var (
	mBatchRequests = obs.NewCounter("serve", "batch_requests")
	mBatchCopies   = obs.NewCounter("serve", "batch_copies")
	mJobsSubmitted = obs.NewCounter("serve", "jobs_submitted")
	mJobsCompleted = obs.NewCounter("serve", "jobs_completed", obs.Nondet())
	mJobsFailed    = obs.NewCounter("serve", "jobs_failed", obs.Nondet())
	mJobsResumed   = obs.NewCounter("serve", "jobs_resumed", obs.Nondet())
)

// Job states. A queued or running job resumes after a restart; done and
// failed are terminal (failed keeps its acknowledged prefix).
const (
	JobQueued  = "queued"
	JobRunning = "running"
	JobDone    = "done"
	JobFailed  = "failed"
)

// keepFinishedJobs is how many done or failed jobs the daemon keeps, in
// memory and in the store; older ones are retired. A finished job only
// answers polls: its copies are in the registry and re-fetched through
// /issue. Without a bound the job map, the store directory and the
// start-up load grow by one job per async batch forever.
const keepFinishedJobs = 1024

// BatchIssueRequest is the JSON body of POST /designs/{digest}/issue/batch.
// Buyers may be listed explicitly, or generated as Prefix+index with Count.
type BatchIssueRequest struct {
	// Buyers lists the recipients, one copy each (no duplicates).
	Buyers []string `json:"buyers,omitempty"`
	// Count generates Count buyers named Prefix%05d when Buyers is empty.
	Count int `json:"count,omitempty"`
	// Prefix is the generated-buyer name prefix (default "buyer-").
	Prefix string `json:"prefix,omitempty"`
	// Verify CEC-proves every copy before acknowledgement (also ?verify=1).
	Verify bool `json:"verify,omitempty"`
	// Format picks the netlist encoding of synchronous responses.
	Format string `json:"format,omitempty"`
	// Async runs the batch as a durable job: 202 + job id (also ?async=1).
	Async bool `json:"async,omitempty"`
}

// BatchCopy is one minted copy in a synchronous batch response.
type BatchCopy struct {
	// Buyer names the recipient.
	Buyer string `json:"buyer"`
	// Fingerprint is the embedded value (decimal).
	Fingerprint string `json:"fingerprint"`
	// Verified is "equivalent", "degraded" or "" (verification off).
	Verified string `json:"verified,omitempty"`
	// Netlist is the fingerprinted copy in the response format.
	Netlist string `json:"netlist"`
}

// BatchIssueResponse is the JSON result of a synchronous batch issue.
type BatchIssueResponse struct {
	// Digest echoes the design digest.
	Digest string `json:"digest"`
	// Format is the netlist encoding of every copy.
	Format string `json:"format"`
	// Copies carries the minted copies in request order.
	Copies []BatchCopy `json:"copies"`
}

// JobRecord is one async issuance job, served (as a jobStatus view) from
// GET /jobs/{id}. Its request, ID through Seq, is persisted once
// before the 202 leaves the server and never changes; its JobProgress is
// persisted after every chunk commit.
type JobRecord struct {
	// ID is the job's handle (fixed-width hex).
	ID string
	// Digest is the design being issued.
	Digest string
	// Buyers is the full recipient list, in issue order. It is never
	// mutated after submit, so readers share it without jobMu.
	Buyers []string
	// Verify CEC-proves each copy before it is acknowledged.
	Verify bool
	// Created is an RFC3339 timestamp.
	Created string
	// Seq numbers the daemon's jobs in submission order, from 1; it is 0
	// for a job submitted to a daemon that did not number them.
	Seq uint64
	JobProgress
}

// JobProgress is the mutable half of a job, guarded by jobMu and rewritten
// whole after every chunk; its size does not depend on the job's.
type JobProgress struct {
	// State is one of JobQueued, JobRunning, JobDone, JobFailed.
	State string `json:"state"`
	// Acked counts acknowledged buyers, always a prefix of Buyers: their
	// fingerprints are durable and each copy is re-fetchable,
	// byte-identically, via /issue.
	Acked int `json:"acked"`
	// Error explains a JobFailed state.
	Error string `json:"error,omitempty"`
	// Updated is an RFC3339 timestamp.
	Updated string `json:"updated"`
}

// before orders jobs by submission: the runner's pick order, the GET /jobs
// order and, as the runner finishes jobs in the order it picks them, the
// retirement order after a restart. Jobs without a sequence number come
// first, by creation time (one-second resolution), then id.
func (r *JobRecord) before(o *JobRecord) bool {
	if r.Seq != o.Seq {
		return r.Seq < o.Seq
	}
	if r.Created != o.Created {
		return r.Created < o.Created
	}
	return r.ID < o.ID
}

// terminal reports whether the job is done or failed.
func (r *JobRecord) terminal() bool { return r.State == JobDone || r.State == JobFailed }

// jobStatus is the polling view of a JobRecord: counts always, full buyer
// lists only on request (a 10⁵-copy job's lists dwarf the poll loop).
type jobStatus struct {
	ID           string   `json:"id"`
	Digest       string   `json:"digest"`
	State        string   `json:"state"`
	Verify       bool     `json:"verify"`
	Total        int      `json:"total"`
	Acknowledged int      `json:"acknowledged"`
	Remaining    int      `json:"remaining"`
	Error        string   `json:"error,omitempty"`
	Created      string   `json:"created"`
	Updated      string   `json:"updated"`
	Buyers       []string `json:"buyers,omitempty"`
	Done         []string `json:"done,omitempty"`
}

// newJobID returns a fresh random job handle.
func newJobID() (string, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", err
	}
	return hex.EncodeToString(b[:]), nil
}

// rfc3339Now is the job timestamp format.
func rfc3339Now() string { return time.Now().UTC().Format(time.RFC3339) }

// statusView renders a record snapshot; the caller holds jobMu (or owns
// the record exclusively). The lists share the record's read-only Buyers.
func statusView(rec *JobRecord, withLists bool) jobStatus {
	st := jobStatus{
		ID: rec.ID, Digest: rec.Digest, State: rec.State, Verify: rec.Verify,
		Total: len(rec.Buyers), Acknowledged: rec.Acked,
		Remaining: len(rec.Buyers) - rec.Acked,
		Error:     rec.Error, Created: rec.Created, Updated: rec.Updated,
	}
	if withLists {
		st.Buyers = rec.Buyers
		st.Done = rec.Buyers[:rec.Acked]
	}
	return st
}

// loadJobs reloads persisted job records at startup; interrupted jobs
// (queued or running) are counted as resumed and re-run by the runner.
// Finished jobs are queued for retirement in pick order, which is the
// order the runner finished them in, and those beyond keepJobs are
// retired. Numbering resumes after the highest loaded sequence number.
func (s *Server) loadJobs() error {
	jobs, err := s.store.LoadJobs()
	if err != nil {
		return err
	}
	var finished []*JobRecord
	var seq uint64
	for _, rec := range jobs {
		seq = max(seq, rec.Seq)
		if rec.terminal() {
			finished = append(finished, rec)
		} else {
			mJobsResumed.Inc()
		}
	}
	sort.Slice(finished, func(i, j int) bool { return finished[i].before(finished[j]) })
	s.jobMu.Lock()
	s.jobs = jobs
	s.jobSeq = seq
	s.finished = s.finished[:0]
	for _, rec := range finished {
		s.finished = append(s.finished, rec.ID)
	}
	s.jobMu.Unlock()
	s.retireJobs()
	return nil
}

// retireJobs drops the earliest-finished jobs beyond keepJobs from the map,
// then from the store. Finished jobs are never written again, so removing
// their files outside jobMu races with nothing. A removal that fails
// leaves the files for the next start-up to retire.
func (s *Server) retireJobs() {
	s.jobMu.Lock()
	n := len(s.finished) - s.keepJobs
	if n <= 0 {
		s.jobMu.Unlock()
		return
	}
	retired := s.finished[:n:n]
	s.finished = s.finished[n:]
	for _, id := range retired {
		delete(s.jobs, id)
	}
	s.jobMu.Unlock()
	for _, id := range retired {
		s.store.DeleteJob(id)
	}
}

// wakeRunner nudges the job runner without blocking.
func (s *Server) wakeRunner() {
	select {
	case s.jobWake <- struct{}{}:
	default:
	}
}

// batchBuyers expands and validates the request's recipient list. A
// generated list may not exceed maxCount names, so a few-byte body cannot
// make the server allocate more than an explicit list could.
func batchBuyers(req *BatchIssueRequest, maxCount int) ([]string, error) {
	buyers := req.Buyers
	if len(buyers) == 0 {
		if req.Count <= 0 {
			return nil, fmt.Errorf("batch needs a non-empty buyers list or a positive count")
		}
		if req.Count > maxCount {
			return nil, fmt.Errorf("batch count %d exceeds %d, the most names a request body can list", req.Count, maxCount)
		}
		prefix := req.Prefix
		if prefix == "" {
			prefix = "buyer-"
		}
		buyers = make([]string, req.Count)
		for i := range buyers {
			buyers[i] = fmt.Sprintf("%s%05d", prefix, i)
		}
		return buyers, nil
	}
	seen := make(map[string]bool, len(buyers))
	for _, b := range buyers {
		if b == "" {
			return nil, fmt.Errorf("empty buyer name in batch")
		}
		if seen[b] {
			return nil, fmt.Errorf("duplicate buyer %q in batch", b)
		}
		seen[b] = true
	}
	return buyers, nil
}

// handleBatchIssue implements POST /designs/{digest}/issue/batch. The
// synchronous form (≤ MaxBatchBuyers copies) returns every netlist inline;
// ?async=1 (any size) durably enqueues a job and returns 202 + its status.
func (s *Server) handleBatchIssue(w http.ResponseWriter, r *http.Request) {
	d := s.routeDesign(w, r)
	if d == nil {
		return
	}
	data, ok := s.readBody(w, r)
	if !ok {
		return
	}
	var req BatchIssueRequest
	if err := json.Unmarshal(data, &req); err != nil {
		writeError(w, http.StatusBadRequest, "batch request body must be JSON {\"buyers\": [...]} or {\"count\": N}")
		return
	}
	q := r.URL.Query()
	format := q.Get("format")
	if req.Format != "" {
		format = req.Format
	}
	format, err := outputFormat(format, d.meta.Format)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	verify := req.Verify || q.Get("verify") == "1"
	async := req.Async || q.Get("async") == "1"
	// The synchronous cap is checked before a generated list is expanded.
	n := len(req.Buyers)
	if n == 0 {
		n = req.Count
	}
	if !async && n > s.cfg.MaxBatchBuyers {
		writeError(w, http.StatusBadRequest, fmt.Sprintf(
			"synchronous batch capped at %d buyers (got %d); use ?async=1", s.cfg.MaxBatchBuyers, n))
		return
	}
	// A listed name costs at least 4 body bytes ("x",), which bounds how
	// many names a generated list may hold.
	buyers, err := batchBuyers(&req, int(s.cfg.MaxRequestBytes/4))
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	mBatchRequests.Inc()

	if async {
		s.submitJob(w, r, d, buyers, verify)
		return
	}
	s.withWorker(w, r, "batch", func(ctx context.Context) error {
		a, err := s.analysis(ctx, d)
		if err != nil {
			return err
		}
		resp := BatchIssueResponse{Digest: d.digest, Format: format}
		// Chunked commits: each chunk is durable before the next starts, so
		// a mid-batch failure loses only the unacknowledged tail — and a
		// client retry re-mints identical copies (issuance is deterministic
		// per buyer), never duplicates.
		for len(buyers) > 0 {
			n := min(s.cfg.BatchChunk, len(buyers))
			items, labels, err := s.mint(ctx, d, a, buyers[:n], verify, true)
			if err != nil {
				return issueError(ctx, "batch issue", err)
			}
			mBatchCopies.Add(int64(len(items)))
			for i := range items {
				enc, err := encodeNetlist(format, items[i].Circuit)
				if err != nil {
					return err
				}
				resp.Copies = append(resp.Copies, BatchCopy{
					Buyer:       items[i].Buyer,
					Fingerprint: items[i].Value.String(),
					Verified:    labels[i],
					Netlist:     enc,
				})
			}
			buyers = buyers[n:]
		}
		w.Header().Set("X-Odcfp-Digest", d.digest)
		writeJSON(w, http.StatusOK, resp)
		return nil
	})
}

// encodeNetlist renders c in format as a string.
func encodeNetlist(format string, c *circuit.Circuit) (string, error) {
	b, err := netlistBytes(format, c)
	return string(b), err
}

// submitJob durably enqueues an async issuance job and answers 202. The
// record hits disk before the response, so a 202 is itself an
// acknowledgement: the job survives any restart from this point on.
func (s *Server) submitJob(w http.ResponseWriter, r *http.Request, d *design, buyers []string, verify bool) {
	id, err := newJobID()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.jobMu.Lock()
	s.jobSeq++
	seq := s.jobSeq
	s.jobMu.Unlock()
	now := rfc3339Now()
	rec := &JobRecord{
		ID: id, Digest: d.digest, Buyers: buyers, Verify: verify, Created: now, Seq: seq,
		JobProgress: JobProgress{State: JobQueued, Updated: now},
	}
	if err := s.retryStore(r.Context(), func() error { return s.store.PutJob(rec) }); err != nil {
		if isTransient(err) {
			writeError(w, http.StatusServiceUnavailable, "store unavailable: "+err.Error())
			return
		}
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.jobMu.Lock()
	s.jobs[id] = rec
	st := statusView(rec, false)
	s.jobMu.Unlock()
	mJobsSubmitted.Inc()
	s.wakeRunner()
	w.Header().Set("Location", "/jobs/"+id)
	writeJSON(w, http.StatusAccepted, st)
}

// handleJobStatus implements GET /jobs/{id}; ?buyers=1 includes the full
// buyer and acknowledged lists.
func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.jobMu.Lock()
	rec, ok := s.jobs[id]
	var st jobStatus
	if ok {
		st = statusView(rec, r.URL.Query().Get("buyers") == "1")
	}
	s.jobMu.Unlock()
	if !ok {
		// Jobs live on the replica that accepted them; in cluster mode an
		// unknown id may belong to a peer — probe before answering 404.
		if s.probeJobPeers(w, r) {
			return
		}
		writeError(w, http.StatusNotFound, "unknown job "+id)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleJobList implements GET /jobs: every job's status, in submission
// order (JobRecord.before).
func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	s.jobMu.Lock()
	recs := make([]*JobRecord, 0, len(s.jobs))
	for _, rec := range s.jobs {
		recs = append(recs, rec)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].before(recs[j]) })
	out := make([]jobStatus, len(recs))
	for i, rec := range recs {
		out[i] = statusView(rec, false)
	}
	s.jobMu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

// nextJob picks the earliest-submitted runnable job (queued, or running,
// i.e. interrupted by a restart) and marks it running. Returns nil when
// idle.
func (s *Server) nextJob() *JobRecord {
	s.jobMu.Lock()
	defer s.jobMu.Unlock()
	var pick *JobRecord
	for _, rec := range s.jobs {
		if rec.terminal() {
			continue
		}
		if pick == nil || rec.before(pick) {
			pick = rec
		}
	}
	if pick != nil {
		pick.State = JobRunning
	}
	return pick
}

// runJobs is the background job runner. It processes one job at a time,
// chunk by chunk, taking a worker-pool slot per chunk and releasing it
// between chunks — so interactive /issue and /trace requests interleave
// with a running mega-batch instead of starving behind it. When the
// runner's context dies (Shutdown), the current chunk is cancelled
// mid-copy; the job's durable state is untouched since its last commit and
// the next daemon over the same store resumes it. After each job it
// retires the finished jobs beyond keepJobs.
func (s *Server) runJobs(ctx context.Context) {
	defer close(s.runnerDone)
	for {
		rec := s.nextJob()
		if rec == nil {
			select {
			case <-ctx.Done():
				return
			case <-s.jobWake:
				continue
			}
		}
		s.processJob(ctx, rec)
		s.retireJobs()
		if ctx.Err() != nil {
			return
		}
	}
}

// commitJob persists the record's current progress; the caller must not
// hold jobMu (commitJob snapshots under it).
func (s *Server) commitJob(ctx context.Context, rec *JobRecord) error {
	s.jobMu.Lock()
	rec.Updated = rfc3339Now()
	p := rec.JobProgress
	s.jobMu.Unlock()
	return s.retryStore(ctx, func() error { return s.store.PutJobProgress(rec.ID, p) })
}

// finishJob marks the job done, or failed with err (keeping its
// acknowledged prefix), queues it for retirement and persists the
// terminal state.
func (s *Server) finishJob(ctx context.Context, rec *JobRecord, err error) {
	s.jobMu.Lock()
	rec.State = JobDone
	if err != nil {
		rec.State, rec.Error = JobFailed, err.Error()
	}
	s.finished = append(s.finished, rec.ID)
	s.jobMu.Unlock()
	if err != nil {
		mJobsFailed.Inc()
	} else {
		mJobsCompleted.Inc()
	}
	s.commitJob(ctx, rec)
}

// processJob runs one job to a terminal state or until ctx dies. Chunks
// follow the acknowledged order: reserve + durable registry append + verify
// (mint), then the job's acknowledged count is advanced and persisted.
// A crash between those two writes re-runs the chunk deterministically on
// resume, so acknowledged copies are never lost or duplicated.
func (s *Server) processJob(ctx context.Context, rec *JobRecord) {
	d := s.lookupDesign(rec.Digest)
	if d == nil {
		s.finishJob(ctx, rec, fmt.Errorf("unknown design %s", rec.Digest))
		return
	}
	// Only the runner writes a record's progress once it is submitted, so
	// it reads Acked without jobMu; the request fields never change.
	buyers, done := rec.Buyers, rec.Acked
	for done < len(buyers) {
		if ctx.Err() != nil {
			return // shutdown: resume from the durable state next start
		}
		n := min(s.cfg.BatchChunk, len(buyers)-done)
		chunk := buyers[done : done+n]
		cctx, cancel := context.WithTimeout(ctx, s.cfg.RequestTimeout)
		err := s.pool.Run(cctx, func(ctx context.Context) error {
			a, err := s.analysis(ctx, d)
			if err != nil {
				return err
			}
			_, _, err = s.mint(ctx, d, a, chunk, rec.Verify, false)
			return err
		})
		cancel()
		if err == nil && s.testHook != nil {
			// The chunk's copies are durable in the registry but the job
			// progress does not cover them yet — the window chaos tests target.
			s.testHook("job-chunk-minted")
		}
		if err != nil {
			if ctx.Err() != nil {
				return // shutdown mid-chunk: nothing new was acknowledged
			}
			// A chunk deadline on a live daemon is a real failure (the
			// chunk is sized to fit well inside RequestTimeout), as is a
			// non-transient store or embed error.
			s.finishJob(ctx, rec, fmt.Errorf("chunk at copy %d: %w", done, err))
			return
		}
		mBatchCopies.Add(int64(n))
		done += n
		s.jobMu.Lock()
		rec.Acked = done
		s.jobMu.Unlock()
		if err := s.commitJob(ctx, rec); err != nil {
			if ctx.Err() != nil {
				return
			}
			// The copies are durable in the registry but the job progress
			// could not say so; resume will re-run them idempotently.
			s.finishJob(ctx, rec, fmt.Errorf("persisting job progress: %w", err))
			return
		}
		if s.testHook != nil {
			s.testHook("job-chunk")
		}
	}
	s.finishJob(ctx, rec, nil)
}
