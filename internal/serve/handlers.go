package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/jsonw"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/registry"
	"repro/internal/registrystore"
)

// DesignInfo is the JSON summary of one analysed design.
type DesignInfo struct {
	// Digest identifies the analysed design (core.Analysis.Digest).
	Digest string `json:"digest"`
	// Design is the circuit name from the netlist.
	Design string `json:"design"`
	// Format is the stored netlist format ("bench", "blif", "v").
	Format string `json:"format"`
	// Gates counts the swept design's gates.
	Gates int `json:"gates"`
	// Locations is the number of fingerprint locations (Definition 1).
	Locations int `json:"locations"`
	// Slots is the number of (location, target) modification slots.
	Slots int `json:"slots"`
	// CapacityBits is log₂ of the distinct-fingerprint count.
	CapacityBits float64 `json:"capacity_bits"`
	// Buyers counts issued fingerprints.
	Buyers int `json:"buyers"`
}

// IssueRequest is the JSON body of POST /designs/{digest}/issue. The buyer
// may alternatively be given as the ?buyer= query parameter.
type IssueRequest struct {
	// Buyer is the name the fingerprint is recorded under.
	Buyer string `json:"buyer"`
}

// TraceResponse is the JSON result of POST /designs/{digest}/trace.
type TraceResponse struct {
	// Digest echoes the design digest.
	Digest string `json:"digest"`
	// Exact is the buyer whose fingerprint the suspect matches exactly,
	// or "" when no untampered match exists.
	Exact string `json:"exact"`
	// Scores carries per-buyer marking-assumption scores (?scores=1 only).
	Scores []TraceScore `json:"scores,omitempty"`
	// Threshold is the accusation threshold the Implicated list was
	// computed at (?threshold=, default 1.0).
	Threshold float64 `json:"threshold,omitempty"`
	// Implicated lists buyers whose agreement over surviving modifications
	// reaches Threshold (?scores=1 only). At the default threshold of 1.0
	// this is registry.Implicated's exact marking-assumption rule; a lower
	// threshold also catches coalitions whose forged copy retained another
	// colluder's variant at the sites the attack detected.
	Implicated []string `json:"implicated,omitempty"`
	// FullRemoval is set (?scores=1 only) when the suspect carries no
	// surviving modification at any untampered slot: either it was never
	// fingerprinted from this design, or an attacker stripped every bit —
	// the one outcome tracing cannot attribute. Operators should treat it
	// as its own alert class rather than an empty Implicated list.
	FullRemoval bool `json:"full_removal,omitempty"`

	// ranked, set by SetScores, stands in for Scores when r is encoded:
	// the registry's ranking, encoded row by row with no []TraceScore copy.
	ranked []registry.Score
}

// SetScores fills the ?scores=1 fields from a registry ranking
// (registry.Scores): Threshold, FullRemoval and Implicated at
// threshold, and the scores the encoders write, which are read from
// scores itself and not copied into Scores.
func (r *TraceResponse) SetScores(scores []registry.Score, threshold float64) {
	r.ranked = scores
	r.Threshold = threshold
	r.FullRemoval = registry.FullRemoval(scores)
	r.Implicated = registry.Implicated(scores, threshold)
}

// traceChunk is the size of the pieces WriteTo hands to its writer.
const traceChunk = 32 << 10

// AppendJSON appends r exactly as writeJSON's encoding/json path would
// write it — SetIndent("", "  ") layout, field order, omitempty and the
// trailing newline — byte for byte, with SetScores' ranking in place of
// Scores when set. A ?scores=1 answer is Θ(buyers), and reflecting over
// ten thousand rows cost several times the scoring. The floats must be
// finite, as encoding/json requires.
func (r *TraceResponse) AppendJSON(dst []byte) []byte {
	return r.encode(dst, nil)
}

// WriteTo writes AppendJSON's bytes to w in pieces of about traceChunk
// bytes through one buffer of about that size, so a Θ(buyers) body never
// exists whole. After a write fails it writes nothing more and returns
// that error.
func (r *TraceResponse) WriteTo(w io.Writer) (int64, error) {
	var n int64
	var err error
	flush := func(b []byte) []byte {
		if err == nil {
			var m int
			m, err = w.Write(b)
			n += int64(m)
		}
		return b[:0]
	}
	flush(r.encode(make([]byte, 0, traceChunk+traceChunk/4), flush))
	return n, err
}

// encode is the one trace-body encoder. With flush nil it appends the
// whole body to dst; otherwise, whenever dst has reached traceChunk
// bytes between two rows, it hands dst to flush and carries on with what
// flush returns.
func (r *TraceResponse) encode(dst []byte, flush func([]byte) []byte) []byte {
	dst = append(dst, "{\n  \"digest\": "...)
	dst = jsonw.AppendString(dst, r.Digest)
	dst = append(dst, ",\n  \"exact\": "...)
	dst = jsonw.AppendString(dst, r.Exact)
	if n := r.numScores(); n > 0 {
		var frac, fracAll floatRun
		dst = append(dst, ",\n  \"scores\": ["...)
		for i := 0; i < n; i++ {
			sc := r.score(i)
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, "\n    {\n      \"buyer\": "...)
			dst = jsonw.AppendString(dst, sc.Buyer)
			dst = append(dst, ",\n      \"agree_present\": "...)
			dst = strconv.AppendInt(dst, int64(sc.AgreePresent), 10)
			dst = append(dst, ",\n      \"total_present\": "...)
			dst = strconv.AppendInt(dst, int64(sc.TotalPresent), 10)
			dst = append(dst, ",\n      \"fraction\": "...)
			dst = frac.append(dst, sc.Fraction)
			dst = append(dst, ",\n      \"fraction_all\": "...)
			dst = fracAll.append(dst, sc.FractionAll)
			dst = append(dst, "\n    }"...)
			if flush != nil && len(dst) >= traceChunk {
				dst = flush(dst)
			}
		}
		dst = append(dst, "\n  ]"...)
	}
	if r.Threshold != 0 {
		dst = append(dst, ",\n  \"threshold\": "...)
		dst = jsonw.AppendFloat(dst, r.Threshold)
	}
	if len(r.Implicated) > 0 {
		dst = append(dst, ",\n  \"implicated\": ["...)
		for i, b := range r.Implicated {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, "\n    "...)
			dst = jsonw.AppendString(dst, b)
			if flush != nil && len(dst) >= traceChunk {
				dst = flush(dst)
			}
		}
		dst = append(dst, "\n  ]"...)
	}
	if r.FullRemoval {
		dst = append(dst, ",\n  \"full_removal\": true"...)
	}
	return append(dst, "\n}\n"...)
}

// numScores is the number of score rows r encodes.
func (r *TraceResponse) numScores() int {
	if r.ranked != nil {
		return len(r.ranked)
	}
	return len(r.Scores)
}

// score returns encoded score row i: from SetScores' ranking when set,
// else from Scores.
func (r *TraceResponse) score(i int) TraceScore {
	if r.ranked == nil {
		return r.Scores[i]
	}
	s := &r.ranked[i]
	return TraceScore{
		Buyer:        s.Name,
		AgreePresent: s.AgreePresent,
		TotalPresent: s.TotalPresent,
		Fraction:     s.Fraction(),
		FractionAll:  s.FractionAll(),
	}
}

// floatRun appends one column of floats, copying the previous value's
// digits when a value repeats. Score rows arrive sorted by evidence, so
// equal fractions come in runs, and shortest-float formatting is otherwise
// most of a score-trace encode. The digits are kept in the run itself, as
// a flush empties the buffer they were appended to.
type floatRun struct {
	bits   uint64
	n      int // length of digits; 0 until a value is appended
	digits [32]byte
}

func (c *floatRun) append(dst []byte, f float64) []byte {
	// Compare bits, not values: 0 and -0 are equal but print differently.
	bits := math.Float64bits(f)
	if c.n > 0 && bits == c.bits {
		return append(dst, c.digits[:c.n]...)
	}
	start := len(dst)
	dst = jsonw.AppendFloat(dst, f)
	c.bits, c.n = bits, copy(c.digits[:], dst[start:])
	return dst
}

// TraceScore is one buyer's agreement with the suspect copy.
type TraceScore struct {
	// Buyer names the registered buyer.
	Buyer string `json:"buyer"`
	// AgreePresent of TotalPresent surviving-modification slots agree.
	AgreePresent int `json:"agree_present"`
	// TotalPresent counts slots where the suspect carries a modification.
	TotalPresent int `json:"total_present"`
	// Fraction is AgreePresent/TotalPresent (1.0 when TotalPresent is 0).
	Fraction float64 `json:"fraction"`
	// FractionAll is agreement over every untampered slot.
	FractionAll float64 `json:"fraction_all"`
}

// HealthResponse is the JSON body of GET /healthz.
type HealthResponse struct {
	// Status is "ok", or "draining" after Shutdown begins (status 503).
	Status string `json:"status"`
	// Designs counts servable designs.
	Designs int `json:"designs"`
	// CachedAnalyses counts analyses resident in the LRU.
	CachedAnalyses int `json:"cached_analyses"`
	// InFlight counts requests currently holding worker slots.
	InFlight int `json:"in_flight"`
	// Workers is the worker-pool bound.
	Workers int `json:"workers"`
}

// apiError carries an HTTP status through the worker-pool boundary.
type apiError struct {
	status int
	msg    string
}

// Error implements error.
func (e *apiError) Error() string { return e.msg }

func apiErrorf(status int, format string, args ...any) *apiError {
	return &apiError{status: status, msg: fmt.Sprintf(format, args...)}
}

// writeJSON emits v, indented, with the given status. v is encoded before
// the status is written, so a value that cannot be encoded answers 500
// (counted in serve.request_errors) rather than a success with an empty
// body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encoding response: "+err.Error())
		return
	}
	writeBody(w, status, append(body, '\n'))
}

// writeBody emits an encoded JSON body with the given status.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	w.Write(body)
}

// writeError emits the standard {"error": ...} body.
func writeError(w http.ResponseWriter, status int, msg string) {
	mErrors.Inc()
	writeJSON(w, status, map[string]string{"error": msg})
}

// readBody reads the request body under the configured size limit. On
// failure it writes the error response itself and reports false.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxRequestBytes)
	data, err := readAll(r.Body, r.ContentLength)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
		} else {
			writeError(w, http.StatusBadRequest, "reading body: "+err.Error())
		}
		return nil, false
	}
	return data, true
}

// maxPresize caps the buffer readAll reserves from a declared
// Content-Length before any of the body has arrived.
const maxPresize = 64 << 10

// readAll is io.ReadAll with the buffer first sized for the declared
// length, up to maxPresize, so a netlist of up to 64 KiB is read into one
// allocation instead of a growing series of them. Past that the buffer
// grows only as bytes arrive, so a body that is declared but never sent
// holds at most maxPresize.
func readAll(r io.Reader, declared int64) ([]byte, error) {
	var b bytes.Buffer
	b.Grow(int(min(max(declared, 0), maxPresize)) + bytes.MinRead)
	_, err := b.ReadFrom(r)
	return b.Bytes(), err
}

// withWorker admits fn to the bounded pool under the per-request timeout
// and maps admission/execution failures onto HTTP statuses. fn writes the
// success response itself. Before queueing, the request is shed outright
// (429 + Retry-After) when s.maxQueue callers already wait for a slot —
// better an instant retryable rejection than a slot in a
// queue whose head already exceeds every deadline.
func (s *Server) withWorker(w http.ResponseWriter, r *http.Request, kind string, fn func(ctx context.Context) error) {
	if s.pool.Waiting() >= s.maxQueue {
		mShed.Inc()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "server overloaded; retry later")
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	err := s.pool.Run(ctx, func(ctx context.Context) error {
		if s.testHook != nil {
			s.testHook(kind)
		}
		return fn(ctx)
	})
	switch {
	case err == nil:
	case errors.Is(err, par.ErrPoolClosed):
		writeError(w, http.StatusServiceUnavailable, "server is draining")
	case errors.Is(err, context.DeadlineExceeded):
		mTimeouts.Inc()
		writeError(w, http.StatusGatewayTimeout, "request deadline exceeded")
	case errors.Is(err, context.Canceled):
		writeError(w, http.StatusServiceUnavailable, "client went away")
	default:
		var ae *apiError
		if errors.As(err, &ae) {
			writeError(w, ae.status, ae.msg)
			return
		}
		writeError(w, http.StatusInternalServerError, err.Error())
	}
}

// designInfo builds the DesignInfo summary from the design, its analysis
// and its registry.
func designInfo(d *design, a *core.Analysis, reg *registry.Registry) DesignInfo {
	return DesignInfo{
		Digest:       d.digest,
		Design:       a.Circuit.Name,
		Format:       d.meta.Format,
		Gates:        a.Circuit.NumGates(),
		Locations:    a.NumLocations(),
		Slots:        a.TotalTargets(),
		CapacityBits: a.Capacity().Log2Combos,
		Buyers:       reg.NumIssued(),
	}
}

// handleUpload implements POST /designs: read and analyse once, persist,
// publish, and return the digest clients use for every later issue/trace
// call.
func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	data, ok := s.readBody(w, r)
	if !ok {
		return
	}
	if len(bytes.TrimSpace(data)) == 0 {
		writeError(w, http.StatusBadRequest, "empty netlist")
		return
	}
	format := r.URL.Query().Get("format")
	if format == "" {
		format = detectFormat(data)
	}
	s.withWorker(w, r, "upload", func(ctx context.Context) error {
		// A netlist that does not parse, or parses into a malformed circuit
		// (undriven inputs, combinational cycles, bad arities), gets a 400
		// with the diagnostic, not a late analysis failure.
		a, err := readDesign(ctx, format, data)
		var re *ingest.ReadError
		switch {
		case err == nil:
		case errors.As(err, &re) && re.Invalid:
			return apiErrorf(http.StatusBadRequest, "invalid netlist: %v", re.Err)
		case errors.As(err, &re):
			return apiErrorf(http.StatusBadRequest, "parsing %s netlist: %v", format, re.Err)
		case ctx.Err() != nil:
			return ctx.Err()
		default:
			return apiErrorf(http.StatusUnprocessableEntity, "analysis failed: %v", err)
		}
		digest := a.Digest()
		meta := DesignMeta{Design: a.Circuit.Name, Format: format}
		d, existed, err := s.storeDesign(ctx, digest, meta, func() error {
			return s.retryStore(ctx, func() error { return s.store.PutDesign(digest, meta, data) })
		})
		if err != nil {
			if isTransient(err) {
				return apiErrorf(http.StatusServiceUnavailable, "store unavailable: %v", err)
			}
			return err
		}
		if !existed {
			// Cluster replicas learn new designs eagerly (background push);
			// routed requests that outrun the push adopt the bytes on miss.
			s.broadcastDesign(digest, d.meta, data)
		}
		a = s.cache.add(digest, a)
		mUploads.Inc()

		reg, err := s.registryOf(d, a)
		if err != nil {
			return err
		}
		status := http.StatusCreated
		if existed {
			status = http.StatusOK
		}
		writeJSON(w, status, designInfo(d, a, reg))
		return nil
	})
}

// storeDesign makes a design durable and only then known, so nothing
// answers for a design whose bytes could still be lost: a duplicate upload
// gets its 200, and an issue its ack, only once a store of the design has
// succeeded. put writes the design's files. Writers of one digest take
// turns — two uploads of one design, perhaps in different formats, or an
// upload and a peer's push — and a writer that finds the design known
// writes nothing; writers of other digests do not wait. It returns the
// design and whether it was known already.
func (s *Server) storeDesign(ctx context.Context, digest string, meta DesignMeta, put func() error) (*design, bool, error) {
	for {
		s.mu.Lock()
		if d := s.designs[digest]; d != nil {
			s.mu.Unlock()
			return d, true, nil
		}
		busy, ok := s.writing[digest]
		if !ok {
			done := make(chan struct{})
			s.writing[digest] = done
			s.mu.Unlock()
			defer func() {
				s.mu.Lock()
				delete(s.writing, digest)
				s.mu.Unlock()
				close(done)
			}()
			if err := put(); err != nil {
				return nil, false, err
			}
			return s.registerDesign(digest, meta), false, nil
		}
		s.mu.Unlock()
		select {
		case <-busy:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
}

// handleList implements GET /designs: light entries, no forced analysis.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]map[string]string, 0, len(s.designs))
	for _, d := range s.designs {
		out = append(out, map[string]string{
			"digest": d.digest,
			"design": d.meta.Design,
			"format": d.meta.Format,
		})
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i]["digest"] < out[j]["digest"] })
	writeJSON(w, http.StatusOK, map[string]any{"designs": out})
}

// handleInfo implements GET /designs/{digest}.
func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	d := s.routeDesign(w, r)
	if d == nil {
		return
	}
	s.withWorker(w, r, "info", func(ctx context.Context) error {
		a, err := s.analysis(ctx, d)
		if err != nil {
			return err
		}
		reg, err := s.registryOf(d, a)
		if err != nil {
			return err
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"info":   designInfo(d, a, reg),
			"buyers": reg.Buyers(),
		})
		return nil
	})
}

// handleIssue implements POST /designs/{digest}/issue: mint (or re-mint,
// idempotently) the buyer's fingerprinted copy and stream it back as a
// netlist. The fresh record is durable in the registry store — W-replica
// durable in cluster mode — before the copy leaves the server, so an
// acknowledged issuance always survives a restart.
func (s *Server) handleIssue(w http.ResponseWriter, r *http.Request) {
	d := s.routeDesign(w, r)
	if d == nil {
		return
	}
	buyer := r.URL.Query().Get("buyer")
	if buyer == "" {
		data, ok := s.readBody(w, r)
		if !ok {
			return
		}
		if len(bytes.TrimSpace(data)) > 0 {
			var req IssueRequest
			if jerr := json.Unmarshal(data, &req); jerr != nil {
				writeError(w, http.StatusBadRequest, "issue request body must be JSON {\"buyer\": ...}")
				return
			}
			buyer = req.Buyer
		}
	}
	if buyer == "" {
		writeError(w, http.StatusBadRequest, "buyer name required (?buyer= or JSON body)")
		return
	}
	format, err := outputFormat(r.URL.Query().Get("format"), d.meta.Format)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	verify := r.URL.Query().Get("verify") == "1"

	s.withWorker(w, r, "issue", func(ctx context.Context) error {
		a, err := s.analysis(ctx, d)
		if err != nil {
			return err
		}
		items, labels, err := s.mint(ctx, d, a, []string{buyer}, verify, true)
		if err != nil {
			return issueError(ctx, "issue", err)
		}
		body, err := netlistBytes(format, items[0].Circuit)
		if err != nil {
			return err
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Header().Set("X-Odcfp-Digest", d.digest)
		w.Header().Set("X-Odcfp-Buyer", buyer)
		w.Header().Set("X-Odcfp-Fingerprint", items[0].Value.String())
		w.Header().Set("X-Odcfp-Format", format)
		if labels[0] != "" {
			w.Header().Set("X-Odcfp-Verified", labels[0])
		}
		w.WriteHeader(http.StatusOK)
		w.Write(body)
		return nil
	})
}

// handleTrace implements POST /designs/{digest}/trace: the body is the
// suspect netlist; the response names the exact-match buyer (untampered
// copies) and, with ?scores=1, the full marking-assumption score table
// plus the implicated coalition.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	d := s.routeDesign(w, r)
	if d == nil {
		return
	}
	data, ok := s.readBody(w, r)
	if !ok {
		return
	}
	if len(bytes.TrimSpace(data)) == 0 {
		writeError(w, http.StatusBadRequest, "empty suspect netlist")
		return
	}
	format := r.URL.Query().Get("format")
	if format == "" {
		format = detectFormat(data)
	}
	wantScores := r.URL.Query().Get("scores") == "1"
	threshold := 1.0
	if tq := r.URL.Query().Get("threshold"); tq != "" {
		v, err := strconv.ParseFloat(tq, 64)
		// The negated range test also refuses NaN, which ParseFloat accepts
		// and which compares false against both bounds.
		if err != nil || !(v >= 0 && v <= 1) {
			writeError(w, http.StatusBadRequest, "threshold must be a finite number in [0, 1]")
			return
		}
		threshold = v
	}

	s.withWorker(w, r, "trace", func(ctx context.Context) error {
		suspect, err := ingest.Stage(format, data)
		if err != nil {
			return apiErrorf(http.StatusBadRequest, "parsing %s suspect: %v", format, err)
		}
		a, err := s.analysis(ctx, d)
		if err != nil {
			return err
		}
		reg, err := s.registryOf(d, a)
		if err != nil {
			return err
		}
		// One extraction answers both questions. The suspect can match a
		// buyer exactly only with no slot tampered, which is exactly when
		// core.Extract succeeds, with this assignment.
		asg, tampered, err := core.ExtractTolerant(a, suspect)
		if err != nil {
			return err
		}
		resp := TraceResponse{Digest: d.digest}
		exact := func() {
			if len(tampered) == 0 {
				if buyer, err := reg.ExactBuyer(a, asg); err == nil {
					resp.Exact = buyer
				}
			}
		}
		exact()
		if resp.Exact == "" && s.cluster != nil {
			// Read repair: a copy acknowledged by a now-dead leader may not
			// have replicated here yet. A miss is cheap and rare, so pull the
			// digest's records from the peers once and re-match before
			// answering "unknown".
			if adopted, _ := s.cluster.store.Sync(ctx, []string{d.digest}); adopted > 0 {
				mTraceRepairs.Inc()
				if reg2, err := s.registryOf(d, a); err == nil {
					reg = reg2
					exact()
				}
			}
		}
		if wantScores {
			scores, err := reg.Scores(a, asg)
			if err != nil {
				return apiErrorf(http.StatusUnprocessableEntity, "trace: %v", err)
			}
			resp.SetScores(scores, threshold)
		}
		// The accusation count rides in a header so load balancers and
		// alerting probes can watch trace outcomes without parsing bodies;
		// the counters below feed the same signal into /metrics.
		accused := len(resp.Implicated)
		if !wantScores && resp.Exact != "" {
			accused = 1
		}
		w.Header().Set("X-Odcfp-Accused", strconv.Itoa(accused))
		if accused > 0 {
			mTraceAccusations.Add(int64(accused))
		} else {
			mTraceMisses.Inc()
		}
		mTraces.Inc()
		if !wantScores {
			writeBody(w, http.StatusOK, resp.AppendJSON(nil))
			return nil
		}
		// A score body is Θ(buyers): stream it, with no Content-Length.
		// Once the status is sent a failed write cannot be answered; the
		// client sees a truncated chunked body.
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		resp.WriteTo(w)
		return nil
	})
}

// handleHealth implements GET /healthz.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	resp := HealthResponse{
		Status:         "ok",
		Designs:        s.NumDesigns(),
		CachedAnalyses: s.cache.len(),
		InFlight:       s.InFlight(),
		Workers:        s.pool.Workers(),
	}
	status := http.StatusOK
	if s.draining.Load() {
		resp.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
}

// runtimeMetrics are the Go runtime's figures /metrics reports beside the
// obs snapshot, read through runtime/metrics: allocation and GC decide
// much of a large registry's per-request CPU. They are not obs metrics,
// so run reports leave them out.
var runtimeMetrics = []struct {
	name, sample string
	kind         obs.MetricKind
}{
	{"go.alloc_bytes", "/gc/heap/allocs:bytes", obs.KindCounter},
	{"go.gc_cpu_ns", "/cpu/classes/gc/total:cpu-seconds", obs.KindCounter},
	{"go.gc_cycles", "/gc/cycles/total:gc-cycles", obs.KindCounter},
	{"go.heap_goal_bytes", "/gc/heap/goal:bytes", obs.KindGauge},
}

// handleMetrics implements GET /metrics: the full obs snapshot plus
// runtimeMetrics as JSON, sorted by name.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := obs.Snapshot(false)
	samples := make([]metrics.Sample, len(runtimeMetrics))
	for i, m := range runtimeMetrics {
		samples[i].Name = m.sample
	}
	metrics.Read(samples)
	for i, m := range runtimeMetrics {
		v := samples[i].Value
		n := int64(0)
		switch v.Kind() {
		case metrics.KindUint64:
			n = int64(v.Uint64())
		case metrics.KindFloat64: // the GC CPU, in seconds
			n = int64(v.Float64() * 1e9)
		}
		snap = append(snap, obs.MetricSnapshot{Name: m.name, Kind: m.kind, Nondet: true, Value: n})
	}
	slices.SortFunc(snap, func(x, y obs.MetricSnapshot) int { return strings.Compare(x.Name, y.Name) })
	writeJSON(w, http.StatusOK, snap)
}

// mint is the one issuance path: /issue, each chunk of a synchronous batch
// and each chunk of an async job mint through it. Under the design lock it
// reserves every buyer's value (embedding the copies when materialize or
// verify is set) and appends the fresh records through the registry store
// in one append — one fsynced WAL write or registry snapshot for the whole
// batch, the amortization that makes batch minting fast — retrying
// transient failures with backoff. A failed append releases the
// reservations before the lock is dropped, so the in-memory registry never
// holds a record the store lacks. Only then, outside the lock, is each copy
// verified; labels[i] is copy i's X-Odcfp-Verified label, "" with verify
// off.
//
// Appending before verifying is what lets a concurrent request trust the
// registry: whoever finds a buyer already recorded — another /issue, or a
// batch re-minting it — finds a durable record, never a reservation that a
// failing verification might still take back. A copy that fails
// verification therefore stays recorded but is not acknowledged; a retry
// re-mints the same copy.
//
// With materialize and verify both off no netlist is embedded at all: the
// recorded values are themselves complete acknowledgements, and each copy
// is materialized deterministically when its buyer fetches it. Async jobs
// without verification run this way, which is what makes fleet-scale
// minting an order of magnitude faster than embedding every copy.
func (s *Server) mint(ctx context.Context, d *design, a *core.Analysis, buyers []string, verify, materialize bool) ([]registry.BatchItem, []string, error) {
	d.mu.Lock()
	reg, err := s.ensureRegistryLocked(d, a)
	var items []registry.BatchItem
	if err == nil {
		if materialize || verify {
			items, err = reg.IssueBatch(ctx, a, buyers)
		} else {
			items, err = reg.IssueBatchValues(ctx, a, buyers)
		}
	}
	if err == nil {
		if err = s.appendRecords(ctx, d, reg, items); err != nil {
			reg.ReleaseItems(items)
		}
	}
	d.mu.Unlock()
	if err != nil {
		return nil, nil, err
	}
	labels := make([]string, len(items))
	if verify {
		for i := range items {
			if labels[i], err = s.verifyIssued(ctx, a, items[i]); err != nil {
				return nil, nil, err
			}
		}
	}
	mIssues.Add(int64(len(items)))
	return items, labels, nil
}

// issueError maps a mint failure onto an HTTP status; op prefixes the
// message of a rejected issuance ("issue", "batch issue").
func issueError(ctx context.Context, op string, err error) error {
	var ae *apiError
	if errors.As(err, &ae) {
		return ae
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}
	if isTransient(err) {
		// The durable store gave out even after retries: nothing was
		// acknowledged; the client should retry later.
		return apiErrorf(http.StatusServiceUnavailable, "store unavailable: %v", err)
	}
	if errors.Is(err, core.ErrNonconforming) {
		// The copy is not an instance of the certified slot model: refused
		// as an inequivalent copy is.
		return apiErrorf(http.StatusInternalServerError, "%s: %v", op, err)
	}
	return apiErrorf(http.StatusConflict, "%s: %v", op, err)
}

// appendRecords persists the fresh records among items through the registry
// store, retrying transient failures with backoff; the caller holds d.mu.
// Re-issues (no fresh records) return immediately — the records are already
// durable, so an idempotent mint is a pure read. The design's registry
// sequence advances only when d.reg is still the registry the records were
// reserved in; otherwise a reload already superseded it and the next
// ensureRegistryLocked picks the appended records up from the store.
func (s *Server) appendRecords(ctx context.Context, d *design, reg *registry.Registry, items []registry.BatchItem) error {
	recs := make([]registrystore.Record, 0, len(items))
	for i := range items {
		if items[i].Fresh {
			recs = append(recs, registrystore.Record{Buyer: items[i].Buyer, Value: items[i].Value.String()})
		}
	}
	if len(recs) == 0 {
		return nil
	}
	return s.retryStore(ctx, func() error {
		seq, err := s.regstore.Append(ctx, d.digest, reg, recs)
		if err == nil && d.reg == reg {
			d.regSeq = seq
		}
		return err
	})
}
