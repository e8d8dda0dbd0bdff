package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// config carries the settings of one benchmark run.
type config struct {
	daemonBin  string
	workDir    string
	seconds    float64
	gomaxprocs int
	// recoveries is how many kill -9/restart cycles end the run, each
	// checking recoverySample acknowledged copies.
	recoveries, recoverySample int
	// setups and preseed override the workload's when > 0 (tests).
	setups, preseed int
	// minSteps is the fewest mix steps a run makes: each puts one sample
	// into the issue p90. traceProbes and medianProbes are the probes per
	// kind: exact traces feed a p90, score traces and uploads a median.
	// medianProbes is six times the 20 a median needs: a score trace's cost
	// grows with the registry, which grows through interactive's phase, so
	// the median of the score traces spread over it rests on the few near
	// its middle; and the uploads, made after the phase, sample the host
	// over a second or two only.
	minSteps, traceProbes, medianProbes int
}

// maxPhase caps the timed phase at this multiple of the time its steps
// took on the reference machine: a slower host fails the run.
const maxPhase = 3

func defaultConfig() config {
	return config{
		gomaxprocs: 2, recoveries: 21, recoverySample: 3,
		minSteps: minSamples(0.9), traceProbes: minSamples(0.9), medianProbes: 6 * minSamples(0.5),
	}
}

// probes is how many probes of kind k a run makes.
func (c config) probes(k stepKind) int {
	if k == stepTrace {
		return c.traceProbes
	}
	return c.medianProbes
}

// copyRec is one acknowledged copy the client kept for later traces.
type copyRec struct {
	digest, buyer string
	netlist       []byte
}

// e2eResult is what the end-to-end run measured.
type e2eResult struct {
	tally
	setup, recover  []float64            // seconds per cold start / recovery
	lat             map[string][]float64 // round trips per op, ms
	cpu             map[string][]float64 // daemon CPU per request, ms
	steps           int                  // mix steps of the timed phase
	ops             int                  // completed mix requests in the timed phase
	probeOps        int                  // completed probe requests in the timed phase
	elapsed         float64              // timed phase, seconds
	cpuTicks        int64                // daemon CPU over the timed phase
	probeCPUms      float64              // daemon CPU charged to its probe requests
	peakRSSKB       int64                // daemon VmHWM after the timed phase
	counters        map[string]int64     // daemon /metrics after the timed phase
	scoresRespBytes []float64
}

// runner executes a plan against one daemon at a time.
type runner struct {
	w      *workload
	cfg    config
	plan   *plan
	dir    string
	d      *daemon
	c      *client
	res    *e2eResult
	design []byte
	digest string
	copies []copyRec
	// after holds the probes that run once the timed phase has been read;
	// probing is set while a probe step inside the timed phase runs.
	after   []step
	probing bool
}

// tally counts checked operations and keeps the first failures.
type tally struct {
	attempted, failed int
	failures          []string
}

// check counts one checked operation; a non-nil err is a failure.
func (t *tally) check(err error) bool {
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.failures) < 10 {
			t.failures = append(t.failures, err.Error())
		}
		return false
	}
	return true
}

// timed runs one request of the timed phase (fn makes exactly one client
// call) and, when it passes its checks, records its round trip and the
// daemon CPU time spent between sending it and reading the answer.
func (r *runner) timed(op string, fn func() error) bool {
	cpu0, err := r.d.cpuNS()
	if err == nil {
		err = fn()
	}
	var cpu1 int64
	if err == nil {
		cpu1, err = r.d.cpuNS()
	}
	if !r.res.check(err) {
		return false
	}
	ms := float64(cpu1-cpu0) / 1e6
	r.res.lat[op] = append(r.res.lat[op], float64(r.c.rtt)/float64(time.Millisecond))
	r.res.cpu[op] = append(r.res.cpu[op], ms)
	if r.probing {
		r.res.probeOps++
		r.res.probeCPUms += ms
	}
	return true
}

// keep records an acknowledged copy. Only the newest copies are kept: the
// traces pick among the workload's window and the recoveries sample the
// kept ones, which bounds the client's memory on long runs.
func (r *runner) keep(cp copyRec) {
	r.copies = append(r.copies, cp)
	if win := r.w.pickWindow; len(r.copies) > 2*win {
		r.copies = append(r.copies[:0], r.copies[len(r.copies)-win:]...)
	}
}

func (r *runner) preseed() int {
	if r.cfg.preseed > 0 {
		return r.cfg.preseed
	}
	return r.w.preseed
}

func (r *runner) setups() int {
	if r.cfg.setups > 0 {
		return r.cfg.setups
	}
	return r.w.setups
}

// setupOnce cold-starts a daemon on an empty store: exec, upload, preseed,
// then one verified issue so the CEC session is built before timing.
func (r *runner) setupOnce(dir string) (float64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	t0 := time.Now()
	d, err := startDaemon(r.cfg.daemonBin, filepath.Join(dir, "store"), filepath.Join(dir, "daemon.log"), r.cfg.gomaxprocs)
	if !r.res.check(err) {
		return 0, err
	}
	r.d = d
	r.c.reset(d.base)
	design := r.design
	if r.w.name == "onboard" {
		design = renameVariant(r.design, r.plan.variantName(0))
	}
	digest, err := r.c.upload(design)
	if !r.res.check(err) {
		return 0, fmt.Errorf("set-up upload: %w", err)
	}
	r.digest = digest
	if n := r.preseed(); n > 0 {
		if err := r.c.seedBuyers(digest, r.plan.seedPrefix(), n); !r.res.check(err) {
			return 0, fmt.Errorf("set-up preseed: %w", err)
		}
	}
	buyer := r.plan.setupBuyer()
	cp, err := r.c.issue(digest, buyer, true)
	if !r.res.check(err) {
		return 0, fmt.Errorf("set-up issue: %w", err)
	}
	dt := time.Since(t0).Seconds()
	r.copies = []copyRec{{digest: digest, buyer: buyer, netlist: cp}}
	return dt, nil
}

// runStep executes one planned unit.
func (r *runner) runStep(s step) {
	switch s.kind {
	case stepIssueTrace, stepIssueTraceScores:
		var cp []byte
		if !r.timed("issue", func() (err error) {
			cp, err = r.c.issue(r.digest, s.buyer, r.w.verify)
			return err
		}) {
			return
		}
		t := copyRec{digest: r.digest, buyer: s.buyer, netlist: cp}
		r.keep(t)
		r.timed("trace", func() error { return r.c.trace(t.digest, t.netlist, t.buyer) })
		if s.kind == stepIssueTraceScores {
			r.scores(t)
		}
	case stepOnboard:
		var digest string
		if !r.timed("upload", func() (err error) {
			digest, err = r.c.upload(renameVariant(r.design, r.plan.variantName(s.variant)))
			return err
		}) {
			return
		}
		var cp []byte
		if !r.timed("issue", func() (err error) {
			cp, err = r.c.issue(digest, s.buyer, r.w.verify)
			return err
		}) {
			return
		}
		r.keep(copyRec{digest: digest, buyer: s.buyer, netlist: cp})
	case stepTrace:
		t := r.copies[pickIndex(s.pick, len(r.copies), r.w.pickWindow)]
		r.timed("trace", func() error { return r.c.trace(t.digest, t.netlist, t.buyer) })
	case stepScores:
		r.scores(r.copies[pickIndex(s.pick, len(r.copies), r.w.pickWindow)])
	case stepUpload:
		r.timed("upload", func() error {
			dg, err := r.c.upload(renameVariant(r.design, r.plan.variantName(s.variant)))
			if err == nil && dg == r.digest {
				err = fmt.Errorf("upload of variant %d: digest %s is the design's own", s.variant, dg)
			}
			return err
		})
	}
}

// scores runs a timed score-mode trace of t.
func (r *runner) scores(t copyRec) {
	r.timed("scores", func() error {
		n, err := r.c.scores(t.digest, t.netlist, t.buyer)
		if err == nil {
			r.res.scoresRespBytes = append(r.res.scoresRespBytes, float64(n))
		}
		return err
	})
}

// samples counts the timed requests that passed their checks.
func (r *runner) samples() int {
	n := 0
	for _, xs := range r.res.lat {
		n += len(xs)
	}
	return n
}

// timedPhase runs the workload's fixed number of mix steps in a closed
// loop, with the read-only probes spread among them. The step count, not
// the clock, ends it, so the registry and the analysis cache reach the same
// state on every run; the clock only fails a host too slow to finish in
// maxPhase times the reference machine's time. The probes' requests and
// the CPU charged to them are kept apart from the mix's.
func (r *runner) timedPhase() error {
	cpu0, err := r.d.cpuTicks()
	if err != nil {
		return err
	}
	steps := r.w.mixSteps(r.cfg.seconds, r.cfg.minSteps)
	limit := time.Duration(maxPhase * float64(steps) / r.w.rate * float64(time.Second))
	var timed []step
	timed, r.after = r.plan.schedule(steps, r.cfg.probes)
	t0 := time.Now()
	for _, s := range timed {
		r.probing = s.kind != r.w.mix
		r.runStep(s)
		r.probing = false
		if time.Since(t0) > limit {
			err := fmt.Errorf("timed phase: %d steps took over %.0fs", steps, limit.Seconds())
			r.res.check(err)
			return err
		}
	}
	r.res.elapsed = time.Since(t0).Seconds()
	r.res.steps, r.res.ops = steps, r.samples()-r.res.probeOps
	cpu1, err := r.d.cpuTicks()
	if err != nil {
		return err
	}
	r.res.cpuTicks = cpu1 - cpu0
	if r.res.counters, err = r.c.metrics(); err != nil {
		return fmt.Errorf("reading /metrics: %w", err)
	}
	if r.res.peakRSSKB, err = r.d.peakRSSKB(); err != nil {
		return err
	}
	return nil
}

// probePhase runs the probes that change the daemon's state, after the
// timed phase has been read, so that the phase's registry, cache and
// memory are measured without them.
func (r *runner) probePhase() {
	for _, s := range r.after {
		r.runStep(s)
	}
}

// recoveries kill the daemon with SIGKILL and restart it on the same
// store; recovery time runs from the kill to the first correct trace, and
// a seeded sample of acknowledged copies must still trace to their buyers.
func (r *runner) recoveries() error {
	store := filepath.Join(r.dir, "run", "store")
	for i := 0; i < r.cfg.recoveries; i++ {
		sample := r.plan.recoverySample(r.cfg.recoverySample, len(r.copies))
		t0 := time.Now()
		r.d.kill()
		d, err := startDaemon(r.cfg.daemonBin, store, filepath.Join(r.dir, "run", "daemon.log"), r.cfg.gomaxprocs)
		if !r.res.check(err) {
			return fmt.Errorf("restart %d: %w", i+1, err)
		}
		r.d = d
		r.c.reset(d.base)
		r.traceSample(i+1, sample, t0)
	}
	return nil
}

// traceSample checks that each sampled copy still traces to its buyer
// after restart number cycle; the first correct trace ends the recovery
// that began at t0.
func (r *runner) traceSample(cycle int, sample []int, t0 time.Time) {
	for j, k := range sample {
		cp := r.copies[k]
		err := r.c.trace(cp.digest, cp.netlist, cp.buyer)
		if err != nil {
			err = fmt.Errorf("after restart %d: %w", cycle, err)
		}
		if r.res.check(err) && j == 0 {
			r.res.recover = append(r.res.recover, time.Since(t0).Seconds())
		}
	}
}

// runE2E is the end-to-end half of a run: cold set-ups, the timed phase,
// the probes and kill/restart recoveries against a separate odcfpd process.
// On an error the result so far is returned with it, so that failed checks
// are still reported.
func runE2E(w *workload, cfg config, seed int64) (*e2eResult, error) {
	design, err := designNetlist(w.circuit)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workDir, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := &runner{
		w: w, cfg: cfg, plan: newPlan(w, seed), dir: dir, design: design,
		c:   newClient(""),
		res: &e2eResult{lat: map[string][]float64{}, cpu: map[string][]float64{}},
	}
	defer r.c.close()
	defer func() {
		if r.d != nil {
			r.d.stop()
		}
	}()
	return r.res, r.run()
}

// run makes the cold starts, half before the timed phase (the last of these
// serves the rest of the run) and half after the recoveries, so that their
// median samples the host over the whole run rather than its first seconds.
func (r *runner) run() error {
	setups := r.setups()
	before := (setups + 1) / 2
	for i := 0; i < before-1; i++ {
		if err := r.coldStart(i); err != nil {
			return err
		}
	}
	dt, err := r.setupOnce(filepath.Join(r.dir, "run"))
	if err != nil {
		return err
	}
	r.res.setup = append(r.res.setup, dt)
	if err := r.timedPhase(); err != nil {
		return err
	}
	r.probePhase()
	if err := r.recoveries(); err != nil {
		return err
	}
	r.d.kill()
	r.d = nil
	for i := before - 1; i < setups-1; i++ {
		if err := r.coldStart(i); err != nil {
			return err
		}
	}
	return nil
}

// coldStart times one set-up on a fresh store, then kills the daemon and
// removes the store.
func (r *runner) coldStart(i int) error {
	sub := filepath.Join(r.dir, fmt.Sprintf("setup%d", i))
	dt, err := r.setupOnce(sub)
	if err != nil {
		return err
	}
	r.res.setup = append(r.res.setup, dt)
	r.d.kill()
	r.d = nil
	return os.RemoveAll(sub)
}
