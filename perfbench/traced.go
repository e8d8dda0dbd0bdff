package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/big"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"

	"repro/internal/attack"
	"repro/internal/benchfmt"
	"repro/internal/cell"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/registry"
	"repro/internal/registrystore"
)

// Layer names: each is a public call the daemon's handlers make, timed from
// outside by the traced run. Medians of these become <name>_ms; the calls
// marked with allocation tracking also report <name>_alloc_kb.
const (
	lParse       = "benchfmt.parse"
	lWrite       = "benchfmt.write"
	lDigest      = "registry.digest"
	lIssue       = "registry.issue"
	lTraceExact  = "registry.trace_exact"
	lTraceScores = "registry.trace_scores"
	lAppend      = "registrystore.append"
	lLoad        = "registrystore.load"
	lAnalyze     = "core.analyze"
	lSession     = "core.session"
	lVerify      = "core.verify"
)

// mintChunk is the daemon's default batch chunk: the preseed job reserves
// this many values per registry write.
const mintChunk = 64

// layerTimes holds per-call samples of the traced run.
type layerTimes struct {
	ms, allocKB map[string][]float64
	// mintMsPerCopy is IssueBatchValues time per copy, one sample per chunk.
	mintMsPerCopy []float64
	// appendKB is the registry file size each Append leaves.
	appendKB []float64
	tally
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func heapAllocs() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// time runs fn once, recording its wall time and, with alloc, the heap
// bytes it allocated.
func (lt *layerTimes) time(name string, alloc bool, fn func() error) error {
	var a0 uint64
	if alloc {
		a0 = heapAllocs()
	}
	t := time.Now()
	err := fn()
	d := time.Since(t)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	lt.ms[name] = append(lt.ms[name], float64(d)/float64(time.Millisecond))
	if alloc {
		lt.allocKB[name] = append(lt.allocKB[name], float64(heapAllocs()-a0)/1024)
	}
	return nil
}

// designState is one uploaded design as the handlers hold it.
type designState struct {
	digest string
	a      *core.Analysis
	reg    *registry.Registry
	// verified is set once the analysis's shared verifier (and with it the
	// CEC session) has been built.
	verified bool
}

// tracer replays a workload's seeded steps in-process through the same
// public functions the odcfpd handlers call, timing each call.
type tracer struct {
	ctx    context.Context
	w      *workload
	plan   *plan
	lt     *layerTimes
	store  *registrystore.Local
	dir    string
	design []byte
	main   *designState
	copies []tracedCopy
}

type tracedCopy struct {
	ds      *designState
	buyer   string
	netlist []byte
}

// upload is the daemon's upload pipeline: parse, validate, sweep + analyse
// (timed as core.analyze), digest.
func (t *tracer) upload(netlist []byte) (*designState, error) {
	c, err := benchfmt.Parse(bytes.NewReader(netlist))
	if err != nil {
		return nil, err
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	var a *core.Analysis
	if err := t.lt.time(lAnalyze, false, func() (err error) {
		swept, _ := c.Sweep()
		a, err = core.AnalyzeCtx(t.ctx, swept, core.DefaultOptions(cell.Default()))
		return err
	}); err != nil {
		return nil, err
	}
	return &designState{digest: registry.DesignDigest(a), a: a}, nil
}

// registryOf loads (or creates) the design's registry from the store.
func (t *tracer) registryOf(ds *designState) error {
	if ds.reg != nil {
		return nil
	}
	reg, _, err := t.store.Load(ds.digest, ds.a)
	ds.reg = reg
	return err
}

// issue is the /issue handler's path: reserve + embed, durable append,
// optional verification, encode.
func (t *tracer) issue(ds *designState, buyer string, verify bool) error {
	if err := t.registryOf(ds); err != nil {
		return err
	}
	var items []registry.BatchItem
	if err := t.lt.time(lIssue, true, func() (err error) {
		items, err = ds.reg.IssueBatch(t.ctx, ds.a, []string{buyer})
		return err
	}); err != nil {
		return err
	}
	recs := []registrystore.Record{{Buyer: buyer, Value: items[0].Value.String()}}
	if err := t.lt.time(lAppend, false, func() error {
		_, err := t.store.Append(t.ctx, ds.digest, ds.reg, recs)
		return err
	}); err != nil {
		return err
	}
	fi, err := os.Stat(filepath.Join(t.dir, ds.digest+".registry.json"))
	if err != nil {
		return err
	}
	t.lt.appendKB = append(t.lt.appendKB, float64(fi.Size())/1024)
	if verify {
		if err := t.verify(ds, items[0].Value.String()); err != nil {
			return err
		}
	}
	var buf bytes.Buffer
	if err := t.lt.time(lWrite, false, func() error { return benchfmt.Write(&buf, items[0].Circuit) }); err != nil {
		return err
	}
	t.copies = append(t.copies, tracedCopy{ds: ds, buyer: buyer, netlist: buf.Bytes()})
	return nil
}

// verify proves the copy with the given value equivalent through the
// analysis's shared verifier; the first call on an analysis builds the CEC
// session and is timed as core.session, later calls as core.verify.
func (t *tracer) verify(ds *designState, value string) error {
	v, ok := new(big.Int).SetString(value, 10)
	if !ok {
		return fmt.Errorf("bad fingerprint value %q", value)
	}
	asg, err := ds.a.AssignmentFromInt(v)
	if err != nil {
		return err
	}
	name := lVerify
	if !ds.verified {
		name = lSession
		ds.verified = true
	}
	var eq bool
	if err := t.lt.time(name, false, func() error {
		verdict, err := ds.a.SharedVerifier().VerifyCtx(t.ctx, asg)
		eq = verdict.Equivalent
		return err
	}); err != nil {
		return err
	}
	t.lt.check(boolErr(eq, "issued copy not equivalent"))
	return nil
}

// parse decodes a suspect netlist as the /trace handler does.
func (t *tracer) parse(netlist []byte) (*circuit.Circuit, error) {
	var s *circuit.Circuit
	err := t.lt.time(lParse, true, func() (err error) {
		s, err = benchfmt.Parse(bytes.NewReader(netlist))
		return err
	})
	return s, err
}

// trace is the exact-trace path; the design digest TraceExact re-derives
// is also timed on its own.
func (t *tracer) trace(cp tracedCopy) error {
	s, err := t.parse(cp.netlist)
	if err != nil {
		return err
	}
	if err := t.lt.time(lDigest, false, func() error {
		if registry.DesignDigest(cp.ds.a) != cp.ds.digest {
			return errors.New("digest changed")
		}
		return nil
	}); err != nil {
		return err
	}
	var got string
	if err := t.lt.time(lTraceExact, false, func() (err error) {
		got, err = cp.ds.reg.TraceExact(cp.ds.a, s)
		return err
	}); err != nil {
		t.lt.check(err)
		return nil
	}
	t.lt.check(boolErr(got == cp.buyer, fmt.Sprintf("exact trace named %q, want %q", got, cp.buyer)))
	return nil
}

// scores is the score-mode trace path with the handler's accusation rule.
func (t *tracer) scores(cp tracedCopy) error {
	s, err := t.parse(cp.netlist)
	if err != nil {
		return err
	}
	var sc []attack.Score
	if err := t.lt.time(lTraceScores, true, func() (err error) {
		sc, err = cp.ds.reg.TraceScores(cp.ds.a, s)
		return err
	}); err != nil {
		return err
	}
	implicated := false
	if !attack.FullRemoval(sc) {
		for _, x := range sc {
			if x.Name == cp.buyer && x.TotalPresent > 0 && x.Fraction() >= 1 {
				implicated = true
			}
		}
	}
	t.lt.check(boolErr(implicated, fmt.Sprintf("score trace did not implicate %q", cp.buyer)))
	return nil
}

func (t *tracer) pick(p uint64) tracedCopy {
	return t.copies[pickIndex(p, len(t.copies), t.w.pickWindow)]
}

// step replays one planned unit.
func (t *tracer) step(s step) error {
	switch s.kind {
	case stepIssueTrace, stepIssueTraceScores:
		if err := t.issue(t.main, s.buyer, t.w.verify); err != nil {
			return err
		}
		cp := t.copies[len(t.copies)-1]
		if err := t.trace(cp); err != nil {
			return err
		}
		if s.kind == stepIssueTraceScores {
			return t.scores(cp)
		}
	case stepOnboard:
		ds, err := t.upload(renameVariant(t.design, t.plan.variantName(s.variant)))
		if err != nil {
			return err
		}
		return t.issue(ds, s.buyer, t.w.verify)
	case stepTrace:
		return t.trace(t.pick(s.pick))
	case stepScores:
		return t.scores(t.pick(s.pick))
	case stepUpload:
		ds, err := t.upload(renameVariant(t.design, t.plan.variantName(s.variant)))
		if err != nil {
			return err
		}
		t.lt.check(boolErr(ds.digest != t.main.digest, "a renamed variant kept the design's digest"))
	}
	return nil
}

// setup mirrors the end-to-end set-up: upload, preseed (timed per chunk as
// registry.mint), one durable append of the seeded registry, and the first
// verified issue.
func (t *tracer) setup(preseed int) error {
	design := t.design
	if t.w.name == "onboard" {
		design = renameVariant(t.design, t.plan.variantName(0))
	}
	ds, err := t.upload(design)
	if err != nil {
		return err
	}
	t.main = ds
	if err := t.registryOf(ds); err != nil {
		return err
	}
	if preseed > 0 {
		if err := t.mint(ds.reg, ds, t.plan.seedPrefix(), preseed); err != nil {
			return err
		}
		if _, err := t.store.Append(t.ctx, ds.digest, ds.reg, nil); err != nil {
			return err
		}
	}
	return t.issue(ds, t.plan.setupBuyer(), true)
}

// mint reserves n generated buyers in daemon-sized chunks.
func (t *tracer) mint(reg *registry.Registry, ds *designState, prefix string, n int) error {
	for lo := 0; lo < n; lo += mintChunk {
		hi := min(lo+mintChunk, n)
		buyers := make([]string, 0, hi-lo)
		for i := lo; i < hi; i++ {
			buyers = append(buyers, fmt.Sprintf("%s%05d", prefix, i))
		}
		t0 := time.Now()
		if _, err := reg.IssueBatchValues(t.ctx, ds.a, buyers); err != nil {
			return err
		}
		t.lt.mintMsPerCopy = append(t.lt.mintMsPerCopy,
			float64(time.Since(t0))/float64(time.Millisecond)/float64(len(buyers)))
	}
	return nil
}

// topUp calls fn until the layer has n samples.
func (t *tracer) topUp(name string, n int, fn func() error) error {
	for len(t.lt.ms[name]) < n {
		if err := fn(); err != nil {
			return err
		}
	}
	return nil
}

// runTraced replays the first steps of the workload's seeded mix
// in-process, then tops up every layer to at least reps samples with direct
// calls, so every per-layer metric exists on every workload.
func runTraced(w *workload, cfg config, seed int64, steps, reps int) (*layerTimes, error) {
	design, err := designNetlist(w.circuit)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workDir, w.name+"-traced-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	store, err := registrystore.OpenLocal(dir)
	if err != nil {
		return nil, err
	}
	defer store.Close()
	lt := &layerTimes{ms: map[string][]float64{}, allocKB: map[string][]float64{}}
	t := &tracer{ctx: context.Background(), w: w, plan: newPlan(w, seed), lt: lt,
		store: store, dir: dir, design: design}
	preseed := w.preseed
	if cfg.preseed > 0 {
		preseed = cfg.preseed
	}
	if err := t.setup(preseed); err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	for _, s := range t.plan.mixSteps(steps) {
		if err := t.step(s); err != nil {
			return nil, fmt.Errorf("traced replay: %w", err)
		}
		if win := w.pickWindow; len(t.copies) > 2*win {
			// Older copies are never picked again; dropping them frees
			// their designs' analyses and sessions.
			t.copies = append(t.copies[:0], t.copies[len(t.copies)-win:]...)
		}
	}
	// Top-ups, on the main design unless a layer needs fresh state.
	newBuyer := func() error { return t.issue(t.main, t.plan.nextBuyer(), true) }
	tops := []struct {
		name string
		fn   func() error
	}{
		{lIssue, newBuyer},
		{lVerify, newBuyer},
		{lTraceExact, func() error { return t.trace(t.copies[len(t.copies)-1]) }},
		{lTraceScores, func() error { return t.scores(t.copies[len(t.copies)-1]) }},
		{lAnalyze, func() error { _, err := t.upload(t.design); return err }},
		{lSession, func() error {
			ds, err := t.upload(t.design)
			if err != nil {
				return err
			}
			v, _ := t.main.reg.Value(t.plan.setupBuyer())
			return t.verify(ds, v)
		}},
		{lLoad, func() error {
			return t.lt.time(lLoad, false, func() error {
				_, _, err := t.store.Load(t.main.digest, t.main.a)
				return err
			})
		}},
	}
	for _, tu := range tops {
		if err := t.topUp(tu.name, reps, tu.fn); err != nil {
			return nil, fmt.Errorf("traced %s: %w", tu.name, err)
		}
	}
	for len(lt.mintMsPerCopy) < reps {
		scratch := registry.New(t.main.a)
		if err := t.mint(scratch, t.main, "mint-"+t.plan.tag+"-", reps*mintChunk); err != nil {
			return nil, err
		}
	}
	return lt, nil
}

func boolErr(ok bool, msg string) error {
	if ok {
		return nil
	}
	return errors.New(msg)
}
