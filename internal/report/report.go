// Package report defines the machine-readable manifest (RunReport) that
// cmd/experiments and cmd/benchverify emit with -report, and renders
// manifests back into the Markdown sections recorded in EXPERIMENTS.md.
//
// A manifest captures everything needed to audit a run after the fact:
// the tool and its flags, build identity (git revision, Go version), wall
// times per stage and per span (the per-circuit timings come from the
// internal/obs spans the experiment sweeps open around each circuit), the
// full internal/obs metrics snapshot, the measured table rows themselves,
// and — for benchverify — the equivalence verdicts.
//
// Two invariants matter:
//
//  1. Emitting a manifest never perturbs the run: stdout stays
//     byte-identical with and without -report (enforced by the golden test
//     in cmd/experiments).
//  2. Under -deterministic every wall-clock-derived field (timestamps,
//     durations, Nondet-marked metrics) is zeroed, so two runs with the
//     same flags produce byte-identical manifests — the basis for golden
//     manifest testing.
//
// Rendering reuses the experiments.Format* functions, so a rendered table
// row is byte-for-byte the row a live run prints (and the row committed in
// EXPERIMENTS.md).
package report

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
)

// Schema identifies the manifest layout; bump on incompatible change.
const Schema = "odcfp.runreport/v1"

// RunReport is the manifest. All duration fields are zero when
// Deterministic is set.
type RunReport struct {
	Schema        string `json:"schema"`
	Tool          string `json:"tool"`
	Deterministic bool   `json:"deterministic"`
	GitRev        string `json:"git_rev,omitempty"`
	GoVersion     string `json:"go_version,omitempty"`
	// Start is the run's RFC3339 start time; empty under -deterministic.
	Start string `json:"start,omitempty"`
	// Flags records every CLI flag with its effective value.
	Flags map[string]string `json:"flags,omitempty"`
	// Stages are the tool's coarse phases in execution order.
	Stages []Stage `json:"stages,omitempty"`
	// Metrics is the internal/obs snapshot at the end of the run, sorted
	// by name; Nondet metrics are zeroed under -deterministic.
	Metrics []obs.MetricSnapshot `json:"metrics,omitempty"`
	// Spans are the traced regions (session builds, per-circuit cells of
	// the experiment sweeps, ...). Sorted by start time, or by name with
	// zeroed times under -deterministic.
	Spans []Span `json:"spans,omitempty"`
	// Tables holds the measured rows behind the rendered tables.
	Tables *Tables `json:"tables,omitempty"`
	// Verify is benchverify's verdict summary.
	Verify *VerifySummary `json:"verify,omitempty"`
}

// Stage is one coarse phase of a run with its wall time.
type Stage struct {
	Name   string  `json:"name"`
	WallMS float64 `json:"wall_ms"`
}

// Span is the JSON form of an obs.SpanRecord; times are microseconds
// relative to the run start.
type Span struct {
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"`
	DurUS   int64  `json:"dur_us"`
	Depth   int    `json:"depth"`
}

// Tables carries the measured experiment rows. Exactly the sections the
// run produced are non-nil.
type Tables struct {
	Table2     []experiments.Table2Row `json:"table2,omitempty"`
	Table3     []experiments.Table3Row `json:"table3,omitempty"`
	Fig7       *experiments.Fig7Series `json:"fig7,omitempty"`
	E7         []experiments.E7Row     `json:"e7,omitempty"`
	E7Budget   float64                 `json:"e7_budget,omitempty"`
	E14Circuit string                  `json:"e14_circuit,omitempty"`
	E14        []experiments.E14Point  `json:"e14,omitempty"`
}

// VerifySummary is benchverify's outcome: N copies checked through the
// window certificates, the incremental session and the one-shot baseline,
// and whether they agreed.
type VerifySummary struct {
	Circuit       string  `json:"circuit"`
	Gates         int     `json:"gates"`
	Copies        int     `json:"copies"`
	WindowSecs    float64 `json:"window_secs"`
	SessionSecs   float64 `json:"session_secs"`
	ColdSecs      float64 `json:"cold_secs"`
	Speedup       float64 `json:"speedup"`
	VerdictsMatch bool    `json:"verdicts_match"`
	AllEquivalent bool    `json:"all_equivalent"`
}

// Builder accumulates a RunReport over the course of a CLI run. Creating
// one resets and enables the internal/obs sinks; Finish snapshots them.
type Builder struct {
	r  RunReport
	t0 time.Time
}

// NewBuilder starts a manifest for tool. It resets all obs metrics and
// turns span tracing on, so the manifest covers exactly this run.
func NewBuilder(tool string, deterministic bool) *Builder {
	obs.Reset()
	obs.Enable(true)
	b := &Builder{t0: time.Now()}
	b.r.Schema = Schema
	b.r.Tool = tool
	b.r.Deterministic = deterministic
	b.r.GitRev = vcsRevision()
	b.r.GoVersion = runtime.Version()
	if !deterministic {
		b.r.Start = b.t0.UTC().Format(time.RFC3339)
	}
	return b
}

// vcsRevision returns the VCS revision stamped into the binary, if any.
// go test / go run builds are typically unstamped; the field is then
// omitted, which is itself deterministic.
func vcsRevision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	for _, s := range info.Settings {
		if s.Key == "vcs.revision" {
			return s.Value
		}
	}
	return ""
}

// Flags records every flag of fs (set or defaulted) with its effective
// value, in lexicographic order.
func (b *Builder) Flags(fs *flag.FlagSet) {
	b.r.Flags = make(map[string]string)
	fs.VisitAll(func(f *flag.Flag) { b.r.Flags[f.Name] = f.Value.String() })
}

// Stage appends a phase that began at start and ends now.
func (b *Builder) Stage(name string, start time.Time) {
	st := Stage{Name: name}
	if !b.r.Deterministic {
		st.WallMS = float64(time.Since(start).Microseconds()) / 1e3
	}
	b.r.Stages = append(b.r.Stages, st)
}

// Tables returns the manifest's table container, allocating it on first use.
func (b *Builder) Tables() *Tables {
	if b.r.Tables == nil {
		b.r.Tables = &Tables{}
	}
	return b.r.Tables
}

// SetVerify attaches benchverify's summary; durations are zeroed under
// -deterministic.
func (b *Builder) SetVerify(v VerifySummary) {
	if b.r.Deterministic {
		v.WindowSecs, v.SessionSecs, v.ColdSecs, v.Speedup = 0, 0, 0, 0
	}
	b.r.Verify = &v
}

// Finish snapshots the obs metrics and spans into the manifest and returns
// it. Call once, after all stages completed.
func (b *Builder) Finish() *RunReport {
	b.r.Metrics = obs.Snapshot(b.r.Deterministic)
	recs := obs.DrainSpans()
	spans := make([]Span, 0, len(recs))
	for _, rec := range recs {
		sp := Span{Name: rec.Name, Depth: rec.Depth}
		if !b.r.Deterministic {
			sp.StartUS = rec.Start.Sub(b.t0).Microseconds()
			sp.DurUS = rec.Dur.Microseconds()
		}
		spans = append(spans, sp)
	}
	if b.r.Deterministic {
		// Start times are zeroed, so re-sort into a scheduling-independent
		// order: by name, then depth.
		sort.Slice(spans, func(i, j int) bool {
			if spans[i].Name != spans[j].Name {
				return spans[i].Name < spans[j].Name
			}
			return spans[i].Depth < spans[j].Depth
		})
	}
	b.r.Spans = spans
	return &b.r
}

// WriteFile marshals the manifest as indented JSON to path.
func (r *RunReport) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadFile loads and validates a manifest.
func ReadFile(path string) (*RunReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r RunReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("report: %s: %w", path, err)
	}
	if r.Schema != Schema {
		return nil, fmt.Errorf("report: %s: schema %q, want %q", path, r.Schema, Schema)
	}
	return &r, nil
}
