package report

import (
	"fmt"
	"strings"

	"repro/internal/experiments"
	"repro/internal/obs"
)

// Render turns a manifest into Markdown: one heading per table with the
// aligned text table in a fenced code block, then the run's stages, span
// summary and metrics. Table bodies come from the same experiments.Format*
// functions the CLI prints with, so a rendered row is byte-identical to
// the corresponding row in EXPERIMENTS.md — the tables there are
// regenerated with this renderer, never edited by hand.
func Render(r *RunReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Run report: %s\n\n", r.Tool)
	fmt.Fprintf(&b, "- schema: `%s`\n", r.Schema)
	if r.GitRev != "" {
		fmt.Fprintf(&b, "- git: `%s`\n", r.GitRev)
	}
	if r.GoVersion != "" {
		fmt.Fprintf(&b, "- go: `%s`\n", r.GoVersion)
	}
	if r.Start != "" {
		fmt.Fprintf(&b, "- start: %s\n", r.Start)
	}
	if r.Deterministic {
		b.WriteString("- deterministic: all wall-clock fields zeroed\n")
	}
	if len(r.Flags) > 0 {
		b.WriteString("- flags:")
		for _, name := range sortedKeys(r.Flags) {
			fmt.Fprintf(&b, " `-%s=%s`", name, r.Flags[name])
		}
		b.WriteString("\n")
	}

	if t := r.Tables; t != nil {
		if len(t.Table2) > 0 {
			section(&b, "Table II: full fingerprinting (measured vs paper)",
				experiments.FormatTable2(t.Table2))
		}
		if len(t.Table3) > 0 {
			section(&b, "Table III: reactive delay-constrained heuristic (averages, measured vs paper)",
				experiments.FormatTable3(t.Table3))
		}
		if t.Fig7 != nil {
			section(&b, "Fig. 7: fingerprint sizes before/after delay constraints",
				experiments.FormatFig7(t.Fig7))
		}
		if len(t.E7) > 0 {
			section(&b, "E7 (extension): proactive vs reactive heuristic",
				experiments.FormatE7(t.E7, t.E7Budget))
		}
		if len(t.E14) > 0 {
			section(&b, "E14 (extension): tracing robustness vs tampering",
				experiments.FormatE14(t.E14Circuit, t.E14))
		}
	}

	if v := r.Verify; v != nil {
		fmt.Fprintf(&b, "\n## Verification baseline\n\n")
		fmt.Fprintf(&b, "| circuit | gates | copies | windows (s) | session (s) | cold (s) | speedup | verdicts match | all equivalent |\n")
		fmt.Fprintf(&b, "|---|---|---|---|---|---|---|---|---|\n")
		fmt.Fprintf(&b, "| %s | %d | %d | %.2f | %.2f | %.2f | %.1f | %v | %v |\n",
			v.Circuit, v.Gates, v.Copies, v.WindowSecs, v.SessionSecs, v.ColdSecs, v.Speedup,
			v.VerdictsMatch, v.AllEquivalent)
	}

	if len(r.Stages) > 0 {
		b.WriteString("\n## Stages\n\n| stage | wall (ms) |\n|---|---|\n")
		for _, st := range r.Stages {
			fmt.Fprintf(&b, "| %s | %.1f |\n", st.Name, st.WallMS)
		}
	}

	if len(r.Spans) > 0 {
		b.WriteString("\n## Spans\n\n| span | count | total (ms) |\n|---|---|---|\n")
		for _, agg := range aggregateSpans(r.Spans) {
			fmt.Fprintf(&b, "| %s | %d | %.1f |\n", agg.name, agg.count, float64(agg.durUS)/1e3)
		}
	}

	if len(r.Metrics) > 0 {
		b.WriteString("\n## Metrics\n\n| metric | kind | value |\n|---|---|---|\n")
		for _, m := range r.Metrics {
			fmt.Fprintf(&b, "| %s | %s | %s |\n", m.Name, m.Kind, metricValue(m))
		}
	}
	return b.String()
}

func section(b *strings.Builder, title, body string) {
	fmt.Fprintf(b, "\n## %s\n\n```\n%s```\n", title, body)
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ { // insertion sort; flag sets are tiny
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

type spanAgg struct {
	name  string
	count int
	durUS int64
}

// aggregateSpans folds raw spans into per-name totals, preserving first-seen
// order (which is start order for live manifests, name order for
// deterministic ones).
func aggregateSpans(spans []Span) []spanAgg {
	idx := make(map[string]int)
	var out []spanAgg
	for _, s := range spans {
		i, ok := idx[s.Name]
		if !ok {
			i = len(out)
			idx[s.Name] = i
			out = append(out, spanAgg{name: s.Name})
		}
		out[i].count++
		out[i].durUS += s.DurUS
	}
	return out
}

func metricValue(m obs.MetricSnapshot) string {
	if m.Kind == obs.KindHistogram {
		return fmt.Sprintf("n=%d, buckets=%v", m.Count, m.Buckets)
	}
	return fmt.Sprintf("%d", m.Value)
}
