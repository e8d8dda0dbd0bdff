// Package experiments regenerates every table and figure of the paper's
// evaluation section (§V) on the synthetic benchmark suite:
//
//	Table II — per-circuit metrics, fingerprint capacity and overheads of
//	           full fingerprinting (RunTable2);
//	Table III — average overheads after the reactive delay-constrained
//	           heuristic at 10 %/5 %/1 % budgets (RunTable3);
//	Fig. 7  — per-circuit fingerprint sizes before and after constraints
//	           (RunFig7).
//
// The paper's published numbers ship alongside (paperdata.go) so every
// report prints measured-vs-paper, which EXPERIMENTS.md records.
package experiments

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/bench"
	"repro/internal/cell"
	"repro/internal/constrain"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/par"
)

// Table2Row is one measured row of Table II plus its paper counterpart.
type Table2Row struct {
	Name       string
	Gates      int
	Area       float64
	Delay      float64
	Power      float64
	Locations  int
	Log2Combos float64
	AreaOvh    float64
	DelayOvh   float64
	PowerOvh   float64
	Paper      PaperRow
}

// RunTable2 fingerprints every named benchmark fully (the paper's
// "maximum fingerprint size" configuration) and reports Table II. A nil
// names slice runs the entire suite in paper order. Independent circuits
// run on up to `jobs` workers (≤ 0 = one per CPU); rows come back in name
// order regardless of scheduling.
func RunTable2(names []string, lib *cell.Library, jobs int) ([]Table2Row, error) {
	if names == nil {
		names = bench.Names()
	}
	return par.Map(len(names), jobs, func(i int) (Table2Row, error) {
		name := names[i]
		sp := obs.Start("table2/" + name)
		defer sp.End()
		spec, err := bench.ByName(name)
		if err != nil {
			return Table2Row{}, err
		}
		c := spec.Build()
		res, err := core.Fingerprint(c, lib, nil)
		if err != nil {
			return Table2Row{}, fmt.Errorf("experiments: %s: %w", name, err)
		}
		cap := res.Analysis.Capacity()
		return Table2Row{
			Name:       name,
			Gates:      res.Base.Gates,
			Area:       res.Base.Area,
			Delay:      res.Base.Delay,
			Power:      res.Base.Power,
			Locations:  cap.Locations,
			Log2Combos: cap.Log2Combos,
			AreaOvh:    res.Overhead.Area,
			DelayOvh:   res.Overhead.Delay,
			PowerOvh:   res.Overhead.Power,
			Paper:      PaperTable2[name],
		}, nil
	})
}

// nanMean accumulates a streaming mean that skips NaN samples (a metric the
// base design lacks — e.g. the paper prints N/A for c6288's power), so one
// undefined entry cannot poison a whole averaged column.
type nanMean struct {
	sum float64
	n   int
}

func (m *nanMean) add(v float64) {
	if math.IsNaN(v) {
		return
	}
	m.sum += v
	m.n++
}

func (m *nanMean) mean() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}

// AverageOverheads returns the averages of the overhead columns (the
// paper's "Avg Change" row). NaN entries are skipped per column —
// mirroring the N/A guard pct() applies at display time — instead of
// propagating into the average.
func AverageOverheads(rows []Table2Row) (area, delay, power float64) {
	var a, d, p nanMean
	for _, r := range rows {
		a.add(r.AreaOvh)
		d.add(r.DelayOvh)
		p.add(r.PowerOvh)
	}
	return a.mean(), d.mean(), p.mean()
}

// FormatTable2 renders measured-vs-paper rows as an aligned text table.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s | %6s %9s %7s %9s | %5s %8s | %7s %7s %7s | paper: %5s %8s %7s %7s %7s\n",
		"name", "gates", "area", "delay", "power", "locs", "log2",
		"area%", "delay%", "power%", "locs", "log2", "area%", "delay%", "power%")
	b.WriteString(strings.Repeat("-", 140) + "\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s | %6d %9.0f %7.3f %9.1f | %5d %8.2f | %7.2f %7.2f %7.2f | paper: %5d %8.2f %7.2f %7.2f %7s\n",
			r.Name, r.Gates, r.Area, r.Delay, r.Power, r.Locations, r.Log2Combos,
			100*r.AreaOvh, 100*r.DelayOvh, 100*r.PowerOvh,
			r.Paper.Locations, r.Paper.Log2Combos,
			100*r.Paper.AreaOvh, 100*r.Paper.DelayOvh, pct(r.Paper.PowerOvh))
	}
	a, d, p := AverageOverheads(rows)
	fmt.Fprintf(&b, "%-6s | %6s %9s %7s %9s | %5s %8s | %7.2f %7.2f %7.2f | paper: %5s %8s %7.2f %7.2f %7.2f\n",
		"AVG", "", "", "", "", "", "", 100*a, 100*d, 100*p, "", "",
		100*PaperTable2Avg.AreaOvh, 100*PaperTable2Avg.DelayOvh, 100*PaperTable2Avg.PowerOvh)
	return b.String()
}

func pct(f float64) string {
	if math.IsNaN(f) {
		return "N/A"
	}
	return fmt.Sprintf("%.2f", 100*f)
}

// Table3Row is one measured row of Table III (averages across circuits at
// one delay budget) plus the paper's row.
type Table3Row struct {
	Budget    float64
	Reduction float64
	AreaOvh   float64
	DelayOvh  float64
	PowerOvh  float64
	Paper     PaperTable3Row
	// PerCircuit carries the per-benchmark results behind the averages
	// (used by Fig. 7). It is not serialized into run manifests — the
	// derived Fig. 7 series is embedded there instead.
	PerCircuit map[string]*constrain.Result `json:"-"`
}

// RunTable3 applies the reactive delay-constrained heuristic at each budget
// across the named benchmarks and averages the results (the paper's Table
// III). A nil names slice runs the whole suite; nil budgets means the
// paper's 10 %/5 %/1 %.
//
// The whole circuit × budget grid fans out on up to `jobs` workers; every
// cell runs with DeriveSeed(seed, name, budgetIndex), so its kick sequence
// depends only on the cell, never on scheduling, and aggregation walks the
// grid in deterministic (budget, name) order — the output is byte-identical
// at any job count.
func RunTable3(names []string, budgets []float64, lib *cell.Library, seed int64, jobs int) ([]Table3Row, error) {
	if names == nil {
		names = bench.Names()
	}
	if budgets == nil {
		budgets = []float64{0.10, 0.05, 0.01}
	}
	// Analyse each circuit once; reuse across budgets.
	type prep struct {
		name string
		a    *core.Analysis
	}
	preps, err := par.Map(len(names), jobs, func(i int) (prep, error) {
		name := names[i]
		sp := obs.Start("analyze/" + name)
		defer sp.End()
		spec, err := bench.ByName(name)
		if err != nil {
			return prep{}, err
		}
		c := spec.Build()
		a, err := core.Analyze(c, core.DefaultOptions(lib))
		if err != nil {
			return prep{}, fmt.Errorf("experiments: %s: %w", name, err)
		}
		return prep{name, a}, nil
	})
	if err != nil {
		return nil, err
	}
	results, err := par.Map(len(budgets)*len(preps), jobs, func(i int) (*constrain.Result, error) {
		bi, pi := i/len(preps), i%len(preps)
		p := preps[pi]
		sp := obs.Start(fmt.Sprintf("table3/%s@%g", p.name, budgets[bi]))
		defer sp.End()
		res, err := constrain.Reactive(p.a, core.FullAssignment(p.a), constrain.Options{
			Library:     lib,
			DelayBudget: budgets[bi],
			Seed:        DeriveSeed(seed, p.name, bi),
			Workers:     jobs,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: %s@%g: %w", p.name, budgets[bi], err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]Table3Row, 0, len(budgets))
	for bi, budget := range budgets {
		row := Table3Row{Budget: budget, PerCircuit: make(map[string]*constrain.Result, len(preps))}
		var red, area, delay, power nanMean
		for pi, p := range preps {
			res := results[bi*len(preps)+pi]
			row.PerCircuit[p.name] = res
			red.add(res.FingerprintReduction)
			area.add(res.Overhead.Area)
			delay.add(res.Overhead.Delay)
			power.add(res.Overhead.Power)
		}
		row.Reduction = red.mean()
		row.AreaOvh = area.mean()
		row.DelayOvh = delay.mean()
		row.PowerOvh = power.mean()
		for _, pr := range PaperTable3 {
			if pr.Budget == budget {
				row.Paper = pr
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatTable3 renders the Table III comparison.
func FormatTable3(rows []Table3Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s | %9s %7s %7s %7s | paper: %9s %7s %7s %7s\n",
		"delay constraint", "fp-red%", "area%", "delay%", "power%", "fp-red%", "area%", "delay%", "power%")
	b.WriteString(strings.Repeat("-", 104) + "\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s | %9.2f %7.2f %7.2f %7.2f | paper: %9.2f %7.2f %7.2f %7.2f\n",
			fmt.Sprintf("%.0f%% budget", 100*r.Budget),
			100*r.Reduction, 100*r.AreaOvh, 100*r.DelayOvh, 100*r.PowerOvh,
			100*r.Paper.Reduction, 100*r.Paper.AreaOvh, 100*r.Paper.DelayOvh, 100*r.Paper.PowerOvh)
	}
	return b.String()
}

// Fig7Series holds the Fig. 7 data: per circuit, the fingerprint size in
// bits (log₂ of the surviving combination space) unconstrained and at each
// delay budget.
type Fig7Series struct {
	Budgets []float64
	// Bits[name][0] is unconstrained; Bits[name][1+i] is at Budgets[i].
	Bits  map[string][]float64
	Order []string
}

// RunFig7 computes the Fig. 7 fingerprint-size comparison from a Table III
// run (reusing its per-circuit results to avoid re-running the heuristic).
// Circuits are re-analysed on up to `jobs` workers.
func RunFig7(names []string, table3 []Table3Row, lib *cell.Library, jobs int) (*Fig7Series, error) {
	if names == nil {
		names = bench.Names()
	}
	fig := &Fig7Series{Bits: make(map[string][]float64), Order: names}
	for _, r := range table3 {
		fig.Budgets = append(fig.Budgets, r.Budget)
	}
	allSeries, err := par.Map(len(names), jobs, func(i int) ([]float64, error) {
		name := names[i]
		sp := obs.Start("fig7/" + name)
		defer sp.End()
		spec, err := bench.ByName(name)
		if err != nil {
			return nil, err
		}
		c := spec.Build()
		a, err := core.Analyze(c, core.DefaultOptions(lib))
		if err != nil {
			return nil, err
		}
		series := []float64{a.Capacity().Log2Combos}
		for _, r := range table3 {
			res, ok := r.PerCircuit[name]
			if !ok {
				return nil, fmt.Errorf("experiments: Fig7: no Table III result for %s@%g", name, r.Budget)
			}
			series = append(series, survivingBits(a, res.Assignment))
		}
		return series, nil
	})
	if err != nil {
		return nil, err
	}
	for i, name := range names {
		fig.Bits[name] = allSeries[i]
	}
	return fig, nil
}

// survivingBits computes the capacity (log₂ combinations) of the locations
// whose modification survived the constraint run: the designer can fill
// exactly those locations with fingerprint data afterwards.
func survivingBits(a *core.Analysis, asg core.Assignment) float64 {
	bits := 0.0
	for i := range asg {
		kept := false
		for _, v := range asg[i] {
			if v >= 0 {
				kept = true
			}
		}
		if !kept {
			continue
		}
		for j := range a.Locations[i].Targets {
			bits += math.Log2(float64(1 + len(a.Locations[i].Targets[j].Variants)))
		}
	}
	return bits
}

// FormatFig7 renders the Fig. 7 series as a text table (one row per
// circuit, one column per constraint level).
func FormatFig7(f *Fig7Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s | %12s", "name", "unconstrained")
	for _, bud := range f.Budgets {
		fmt.Fprintf(&b, " %9s", fmt.Sprintf("%.0f%%", 100*bud))
	}
	b.WriteString("   (fingerprint bits)\n")
	b.WriteString(strings.Repeat("-", 24+10*len(f.Budgets)) + "\n")
	for _, name := range f.Order {
		series := f.Bits[name]
		fmt.Fprintf(&b, "%-6s | %12.1f", name, series[0])
		for _, v := range series[1:] {
			fmt.Fprintf(&b, " %9.1f", v)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// E7Row compares the reactive and proactive heuristics on one circuit (the
// extension experiment; §III-D describes the proactive method but the
// paper never evaluates it).
type E7Row struct {
	Name                 string
	ReactKept, ProKept   int
	ReactSTA, ProSTA     int
	ReactDelay, ProDelay float64 // fractional overheads
}

// RunE7 runs both heuristics at the given budget over the named circuits,
// one circuit per worker (up to `jobs`), each with its per-circuit derived
// seed.
func RunE7(names []string, budget float64, lib *cell.Library, seed int64, jobs int) ([]E7Row, error) {
	if names == nil {
		names = bench.Names()
	}
	return par.Map(len(names), jobs, func(i int) (E7Row, error) {
		name := names[i]
		sp := obs.Start("e7/" + name)
		defer sp.End()
		spec, err := bench.ByName(name)
		if err != nil {
			return E7Row{}, err
		}
		c := spec.Build()
		a, err := core.Analyze(c, core.DefaultOptions(lib))
		if err != nil {
			return E7Row{}, err
		}
		opts := constrain.Options{Library: lib, DelayBudget: budget, Seed: DeriveSeed(seed, name, 0), Workers: jobs}
		rea, err := constrain.Reactive(a, core.FullAssignment(a), opts)
		if err != nil {
			return E7Row{}, err
		}
		pro, err := constrain.Proactive(a, opts)
		if err != nil {
			return E7Row{}, err
		}
		return E7Row{
			Name:      name,
			ReactKept: rea.Kept, ProKept: pro.Kept,
			ReactSTA: rea.STACalls, ProSTA: pro.STACalls,
			ReactDelay: rea.Overhead.Delay, ProDelay: pro.Overhead.Delay,
		}, nil
	})
}

// FormatE7 renders the heuristic comparison.
func FormatE7(rows []E7Row, budget float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "proactive vs reactive at %.0f%% delay budget\n", 100*budget)
	fmt.Fprintf(&b, "%-6s | %9s %9s | %9s %9s | %11s %11s\n",
		"name", "kept(rea)", "kept(pro)", "STA(rea)", "STA(pro)", "delay%(rea)", "delay%(pro)")
	b.WriteString(strings.Repeat("-", 88) + "\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s | %9d %9d | %9d %9d | %11.2f %11.2f\n",
			r.Name, r.ReactKept, r.ProKept, r.ReactSTA, r.ProSTA,
			100*r.ReactDelay, 100*r.ProDelay)
	}
	return b.String()
}
