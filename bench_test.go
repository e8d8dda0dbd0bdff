// Benchmark harness: one benchmark family per table/figure of the paper's
// evaluation (DESIGN.md §4), plus micro-benchmarks of the substrates.
//
//	go test -bench=Table2 -benchmem .        # Table II rows (per circuit)
//	go test -bench=Table3 -benchmem .        # Table III rows (per circuit × budget)
//	go test -bench=Fig7 -benchmem .          # Fig. 7 series
//	go test -bench=. -benchmem .             # everything
//
// Each benchmark reports the regenerated quantities via b.ReportMetric, so
// the harness output carries the same columns the paper prints (locations,
// log₂ combinations, overhead percentages, surviving-fingerprint bits).
package odcfp_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"repro"
	"repro/internal/aig"
	"repro/internal/bench"
	"repro/internal/benchfmt"
	"repro/internal/cec"
	"repro/internal/cell"
	"repro/internal/circuit"
	"repro/internal/constrain"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fuse"
	"repro/internal/power"
	"repro/internal/registry"
	"repro/internal/registrystore"
	"repro/internal/sdc"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/sta"
	"repro/internal/watermark"
)

// BenchmarkTable2 regenerates one Table II row per sub-benchmark: full
// fingerprinting of each suite circuit, reporting locations, capacity and
// overhead percentages.
func BenchmarkTable2(b *testing.B) {
	lib := cell.Default()
	for _, spec := range bench.Suite() {
		spec := spec
		b.Run(spec.Name, func(b *testing.B) {
			c := spec.Build()
			var row *core.Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				row, err = core.Fingerprint(c, lib, nil)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			cap := row.Analysis.Capacity()
			b.ReportMetric(float64(cap.Locations), "locations")
			b.ReportMetric(cap.Log2Combos, "log2combos")
			b.ReportMetric(100*row.Overhead.Area, "area_ovh_%")
			b.ReportMetric(100*row.Overhead.Delay, "delay_ovh_%")
			b.ReportMetric(100*row.Overhead.Power, "power_ovh_%")
		})
	}
}

// BenchmarkTable3 regenerates Table III cells: the reactive heuristic per
// circuit per delay budget, reporting the surviving-fingerprint fraction
// and final overheads.
func BenchmarkTable3(b *testing.B) {
	lib := cell.Default()
	for _, budget := range []float64{0.10, 0.05, 0.01} {
		budget := budget
		for _, spec := range bench.Suite() {
			spec := spec
			b.Run(fmt.Sprintf("budget=%d%%/%s", int(100*budget), spec.Name), func(b *testing.B) {
				c := spec.Build()
				a, err := core.Analyze(c, core.DefaultOptions(lib))
				if err != nil {
					b.Fatal(err)
				}
				var res *constrain.Result
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err = constrain.Reactive(a, core.FullAssignment(a),
						constrain.Options{Library: lib, DelayBudget: budget, Seed: 1})
					if err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				b.ReportMetric(100*res.FingerprintReduction, "fp_reduction_%")
				b.ReportMetric(100*res.Overhead.Area, "area_ovh_%")
				b.ReportMetric(100*res.Overhead.Delay, "delay_ovh_%")
				b.ReportMetric(100*res.Overhead.Power, "power_ovh_%")
				b.ReportMetric(float64(res.STACalls), "sta_calls")
			})
		}
	}
}

// BenchmarkFig7 regenerates the Fig. 7 series: per circuit, fingerprint
// bits unconstrained and at the 10 % budget (the 5 %/1 % points come from
// BenchmarkTable3's assignments; one budget keeps this benchmark's runtime
// proportionate).
func BenchmarkFig7(b *testing.B) {
	lib := cell.Default()
	for _, spec := range bench.Suite() {
		spec := spec
		b.Run(spec.Name, func(b *testing.B) {
			c := spec.Build()
			a, err := core.Analyze(c, core.DefaultOptions(lib))
			if err != nil {
				b.Fatal(err)
			}
			var unconstrained, constrained float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				unconstrained = a.Capacity().Log2Combos
				res, err := constrain.Reactive(a, core.FullAssignment(a),
					constrain.Options{Library: lib, DelayBudget: 0.10, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				constrained = 0
				for li := range res.Assignment {
					kept := false
					for _, v := range res.Assignment[li] {
						if v >= 0 {
							kept = true
						}
					}
					if kept {
						for j := range a.Locations[li].Targets {
							constrained += math.Log2(float64(1 + len(a.Locations[li].Targets[j].Variants)))
						}
					}
				}
			}
			b.StopTimer()
			b.ReportMetric(unconstrained, "bits_unconstrained")
			b.ReportMetric(constrained, "bits_at_10%")
		})
	}
}

// BenchmarkAblationVariants quantifies the design choices DESIGN.md calls
// out: how much fingerprint capacity each modification class contributes
// (AddLiteral only, +ConvertSingle, +Reroute) on a mid-size circuit.
func BenchmarkAblationVariants(b *testing.B) {
	lib := cell.Default()
	spec, err := bench.ByName("dalu")
	if err != nil {
		b.Fatal(err)
	}
	c := spec.Build()
	cases := []struct {
		name    string
		convert bool
		reroute bool
	}{
		{"add-literal-only", false, false},
		{"plus-convert", true, false},
		{"plus-reroute", true, true},
	}
	for _, tc := range cases {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			var cap core.Capacity
			for i := 0; i < b.N; i++ {
				opts := core.Options{Library: lib, AllowConvert: tc.convert, AllowReroute: tc.reroute}
				a, err := core.Analyze(c, opts)
				if err != nil {
					b.Fatal(err)
				}
				cap = a.Capacity()
			}
			b.ReportMetric(float64(cap.Locations), "locations")
			b.ReportMetric(cap.Log2Combos, "log2combos")
		})
	}
}

// BenchmarkAblationHeuristics compares the reactive and proactive
// constraint heuristics (E7) at a 10 % budget.
func BenchmarkAblationHeuristics(b *testing.B) {
	lib := cell.Default()
	spec, err := bench.ByName("c3540")
	if err != nil {
		b.Fatal(err)
	}
	c := spec.Build()
	a, err := core.Analyze(c, core.DefaultOptions(lib))
	if err != nil {
		b.Fatal(err)
	}
	opts := constrain.Options{Library: lib, DelayBudget: 0.10, Seed: 1}
	b.Run("reactive", func(b *testing.B) {
		var res *constrain.Result
		for i := 0; i < b.N; i++ {
			var err error
			res, err = constrain.Reactive(a, core.FullAssignment(a), opts)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(res.Kept), "kept")
		b.ReportMetric(float64(res.STACalls), "sta_calls")
	})
	b.Run("proactive", func(b *testing.B) {
		var res *constrain.Result
		for i := 0; i < b.N; i++ {
			var err error
			res, err = constrain.Proactive(a, opts)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(res.Kept), "kept")
		b.ReportMetric(float64(res.STACalls), "sta_calls")
	})
}

// BenchmarkAblationTrigger validates the paper's trigger-choice rationale
// ("The ODC trigger signal was chosen so that we could reduce our delay
// overhead"): fully fingerprinting with the shallowest-trigger rule (Fig. 6)
// versus the deepest-trigger rule, reporting the resulting delay overheads.
func BenchmarkAblationTrigger(b *testing.B) {
	lib := cell.Default()
	for _, tc := range []struct {
		name   string
		policy core.TriggerPolicy
	}{
		{"shallowest(paper)", core.ShallowestTrigger},
		{"deepest", core.DeepestTrigger},
	} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			var totalDelayOvh float64
			for i := 0; i < b.N; i++ {
				totalDelayOvh = 0
				for _, name := range []string{"c880", "c3540", "dalu", "k2"} {
					spec, err := bench.ByName(name)
					if err != nil {
						b.Fatal(err)
					}
					c := spec.Build()
					opts := core.DefaultOptions(lib)
					opts.Trigger = tc.policy
					a, err := core.Analyze(c, opts)
					if err != nil {
						b.Fatal(err)
					}
					fp, err := core.EmbedAll(a)
					if err != nil {
						b.Fatal(err)
					}
					base, err := core.Measure(c, lib)
					if err != nil {
						b.Fatal(err)
					}
					mod, err := core.Measure(fp, lib)
					if err != nil {
						b.Fatal(err)
					}
					totalDelayOvh += core.OverheadOf(base, mod).Delay
				}
			}
			b.ReportMetric(100*totalDelayOvh/4, "avg_delay_ovh_%")
		})
	}
}

// BenchmarkSDCAnalyze measures the companion SDC technique (E11): SDC
// discovery (simulation pre-pass + per-candidate SAT proofs) on correlated
// circuits, reporting location yield.
func BenchmarkSDCAnalyze(b *testing.B) {
	lib := cell.Default()
	for _, size := range []int{100, 400} {
		size := size
		b.Run(fmt.Sprintf("gates=%d", size), func(b *testing.B) {
			c := sdc.RandomCorrelated(12, size, 7)
			var locs int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a, err := sdc.Analyze(c, sdc.DefaultOptions(lib))
				if err != nil {
					b.Fatal(err)
				}
				locs = a.NumLocations()
			}
			b.ReportMetric(float64(locs), "sdc_locations")
		})
	}
}

// BenchmarkFuseProgramming measures the post-silicon flow (E9): programming
// one die from the master, reporting the master-die area premium.
func BenchmarkFuseProgramming(b *testing.B) {
	lib := cell.Default()
	spec, err := bench.ByName("c880")
	if err != nil {
		b.Fatal(err)
	}
	c := spec.Build()
	a, err := core.Analyze(c, core.DefaultOptions(lib))
	if err != nil {
		b.Fatal(err)
	}
	m, err := fuse.NewMaster(a, lib)
	if err != nil {
		b.Fatal(err)
	}
	base, err := core.Measure(c, lib)
	if err != nil {
		b.Fatal(err)
	}
	bits := make([]bool, m.NumFuses())
	for i := range bits {
		bits[i] = i%2 == 0
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		die, err := m.NewDie()
		if err != nil {
			b.Fatal(err)
		}
		if err := die.Program(bits); err != nil {
			b.Fatal(err)
		}
		if _, err := die.Netlist(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*(m.MasterArea()-base.Area)/base.Area, "master_area_%")
	b.ReportMetric(float64(m.NumFuses()), "links")
}

// BenchmarkWatermark measures keyed watermark planning + verification.
func BenchmarkWatermark(b *testing.B) {
	lib := cell.Default()
	spec, err := bench.ByName("c3540")
	if err != nil {
		b.Fatal(err)
	}
	c := spec.Build()
	a, err := core.Analyze(c, core.DefaultOptions(lib))
	if err != nil {
		b.Fatal(err)
	}
	p := watermark.Params{Key: []byte("bench-key"), Slots: 24}
	m, err := watermark.Plan(a, p)
	if err != nil {
		b.Fatal(err)
	}
	cp, err := core.Embed(a, m.Assignment)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := watermark.Verify(a, p, cp)
		if err != nil {
			b.Fatal(err)
		}
		if e.Matched != e.Total {
			b.Fatal("watermark lost")
		}
	}
	b.ReportMetric(m.Bits, "evidence_bits")
}

// --- substrate micro-benchmarks -----------------------------------------

func BenchmarkAnalyze(b *testing.B) {
	lib := cell.Default()
	for _, name := range []string{"c432", "c3540", "des"} {
		spec, err := bench.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		c := spec.Build()
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Analyze(c, core.DefaultOptions(lib)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkEmbedExtract(b *testing.B) {
	lib := cell.Default()
	spec, err := bench.ByName("c3540")
	if err != nil {
		b.Fatal(err)
	}
	c := spec.Build()
	a, err := core.Analyze(c, core.DefaultOptions(lib))
	if err != nil {
		b.Fatal(err)
	}
	asg := core.FullAssignment(a)
	b.Run("embed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Embed(a, asg); err != nil {
				b.Fatal(err)
			}
		}
	})
	fp, err := core.Embed(a, asg)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("extract", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Extract(a, fp); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEmbedIssue builds c5315 copies as /issue does: each buyer's
// value comes from the registry's derivation and is decoded and embedded.
// The 256 seeded buyers cycle, so every copy is a different selection.
func BenchmarkEmbedIssue(b *testing.B) {
	a, _ := verifyFixture(b, "c5315", 0)
	buyers := make([]string, 256)
	for i := range buyers {
		buyers[i] = fmt.Sprintf("buyer-%d", i)
	}
	items, err := registry.New(a).IssueBatchValues(context.Background(), a, buyers)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		asg, err := a.AssignmentFromInt(items[i%len(items)].Value)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.Embed(a, asg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSTA(b *testing.B) {
	lib := cell.Default()
	for _, name := range []string{"c880", "des"} {
		spec, err := bench.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		c := spec.Build()
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sta.Analyze(c, lib); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkPowerEstimate(b *testing.B) {
	lib := cell.Default()
	spec, err := bench.ByName("des")
	if err != nil {
		b.Fatal(err)
	}
	c := spec.Build()
	for i := 0; i < b.N; i++ {
		if _, err := power.Estimate(c, lib); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimRun measures the gate-level reference simulator (sim.Run):
// one TopoOrder walk with logic.Kind.EvalWord per gate and word into a fresh
// value arena. It is the oracle the packed kernel is tested against, not a
// hot path; compare with BenchmarkPackedSim.
func BenchmarkSimRun(b *testing.B) {
	spec, err := bench.ByName("c6288")
	if err != nil {
		b.Fatal(err)
	}
	c := spec.Build()
	vec := sim.Random(len(c.PIs), 16, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(c, vec); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(16 * 8 * c.NumNodes()))
}

// BenchmarkPackedSim re-runs the packed AIG kernel (aig.View.WithSim) on
// the same shape: after the first run the view's arena is reused, so
// allocs/op must be 0 — the zero-alloc guarantee of the one simulation
// kernel.
func BenchmarkPackedSim(b *testing.B) {
	spec, err := bench.ByName("c6288")
	if err != nil {
		b.Fatal(err)
	}
	c := spec.Build()
	vec := sim.Random(len(c.PIs), 16, 1)
	v, err := aig.ViewFor(c)
	if err != nil {
		b.Fatal(err)
	}
	fn := func([]uint64) {}
	v.WithSim(vec.Words, 16, fn)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.WithSim(vec.Words, 16, fn)
	}
	b.SetBytes(int64(16 * 8 * c.NumNodes()))
}

// BenchmarkExhaustive measures stimulus construction (block-pattern word
// fills; formerly an O(2^n·n) per-bit loop).
func BenchmarkExhaustive(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Exhaustive(16); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCEC(b *testing.B) {
	lib := cell.Default()
	for _, name := range []string{"c432", "c1908"} {
		spec, err := bench.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		c := spec.Build()
		res, err := core.Fingerprint(c, lib, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				v, err := cec.Check(res.Analysis.Circuit, res.Fingerprinted, cec.DefaultOptions())
				if err != nil {
					b.Fatal(err)
				}
				if !v.Equivalent {
					b.Fatal("not equivalent")
				}
			}
		})
	}
}

// verifyFixture analyses one benchmark and draws nCopies deterministic
// random fingerprint assignments from it.
func verifyFixture(b *testing.B, name string, nCopies int) (*core.Analysis, []core.Assignment) {
	b.Helper()
	spec, err := bench.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	a, err := core.Analyze(spec.Build(), core.DefaultOptions(cell.Default()))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	n := a.BitCapacity()
	asgs := make([]core.Assignment, nCopies)
	for i := range asgs {
		bits := make([]bool, n)
		for j := range bits {
			bits[j] = rng.Intn(2) == 1
		}
		asgs[i], err = a.AssignmentFromBits(bits)
		if err != nil {
			b.Fatal(err)
		}
	}
	return a, asgs
}

// BenchmarkVerifyWindows is what a fresh design's verified issues cost: a
// fresh core.Verifier per iteration, whose first verify proves the c5315
// catalogue window by window (one small SAT query per composed window), then
// 64 copies that need no solver at all. Compare with
// BenchmarkVerifySession, the whole-circuit fallback.
func BenchmarkVerifyWindows(b *testing.B) {
	a, asgs := verifyFixture(b, "c5315", 64)
	asgs = append([]core.Assignment{core.EmptyAssignment(a)}, asgs...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ver := core.NewVerifier(a)
		for _, asg := range asgs {
			v, err := ver.Verify(asg)
			if err != nil {
				b.Fatal(err)
			}
			if !v.Equivalent {
				b.Fatal("catalogued copy not equivalent")
			}
		}
		if !ver.Certified() {
			b.Fatal("a window failed; the session fallback would be measured")
		}
	}
	b.ReportMetric(64, "copies/op")
}

// BenchmarkCertifierCompose is the bookkeeping half of a fresh design's
// certificates: cec.NewCertifier on c5315, which orders the union graph
// and composes the location windows (198 after 384 merges) without any SAT
// work. The slots and windows are built outside the timer.
func BenchmarkCertifierCompose(b *testing.B) {
	a, _ := verifyFixture(b, "c5315", 0)
	slots, windows := a.Slots(), a.Windows()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cec.NewCertifier(a.Circuit, slots, windows, cec.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepWorking is the sweep inside every issued copy (core.Embed):
// the working circuit of c5315 under its full assignment, swept into a new
// circuit.
func BenchmarkSweepWorking(b *testing.B) {
	a, _ := verifyFixture(b, "c5315", 0)
	w, err := core.NewWorking(a, core.FullAssignment(a))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.C.Sweep()
	}
}

// BenchmarkVerifySession verifies 64 fingerprint copies of one analysis on
// a persistent cec.Session, built directly so that it keeps measuring the
// verifier's fallback path: the miter is encoded once per iteration and
// each copy costs one assumption solve on the shared solver. Compare with
// BenchmarkVerifyColdCEC; cmd/benchverify records the same contest in
// BENCH_verify.json.
func BenchmarkVerifySession(b *testing.B) {
	a, asgs := verifyFixture(b, "c5315", 64)
	choices := make([][]int, len(asgs))
	for i, asg := range asgs {
		var err error
		if choices[i], err = a.SlotChoice(asg); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess, err := cec.NewSession(a.Circuit, a.Slots(), cec.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		for _, choice := range choices {
			v, err := sess.Verify(choice)
			if err != nil {
				b.Fatal(err)
			}
			if !v.Equivalent {
				b.Fatal("catalogued copy not equivalent")
			}
		}
	}
	b.ReportMetric(64, "copies/op")
}

// BenchmarkVerifyColdCEC is the one-shot baseline for the same 64 copies:
// each verification builds a fresh miter over a pre-embedded instance and
// solves it from scratch (copies are materialized outside the timer).
func BenchmarkVerifyColdCEC(b *testing.B) {
	a, asgs := verifyFixture(b, "c5315", 64)
	copies := make([]*circuit.Circuit, len(asgs))
	for i, asg := range asgs {
		cp, err := core.Embed(a, asg)
		if err != nil {
			b.Fatal(err)
		}
		copies[i] = cp
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cp := range copies {
			v, err := cec.Check(a.Circuit, cp, cec.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			if !v.Equivalent {
				b.Fatal("catalogued copy not equivalent")
			}
		}
	}
	b.ReportMetric(64, "copies/op")
}

// matureRegistry is the mature-registry fixture: c880 with 10 000 buyers
// preseeded by IssueBatchValues, plus one issued copy as the suspect.
func matureRegistry(b *testing.B) (*core.Analysis, *registry.Registry, *circuit.Circuit) {
	spec, err := bench.ByName("c880")
	if err != nil {
		b.Fatal(err)
	}
	a, err := core.Analyze(spec.Build(), core.DefaultOptions(cell.Default()))
	if err != nil {
		b.Fatal(err)
	}
	reg := registry.New(a)
	buyers := make([]string, 10000)
	for i := range buyers {
		buyers[i] = fmt.Sprintf("preseed-%05d", i)
	}
	if _, err := reg.IssueBatchValues(context.Background(), a, buyers); err != nil {
		b.Fatal(err)
	}
	items, err := reg.IssueBatch(context.Background(), a, []string{"suspect"})
	if err != nil {
		b.Fatal(err)
	}
	return a, reg, items[0].Circuit
}

// BenchmarkTraceScores is one score-mode trace (§III-E collusion tracing)
// against a mature registry (matureRegistry). Every iteration extracts the
// suspect and scores and sorts all 10 001 buyers.
func BenchmarkTraceScores(b *testing.B) {
	a, reg, suspect := matureRegistry(b)
	// The first score trace builds the registry's resident score table,
	// once per registry; time the traces after it.
	if _, err := reg.TraceScores(a, suspect); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scores, err := reg.TraceScores(a, suspect)
		if err != nil {
			b.Fatal(err)
		}
		if len(scores) != 10001 || scores[0].Name != "suspect" {
			b.Fatalf("%d scores, top %q", len(scores), scores[0].Name)
		}
	}
}

// jsonIndent is the encoding/json output the hand-written appenders
// reproduce byte for byte.
func jsonIndent(b *testing.B, v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkTraceResponse streams one 10 001-row score-trace body (the
// mature registry's ?scores=1 answer) into io.Discard as the /trace handler
// streams it into the response: encoded straight from the registry's
// ranking, through one chunk buffer per body.
func BenchmarkTraceResponse(b *testing.B) {
	a, reg, suspect := matureRegistry(b)
	scores, err := reg.TraceScores(a, suspect)
	if err != nil {
		b.Fatal(err)
	}
	resp := serve.TraceResponse{Digest: reg.Digest, Exact: "suspect"}
	resp.SetScores(scores, 1)
	copied := resp
	for _, sc := range scores {
		copied.Scores = append(copied.Scores, serve.TraceScore{
			Buyer: sc.Name, AgreePresent: sc.AgreePresent, TotalPresent: sc.TotalPresent,
			Fraction: sc.Fraction(), FractionAll: sc.FractionAll(),
		})
	}
	var body bytes.Buffer
	if _, err := resp.WriteTo(&body); err != nil {
		b.Fatal(err)
	}
	if !bytes.Equal(body.Bytes(), jsonIndent(b, copied)) {
		b.Fatal("TraceResponse.WriteTo differs from encoding/json")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := resp.WriteTo(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(body.Len())/1024, "KiB/body")
}

// BenchmarkRegistrySave encodes the mature registry's 10 001-record
// snapshot into a reused buffer, as the snapshot store does on every
// issuance.
func BenchmarkRegistrySave(b *testing.B) {
	_, reg, _ := matureRegistry(b)
	buf := reg.AppendJSON(nil)
	issued := map[string]string{}
	for _, rec := range reg.Records() {
		issued[rec.Buyer] = rec.Value
	}
	want := jsonIndent(b, map[string]any{"design": reg.Design, "digest": reg.Digest, "issued": issued})
	if !bytes.Equal(buf, want) {
		b.Fatal("Registry.AppendJSON differs from encoding/json")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = reg.AppendJSON(buf[:0])
	}
	b.ReportMetric(float64(len(buf))/1024, "KiB/snapshot")
}

// BenchmarkLocalAppendAfterGC snapshots the mature registry through the
// single-node store, with a collection between appends as a mature
// daemon's allocation rate brings on: B/op shows whether the snapshot's
// encode buffer survives a GC or is allocated afresh.
func BenchmarkLocalAppendAfterGC(b *testing.B) {
	_, reg, _ := matureRegistry(b)
	store, err := registrystore.OpenLocal(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if _, err := store.Append(ctx, reg.Digest, reg, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		runtime.GC()
		b.StartTimer()
		if _, err := store.Append(ctx, reg.Digest, reg, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRegistryAdopt installs 20 000 c880 records, shuffled as a
// WAL's arrival order leaves them, into an empty registry in one AdoptAll —
// the replay behind registrystore's Replicated.Load.
func BenchmarkRegistryAdopt(b *testing.B) {
	spec, err := bench.ByName("c880")
	if err != nil {
		b.Fatal(err)
	}
	a, err := core.Analyze(spec.Build(), core.DefaultOptions(cell.Default()))
	if err != nil {
		b.Fatal(err)
	}
	buyers := make([]string, 20000)
	for i := range buyers {
		buyers[i] = fmt.Sprintf("buyer-%05d", i)
	}
	minted := registry.New(a)
	if _, err := minted.IssueBatchValues(context.Background(), a, buyers); err != nil {
		b.Fatal(err)
	}
	recs := minted.Records()
	rand.New(rand.NewSource(1)).Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg := registry.New(a)
		if err := reg.AdoptAll(recs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAsyncJob mints one 10 000-copy unverified async job on c880
// through an in-process daemon on an empty store at the default chunk, as
// the mature workload's preseed does. Daemon start-up and the upload are
// not timed; the submit and the polls until the job is done are.
func BenchmarkAsyncJob(b *testing.B) {
	netlist := benchNetlist(b, "c880")
	b.ReportAllocs()
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		srv, err := serve.New(serve.Config{StoreDir: b.TempDir()})
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		var design struct {
			Digest string `json:"digest"`
		}
		httpJSON(b, ts.URL+"/designs", netlist, &design)
		b.StartTimer()
		var job struct {
			ID           string `json:"id"`
			State        string `json:"state"`
			Acknowledged int    `json:"acknowledged"`
			Error        string `json:"error"`
		}
		httpJSON(b, ts.URL+"/designs/"+design.Digest+"/issue/batch?async=1", []byte(`{"count": 10000}`), &job)
		for job.State != serve.JobDone {
			if job.State == serve.JobFailed {
				b.Fatalf("job failed: %s", job.Error)
			}
			time.Sleep(time.Millisecond)
			httpJSON(b, ts.URL+"/jobs/"+job.ID, nil, &job)
		}
		b.StopTimer()
		if job.Acknowledged != 10000 {
			b.Fatalf("job done with %d copies acknowledged", job.Acknowledged)
		}
		ts.Close()
		if err := srv.Shutdown(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// httpJSON POSTs body to url (GETs it when body is nil) and decodes the
// JSON answer into v, failing on any status above 299.
func httpJSON(b *testing.B, url string, body []byte, v any) {
	var resp *http.Response
	var err error
	if body == nil {
		resp, err = http.Get(url)
	} else {
		resp, err = http.Post(url, "application/octet-stream", bytes.NewReader(body))
	}
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		b.Fatal(err)
	}
	if resp.StatusCode > 299 {
		b.Fatalf("%s: %s: %s", url, resp.Status, data)
	}
	if err := json.Unmarshal(data, v); err != nil {
		b.Fatal(err)
	}
}

// benchNetlist is suite circuit name in .bench form, as an upload or a
// suspect reaches /designs and /trace.
func benchNetlist(b testing.TB, name string) []byte {
	spec, err := bench.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := benchfmt.Write(&buf, spec.Build()); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkBenchParse reads a suite circuit's .bench text — the first step
// of every exact trace and every .bench upload.
func BenchmarkBenchParse(b *testing.B) {
	for _, name := range []string{"c880", "c5315"} {
		b.Run(name, func(b *testing.B) {
			src := benchNetlist(b, name)
			b.SetBytes(int64(len(src)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := benchfmt.Parse(bytes.NewReader(src)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBenchWrite encodes a parsed suite circuit as .bench, as /issue
// does for every copy it returns in that format.
func BenchmarkBenchWrite(b *testing.B) {
	for _, name := range []string{"c880", "c5315"} {
		b.Run(name, func(b *testing.B) {
			src := benchNetlist(b, name)
			c, err := benchfmt.Parse(bytes.NewReader(src))
			if err != nil {
				b.Fatal(err)
			}
			var buf bytes.Buffer
			b.SetBytes(int64(len(src)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := benchfmt.Write(&buf, c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSuiteGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, spec := range bench.Suite() {
			spec.Build()
		}
	}
}

// BenchmarkTable2Jobs measures the parallel sweep's scaling: the whole
// Table II regeneration at worker counts 1/2/4. Rows are identical at every
// -j (the determinism guarantee); only wall-clock should move, and only on
// multi-core hosts — on a single-core box expect parity.
func BenchmarkTable2Jobs(b *testing.B) {
	lib := cell.Default()
	for _, jobs := range []int{1, 2, 4} {
		jobs := jobs
		b.Run(fmt.Sprintf("j=%d", jobs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.RunTable2(nil, lib, jobs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable2Averages regenerates the Table II average row in one shot
// (kept separate so -bench=Table2Averages gives the paper's summary line
// quickly).
func BenchmarkTable2Averages(b *testing.B) {
	lib := cell.Default()
	var area, delay, pw float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunTable2(nil, lib, 1)
		if err != nil {
			b.Fatal(err)
		}
		area, delay, pw = experiments.AverageOverheads(rows)
	}
	b.ReportMetric(100*area, "avg_area_%")
	b.ReportMetric(100*delay, "avg_delay_%")
	b.ReportMetric(100*pw, "avg_power_%")
}

var _ = odcfp.DefaultLibrary // facade linked into the bench binary
