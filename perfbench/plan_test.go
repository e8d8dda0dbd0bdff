package main

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"repro/internal/benchfmt"
	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/registry"
)

// steps plans a short run: n mix steps, then n probes of each kind.
func steps(w *workload, seed int64, n int) []step {
	p := newPlan(w, seed)
	return append(p.mixSteps(n), p.probeSteps(func(stepKind) int { return n })...)
}

func TestSameSeedSameSteps(t *testing.T) {
	for _, w := range workloads {
		a, b := steps(w, 7, 6), steps(w, 7, 6)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different step sequences", w.name)
		}
		if c := steps(w, 8, 6); reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same step sequence", w.name)
		}
		p1, p2 := newPlan(w, 7), newPlan(w, 7)
		if !reflect.DeepEqual(p1.recoverySample(5, 100), p2.recoverySample(5, 100)) {
			t.Errorf("%s: seed 7 sampled different copies", w.name)
		}
	}
}

func TestStepsKeepTheMix(t *testing.T) {
	for _, w := range workloads {
		for _, s := range newPlan(w, 3).mixSteps(10) {
			if s.kind != w.mix {
				t.Fatalf("%s: mix step of kind %d, want %d", w.name, s.kind, w.mix)
			}
		}
		orders := map[string]bool{}
		for seed := int64(1); seed <= 4; seed++ {
			counts := map[stepKind]int{}
			var order []byte
			for _, s := range newPlan(w, seed).probeSteps(func(k stepKind) int { return int(k) + 2 }) {
				counts[s.kind]++
				order = append(order, byte(s.kind))
			}
			orders[string(order)] = true
			for _, k := range w.probes {
				if counts[k] != int(k)+2 {
					t.Errorf("%s: %d probes of kind %d, want %d", w.name, counts[k], k, int(k)+2)
				}
			}
			if len(counts) != len(w.probes) {
				t.Errorf("%s: probes of %d kinds, want %d", w.name, len(counts), len(w.probes))
			}
		}
		if len(w.probes) > 1 && len(orders) < 2 {
			t.Errorf("%s: four seeds put the probes in one order", w.name)
		}
	}
}

func TestScheduleSpreadsReadOnlyProbes(t *testing.T) {
	count := func(stepKind) int { return 5 }
	for _, w := range workloads {
		timed, after := newPlan(w, 9).schedule(20, count)
		p := newPlan(w, 9)
		want := append(p.mixSteps(20), p.probeSteps(count)...)
		var mix, spread, rest []step
		for _, s := range want {
			switch {
			case s.kind == w.mix:
				mix = append(mix, s)
			case s.kind.readOnly():
				spread = append(spread, s)
			default:
				rest = append(rest, s)
			}
		}
		if !reflect.DeepEqual(after, rest) {
			t.Errorf("%s: after the phase %v, want %v", w.name, after, rest)
		}
		var gotMix, gotSpread []step
		gap, maxGap := 0, 0
		for _, s := range timed {
			if s.kind == w.mix {
				gotMix = append(gotMix, s)
				gap++
				continue
			}
			gotSpread = append(gotSpread, s)
			maxGap, gap = max(maxGap, gap), 0
		}
		if !reflect.DeepEqual(gotMix, mix) || !reflect.DeepEqual(gotSpread, spread) {
			t.Errorf("%s: the timed phase does not keep the planned steps in order", w.name)
		}
		if len(spread) > 0 {
			// Each probe follows at most ceil(20/(probes+1)) mix steps
			// since the previous one, and none waits for the phase's end.
			if limit := (20 + len(spread)) / (len(spread) + 1); maxGap > limit || gap > limit {
				t.Errorf("%s: %d and %d mix steps between probes, want at most %d", w.name, maxGap, gap, limit)
			}
		}
	}
}

func TestMixStepsScaleWithSeconds(t *testing.T) {
	w := &workload{rate: 10}
	for _, tc := range []struct {
		seconds float64
		min     int
		want    int
	}{{15, 100, 150}, {5, 100, 100}, {0.2, 3, 3}, {1.04, 1, 10}} {
		if got := w.mixSteps(tc.seconds, tc.min); got != tc.want {
			t.Errorf("mixSteps(%g, %d) = %d, want %d", tc.seconds, tc.min, got, tc.want)
		}
	}
}

func TestBuyerAndVariantNamesAreFresh(t *testing.T) {
	for _, w := range workloads {
		buyers, variants := map[string]bool{}, map[int]bool{}
		for _, s := range steps(w, 1, 40) {
			if s.buyer != "" {
				if buyers[s.buyer] {
					t.Fatalf("%s: buyer %s planned twice", w.name, s.buyer)
				}
				buyers[s.buyer] = true
			}
			if s.kind == stepUpload || s.kind == stepOnboard {
				if variants[s.variant] || s.variant == 0 {
					t.Fatalf("%s: variant %d reused", w.name, s.variant)
				}
				variants[s.variant] = true
			}
		}
	}
}

func TestRenamedVariantsHaveDistinctDigests(t *testing.T) {
	for _, circuit := range []string{"c880", "c5315"} {
		design, err := designNetlist(circuit)
		if err != nil {
			t.Fatal(err)
		}
		w := &workload{name: "t", circuit: circuit}
		p := newPlan(w, 5)
		digests := map[string]int{}
		gates := -1
		for k := -1; k < 3; k++ {
			netlist := design
			if k >= 0 {
				netlist = renameVariant(design, p.variantName(k))
			}
			c, err := benchfmt.Parse(bytes.NewReader(netlist))
			if err != nil {
				t.Fatal(err)
			}
			if gates >= 0 && c.NumGates() != gates {
				t.Errorf("%s variant %d has %d gates, want %d", circuit, k, c.NumGates(), gates)
			}
			gates = c.NumGates()
			swept, _ := c.Sweep()
			a, err := core.AnalyzeCtx(context.Background(), swept, core.DefaultOptions(cell.Default()))
			if err != nil {
				t.Fatal(err)
			}
			d := registry.DesignDigest(a)
			if prev, dup := digests[d]; dup {
				t.Errorf("%s: variants %d and %d share digest %s", circuit, prev, k, d)
			}
			digests[d] = k
		}
	}
}

func TestPickIndex(t *testing.T) {
	for pick := uint64(0); pick < 50; pick++ {
		if i := pickIndex(pick, 10, 0); i < 0 || i >= 10 {
			t.Errorf("pickIndex(%d, 10, 0) = %d", pick, i)
		}
		if i := pickIndex(pick, 100, 16); i < 84 || i >= 100 {
			t.Errorf("pickIndex(%d, 100, 16) = %d, want the newest 16", pick, i)
		}
		if i := pickIndex(pick, 5, 16); i < 0 || i >= 5 {
			t.Errorf("pickIndex(%d, 5, 16) = %d", pick, i)
		}
	}
}
