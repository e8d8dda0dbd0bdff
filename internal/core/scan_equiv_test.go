package core

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/cell"
	"repro/internal/circuit"
)

// allSpecs returns the full committed benchmark corpus (Table II suite plus
// the large extras).
func allSpecs() []bench.Spec {
	return append(bench.Suite(), bench.Extras()...)
}

// optionSets covers the analysis knobs the scan branches on.
func optionSets() map[string]Options {
	lib := cell.Default()
	return map[string]Options{
		"default":    DefaultOptions(lib),
		"no-reroute": {Library: lib, AllowConvert: true},
		"no-convert": {Library: lib, AllowReroute: true},
		"one-target": {Library: lib, AllowConvert: true, AllowReroute: true, MaxTargetsPerLocation: 1},
		"deepest":    {Library: lib, AllowConvert: true, AllowReroute: true, Trigger: DeepestTrigger},
	}
}

// embeddedSpecs names the suite circuits whose fingerprinted netlists join
// the scan-equivalence inputs.
var embeddedSpecs = map[string]bool{"c432": true, "c880": true, "c1355": true, "c5315": true, "des": true}

// embeddedNetlists returns post-Embed netlists of c: one canonical
// modification, the full assignment, and the full assignment with every
// other modification disabled (parked inverters, appended helper nodes).
func embeddedNetlists(t *testing.T, name string, c *circuit.Circuit) map[string]*circuit.Circuit {
	t.Helper()
	a, err := Analyze(c, DefaultOptions(cell.Default()))
	if err != nil {
		t.Fatalf("%s: Analyze: %v", name, err)
	}
	if len(a.Locations) == 0 {
		t.Fatalf("%s: no locations to embed", name)
	}
	single := EmptyAssignment(a)
	single[0][0] = 0
	ws, err := NewWorking(a, single)
	if err != nil {
		t.Fatalf("%s: NewWorking(single): %v", name, err)
	}
	wf, err := NewWorking(a, FullAssignment(a))
	if err != nil {
		t.Fatalf("%s: NewWorking(full): %v", name, err)
	}
	wt, err := NewWorking(a, FullAssignment(a))
	if err != nil {
		t.Fatalf("%s: NewWorking(toggled): %v", name, err)
	}
	for m := 0; m < len(wt.Mods); m += 2 {
		if err := wt.Disable(m); err != nil {
			t.Fatalf("%s: Disable(%d): %v", name, m, err)
		}
	}
	return map[string]*circuit.Circuit{"single": ws.C, "full": wf.C, "toggled": wt.C}
}

// TestAnalyzeMatchesBaseline proves the packed-view scan reproduces the
// retained pre-packing implementation bit for bit — same locations, cones,
// targets and variants in the same order — on every committed benchmark,
// on fingerprinted netlists of a few of them, and across every option
// combination.
func TestAnalyzeMatchesBaseline(t *testing.T) {
	inputs := map[string]*circuit.Circuit{}
	for _, spec := range allSpecs() {
		c := spec.Build()
		inputs[spec.Name] = c
		if embeddedSpecs[spec.Name] {
			for label, ec := range embeddedNetlists(t, spec.Name, c) {
				inputs[spec.Name+"+"+label] = ec
			}
		}
	}
	for cname, c := range inputs {
		for name, opts := range optionSets() {
			fast, err := Analyze(c, opts)
			if err != nil {
				t.Fatalf("%s/%s: Analyze: %v", cname, name, err)
			}
			base, err := AnalyzeBaseline(c, opts)
			if err != nil {
				t.Fatalf("%s/%s: AnalyzeBaseline: %v", cname, name, err)
			}
			if !reflect.DeepEqual(fast.Locations, base.Locations) {
				t.Errorf("%s/%s: packed scan diverges from baseline (%d vs %d locations)",
					cname, name, len(fast.Locations), len(base.Locations))
			}
		}
	}
}

// TestAnalyzeGoldenLocations pins the exact location count and the first
// primary-gate IDs of the packed scan on c432/c880/c5315 so a regression in
// either scan implementation cannot slip through as a consistent pair.
func TestAnalyzeGoldenLocations(t *testing.T) {
	golden := map[string]struct {
		locations int
		first     []circuit.NodeID
	}{
		"c432":  {7, []circuit.NodeID{44, 45, 46, 47}},
		"c880":  {82, []circuit.NodeID{200, 201, 202, 203}},
		"c5315": {582, []circuit.NodeID{1212, 1213, 1214, 1215}},
	}
	for name, want := range golden {
		spec, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		c := spec.Build()
		a, err := Analyze(c, DefaultOptions(cell.Default()))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		base, err := AnalyzeBaseline(c, DefaultOptions(cell.Default()))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var primaries []circuit.NodeID
		for i := range a.Locations {
			primaries = append(primaries, a.Locations[i].Primary)
		}
		var basePrimaries []circuit.NodeID
		for i := range base.Locations {
			basePrimaries = append(basePrimaries, base.Locations[i].Primary)
		}
		if !reflect.DeepEqual(primaries, basePrimaries) {
			t.Errorf("%s: primary-gate IDs diverge between packed scan and baseline", name)
		}
		if len(a.Locations) != want.locations {
			t.Errorf("%s: %d locations, want %d", name, len(a.Locations), want.locations)
		}
		if len(primaries) < len(want.first) || !reflect.DeepEqual(primaries[:len(want.first)], want.first) {
			t.Errorf("%s: first primaries %v, want %v", name, primaries[:min(len(primaries), 4)], want.first)
		}
	}
}

// TestAnalysisOwnsItsCatalogue: a finished analysis shares no memory with
// the pooled scan scratch. A c880 analysis stays equal to the baseline
// analysis, digest included, after many later analyses of other circuits
// and options, one after another and concurrently, have reused the scratch;
// each of those matches its own baseline too.
func TestAnalysisOwnsItsCatalogue(t *testing.T) {
	build := func(name string) *circuit.Circuit {
		spec, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return spec.Build()
	}
	analyze := func(c *circuit.Circuit, opts Options, base bool) *Analysis {
		run := Analyze
		if base {
			run = AnalyzeBaseline
		}
		a, err := run(c, opts)
		if err != nil {
			t.Error(err)
		}
		return a
	}
	same := func(label string, got, want *Analysis) {
		if !reflect.DeepEqual(got.Locations, want.Locations) {
			t.Errorf("%s: catalogue differs from the baseline", label)
		}
		if got.Digest() != want.Digest() {
			t.Errorf("%s: digest %s, baseline %s", label, got.Digest(), want.Digest())
		}
	}

	opts := DefaultOptions(cell.Default())
	c880 := build("c880")
	kept, want := analyze(c880, opts, false), analyze(c880, opts, true)
	type job struct {
		label string
		c     *circuit.Circuit
		opts  Options
		want  *Analysis
	}
	var jobs []job
	for _, name := range []string{"c432", "c1908", "vda", "c5315"} {
		c := build(name)
		for oname, o := range optionSets() {
			jobs = append(jobs, job{name + "/" + oname, c, o, analyze(c, o, true)})
		}
	}
	for _, j := range jobs {
		same(j.label, analyze(j.c, j.opts, false), j.want)
	}
	const workers = 4
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(jobs); i += workers {
				j := jobs[i]
				same(j.label+" (concurrent)", analyze(j.c, j.opts, false), j.want)
			}
		}()
	}
	wg.Wait()
	same("c880 after the later analyses", kept, want)
}
