package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"
)

// buildDaemon compiles odcfpd from the repository this module sits in.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "odcfpd")
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/odcfpd")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building odcfpd: %v\n%s", err, out)
	}
	return bin
}

func tinyConfig(t *testing.T, bin string) config {
	cfg := defaultConfig()
	cfg.daemonBin, cfg.workDir, cfg.seconds = bin, t.TempDir(), 0.2
	cfg.setups, cfg.recoveries, cfg.recoverySample = 2, 2, 3
	cfg.preseed = 200
	cfg.minSteps, cfg.traceProbes, cfg.medianProbes = 3, 3, 2
	return cfg
}

// TestTinyPassOfEveryWorkload drives a real daemon through a short run of
// each workload and replays it traced; every check must pass.
func TestTinyPassOfEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("starts odcfpd processes")
	}
	bin := buildDaemon(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := tinyConfig(t, bin)
			res, err := runE2E(w, cfg, 3)
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Fatalf("%d of %d checks failed: %v", res.failed, res.attempted, res.failures)
			}
			if len(res.setup) != cfg.setups || len(res.recover) != cfg.recoveries {
				t.Errorf("timed %d set-ups and %d recoveries, want %d and %d",
					len(res.setup), len(res.recover), cfg.setups, cfg.recoveries)
			}
			if res.ops == 0 || res.peakRSSKB == 0 || res.counters["serve.requests"] == 0 {
				t.Errorf("ops %d, peak RSS %d kB, requests %d", res.ops, res.peakRSSKB, res.counters["serve.requests"])
			}
			lt, err := runTraced(w, cfg, 3, 3, 2)
			if err != nil {
				t.Fatal(err)
			}
			if lt.failed != 0 || lt.attempted == 0 {
				t.Fatalf("traced: %d of %d checks failed: %v", lt.failed, lt.attempted, lt.failures)
			}
			for _, l := range []string{lParse, lWrite, lDigest, lIssue, lTraceExact, lTraceScores,
				lAppend, lLoad, lAnalyze, lSession, lVerify} {
				if len(lt.ms[l]) < 2 {
					t.Errorf("traced: layer %s has %d samples, want 2", l, len(lt.ms[l]))
				}
			}
			if left, _ := os.ReadDir(cfg.workDir); len(left) != 0 {
				t.Errorf("work directory not cleaned: %d entries left", len(left))
			}
		})
	}
}

// benchmarkSpec is the part of BENCHMARK.json the metric names are checked
// against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) *benchmarkSpec {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return &s
}

func synthetic(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = 1 + float64(i%7)
	}
	return xs
}

// TestMetricsMatchBenchmarkJSON checks that both reductions emit exactly
// the metrics BENCHMARK.json declares, with its units, and no zeros.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	spec := readSpec(t)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var declared []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	sort.Strings(names)
	sort.Strings(declared)
	if !equalStrings(names, declared) {
		t.Errorf("workloads %v, BENCHMARK.json declares %v", names, declared)
	}

	res := &e2eResult{
		lat:   map[string][]float64{"issue": synthetic(1000), "trace": synthetic(1000), "scores": synthetic(40), "upload": synthetic(40)},
		cpu:   map[string][]float64{"issue": synthetic(1000), "trace": synthetic(1000), "scores": synthetic(40), "upload": synthetic(40)},
		setup: []float64{1, 2, 3}, recover: []float64{0.1, 0.2},
		ops: 100, elapsed: 10, cpuTicks: 50, peakRSSKB: 4096,
		counters: map[string]int64{"sat.conflicts": 5, "sat.propagations": 50, "cec.sweep_solves": 3,
			"serve.cache_hits": 9, "serve.cache_misses": 1, "serve.requests": 120, "registrystore.appends": 40},
		scoresRespBytes: synthetic(40),
	}
	lt := &layerTimes{ms: map[string][]float64{}, allocKB: map[string][]float64{},
		mintMsPerCopy: synthetic(30), appendKB: synthetic(30)}
	for _, l := range []string{lParse, lWrite, lDigest, lIssue, lTraceExact, lTraceScores,
		lAppend, lLoad, lAnalyze, lSession, lVerify} {
		lt.ms[l] = synthetic(30)
		lt.allocKB[l] = synthetic(30)
	}
	e2e, err := endToEnd(res)
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got map[string]metric, want []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(got) != len(want) {
			t.Errorf("%s: emitted %d metrics, BENCHMARK.json declares %d", kind, len(got), len(want))
		}
		for _, d := range want {
			m, ok := got[d.Name]
			switch {
			case !ok:
				t.Errorf("%s: %s declared but not emitted", kind, d.Name)
			case m.Unit != d.Unit:
				t.Errorf("%s: %s unit %q, declared %q", kind, d.Name, m.Unit, d.Unit)
			case m.Value == 0:
				t.Errorf("%s: %s is 0", kind, d.Name)
			}
		}
	}
	check("end_to_end", e2e, spec.EndToEnd)
	for _, w := range workloads {
		pl, err := perLayer(w, res, lt, &runRecord{}, 97, 80)
		if err != nil {
			t.Fatal(err)
		}
		check("per_layer/"+w.name, pl, spec.PerLayer)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
