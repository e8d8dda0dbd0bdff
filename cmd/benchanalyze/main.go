// Command benchanalyze times the packed-array analysis core against the
// reference baseline scan and records the result as a JSON baseline
// artefact: one cold fingerprint analysis per circuit, packed Analyze vs
// AnalyzeBaseline. Both scans must report identical location sets.
//
//	benchanalyze                                  c880,c5315,c7552 → BENCH_analyze.json
//	benchanalyze -circuits c880,c5315 -min-cold 3
//	benchanalyze -reps 10 -o /tmp/b.json
//
// Timing protocol: each circuit is built and validated once, untimed —
// mirroring the daemon, which parses and validates an upload before the
// analysis it retains. Each timed measurement is the minimum over -reps
// repetitions with a garbage-collection quiesce before each one, so the
// number reported is the latency of one analysis, not of the benchmark
// loop's own discarded garbage. The -min-cold acceptance gate applies to
// the last circuit listed (the largest in the default set).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/cell"
	"repro/internal/core"
)

// Baseline is the JSON schema of the emitted artefact.
type Baseline struct {
	Reps     int             `json:"reps"`
	Circuits []CircuitResult `json:"circuits"`
}

// CircuitResult is one circuit's measurements: cold analysis, packed vs
// baseline scan.
type CircuitResult struct {
	Circuit      string  `json:"circuit"`
	Gates        int     `json:"gates"`
	Locations    int     `json:"locations"`
	ColdSecs     float64 `json:"cold_secs"`
	BaselineSecs float64 `json:"baseline_secs"`
	ColdSpeedup  float64 `json:"cold_speedup"`
}

func main() {
	circuits := flag.String("circuits", "c880,c5315,c7552", "comma-separated benchmark circuits")
	reps := flag.Int("reps", 25, "repetitions per measurement (minimum is reported)")
	out := flag.String("o", "BENCH_analyze.json", "output JSON path")
	minCold := flag.Float64("min-cold", 0, "fail below this cold speedup on the last circuit (0 = report only)")
	flag.Parse()

	names := strings.Split(*circuits, ",")
	b := Baseline{Reps: *reps}
	for _, name := range names {
		res, err := measure(strings.TrimSpace(name), *reps)
		fail(err)
		b.Circuits = append(b.Circuits, res)
		fmt.Printf("%s: cold %.0fµs vs baseline %.0fµs — %.1f× (%d locations)\n",
			res.Circuit, res.ColdSecs*1e6, res.BaselineSecs*1e6, res.ColdSpeedup, res.Locations)
	}
	data, err := json.MarshalIndent(b, "", "  ")
	fail(err)
	fail(os.WriteFile(*out, append(data, '\n'), 0o644))

	last := b.Circuits[len(b.Circuits)-1]
	if *minCold > 0 && last.ColdSpeedup < *minCold {
		fail(fmt.Errorf("%s: cold speedup %.2f× below the %.1f× acceptance bar", last.Circuit, last.ColdSpeedup, *minCold))
	}
}

// measure runs the full protocol on one circuit.
func measure(name string, reps int) (CircuitResult, error) {
	spec, err := bench.ByName(name)
	if err != nil {
		return CircuitResult{}, err
	}
	c := spec.Build()
	if err := c.Validate(); err != nil {
		return CircuitResult{}, err
	}
	opts := core.DefaultOptions(cell.Default())

	// Equivalence first, untimed: the two scans must locate identically.
	fast, err := core.Analyze(c, opts)
	if err != nil {
		return CircuitResult{}, err
	}
	base, err := core.AnalyzeBaseline(c, opts)
	if err != nil {
		return CircuitResult{}, err
	}
	if !reflect.DeepEqual(fast.Locations, base.Locations) {
		return CircuitResult{}, fmt.Errorf("%s: packed and baseline scans disagree (%d vs %d locations)",
			name, fast.NumLocations(), base.NumLocations())
	}

	res := CircuitResult{Circuit: name, Gates: c.NumGates(), Locations: fast.NumLocations()}
	res.ColdSecs = minTime(reps, func() error {
		_, err := core.Analyze(c, opts)
		return err
	})
	res.BaselineSecs = minTime(reps, func() error {
		_, err := core.AnalyzeBaseline(c, opts)
		return err
	})
	res.ColdSpeedup = res.BaselineSecs / res.ColdSecs
	return res, nil
}

// minTime reports the fastest of reps timed calls, quiescing the collector
// before each one so a call pays only for its own work.
func minTime(reps int, f func() error) float64 {
	best := math.MaxFloat64
	for r := 0; r < reps; r++ {
		runtime.GC()
		t0 := time.Now()
		if err := f(); err != nil {
			fail(err)
		}
		if d := time.Since(t0).Seconds(); d < best {
			best = d
		}
	}
	return best
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchanalyze:", err)
		os.Exit(1)
	}
}
