// Command perfbench is the repository's benchmark: it drives a separate
// odcfpd process through one seeded workload in a closed loop over one
// keep-alive connection, checks every response, and prints the measured
// metrics as the last line of its output. With --trace 1 it adds an
// in-process traced run that replays the same seeded inputs through the
// public functions the daemon's handlers call and reports per-layer
// metrics instead.
//
// Usage, from the repository root (run.sh builds both binaries first):
//
//	bash perfbench/run.sh --workload interactive|mature|onboard \
//	    --seed N --seconds S --trace 0|1
//	bash perfbench/run.sh --spread result1.txt result2.txt ...
//
// The result line is {"correct", "attempted", "failed", "metrics"}; a
// record of the machine, toolchain, source and host behaviour goes to
// standard error. --spread reads saved outputs of repeated runs and prints
// each metric's median and interquartile spread.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tracedReps is the least number of timed calls behind each per-layer
// median (ten samples beyond it).
var tracedReps = minSamples(0.5)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	wname := fs.String("workload", "", "workload: interactive, mature or onboard")
	seed := fs.Int64("seed", 1, "workload seed (buyer names, op order, variant names, sampled copies)")
	seconds := fs.Float64("seconds", 10, "length of the timed phase")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from an added traced run")
	daemonBin := fs.String("daemon", ".bench_build/odcfpd", "odcfpd binary")
	workDir := fs.String("work", ".bench_build/work", "directory for the daemon's stores")
	spreadMode := fs.Bool("spread", false, "print the spread of saved results (files as arguments)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *spreadMode {
		return printSpread(fs.Args())
	}
	w, err := workloadByName(*wname)
	if err != nil {
		return err
	}
	if _, err := os.Stat(*daemonBin); err != nil {
		return fmt.Errorf("odcfpd binary: %w", err)
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		return err
	}
	cfg := defaultConfig()
	cfg.daemonBin, cfg.workDir, cfg.seconds = *daemonBin, *workDir, *seconds
	cfg.gomaxprocs = min(cfg.gomaxprocs, runtime.NumCPU())
	runtime.GOMAXPROCS(cfg.gomaxprocs)
	// The client's own garbage collection shares the CPUs with the daemon;
	// collecting less often keeps it out of more of the daemon's requests.
	debug.SetGCPercent(400)

	rec := &runRecord{Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		CPUModel: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: cfg.gomaxprocs,
		GoVersion: runtime.Version(), Commit: sourceCommit("."), StoreFS: fsType(*workDir)}
	host0, err := readHostCPU()
	if err != nil {
		return err
	}
	refBefore := refKernelMs(3)

	res, err := runE2E(w, cfg, *seed)
	if err != nil {
		if res != nil && res.failed > 0 {
			// Failed checks are reported even when the run cannot go on.
			printResult(result{Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metric{}})
			fmt.Fprintf(os.Stderr, "perfbench: failures: %q\n", res.failures)
		}
		return err
	}
	var lt *layerTimes
	if *trace == 1 {
		runtime.GC()
		steps := (w.mixSteps(cfg.seconds, cfg.minSteps) + 1) / 2
		if lt, err = runTraced(w, cfg, *seed, steps, tracedReps); err != nil {
			return err
		}
	}

	refAfter := refKernelMs(3)
	host1, err := readHostCPU()
	if err != nil {
		return err
	}
	rec.StealPct = stealPct(host0, host1)
	rec.RefMsBefore, rec.RefMsAfter = median(refBefore), median(refAfter)
	rec.Steps, rec.PhaseS = res.steps, res.elapsed
	rec.SetupS, rec.RecoverS, rec.Counters = res.setup, res.recover, res.counters
	rec.Samples = map[string]int{}
	for op, xs := range res.lat {
		rec.Samples[op] = len(xs)
	}
	rec.Failures = res.failures

	out := result{Attempted: res.attempted, Failed: res.failed}
	if lt == nil {
		out.Metrics, err = endToEnd(res)
	} else {
		out.Attempted += lt.attempted
		out.Failed += lt.failed
		rec.Failures = append(rec.Failures, lt.failures...)
		host := append(refBefore, refAfter...)
		out.Metrics, err = perLayer(w, res, lt, rec, 100-rec.StealPct, median(host))
	}
	if err != nil {
		return err
	}
	if b, err := json.Marshal(rec); err == nil {
		fmt.Fprintf(os.Stderr, "perfbench record: %s\n", b)
	}
	printResult(out)
	if out.Failed > 0 {
		return fmt.Errorf("%d of %d checks failed", out.Failed, out.Attempted)
	}
	return nil
}

// printResult prints the result line; correct is derived from failed.
func printResult(out result) {
	out.Correct = out.Failed == 0
	b, _ := json.Marshal(out)
	fmt.Println(string(b))
}

// endToEnd reduces the end-to-end run to the gated metrics.
func endToEnd(res *e2eResult) (map[string]metric, error) {
	if res.ops == 0 {
		return nil, errors.New("no operation completed")
	}
	m := map[string]metric{}
	// Garbage one request leaves is collected during the next, so a
	// request's CPU charge has a tail of its neighbours' collections; the
	// median is the request's own cost.
	for _, op := range []string{"issue", "trace", "scores", "upload"} {
		v, err := percentile(res.cpu[op], 0.5)
		if err != nil {
			return nil, fmt.Errorf("%s_cpu_ms: %w", op, err)
		}
		m[op+"_cpu_ms"] = metric{v, "ms"}
	}
	if len(res.setup) == 0 {
		return nil, errors.New("no successful set-up to time")
	}
	m["setup_s"] = metric{median(res.setup), "s"}
	mixMs := float64(res.cpuTicks)*1000/clockTicks - res.probeCPUms
	m["cpu_ms_per_op"] = metric{mixMs / float64(res.ops), "ms"}
	m["peak_rss_mb"] = metric{float64(res.peakRSSKB) / 1024, "MiB"}
	return m, nil
}

// perLayer reduces the traced run, together with the end-to-end run it
// followed, to the per-layer metrics.
func perLayer(w *workload, res *e2eResult, lt *layerTimes, rec *runRecord, unstolenPct, refMs float64) (map[string]metric, error) {
	m := map[string]metric{}
	med := func(name string, xs []float64, unit string, scale float64) error {
		v, err := percentile(xs, 0.5)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		m[name] = metric{v * scale, unit}
		return nil
	}
	for _, l := range []string{lParse, lWrite, lDigest, lIssue, lTraceExact, lTraceScores,
		lAppend, lLoad, lAnalyze, lSession, lVerify} {
		if err := med(l+"_ms", lt.ms[l], "ms", 1); err != nil {
			return nil, err
		}
	}
	for _, l := range []string{lParse, lIssue, lTraceScores} {
		if err := med(l+"_alloc_kb", lt.allocKB[l], "KiB", 1); err != nil {
			return nil, err
		}
	}
	if err := med("registry.mint_ms_per_copy", lt.mintMsPerCopy, "ms", 1); err != nil {
		return nil, err
	}
	if err := med("registrystore.append_kb", lt.appendKB, "KiB", 1); err != nil {
		return nil, err
	}
	if err := med("serve.scores_resp_kb", res.scoresRespBytes, "KiB", 1.0/1024); err != nil {
		return nil, err
	}

	c := res.counters
	ops := float64(res.ops)
	m["sat.conflicts_per_op"] = metric{float64(c["sat.conflicts"]) / ops, "count"}
	m["sat.propagations_per_op"] = metric{float64(c["sat.propagations"]) / ops, "count"}
	cecSolves := c["cec.sweep_solves"] + c["cec.universal_solves"] + c["cec.assumption_solves"]
	m["cec.solves_per_op"] = metric{float64(cecSolves) / ops, "count"}
	lookups := c["serve.cache_hits"] + c["serve.cache_misses"]
	if lookups == 0 || c["serve.requests"] == 0 {
		return nil, errors.New("daemon counters report no cache lookups or requests")
	}
	m["serve.cache_hit_ratio"] = metric{float64(c["serve.cache_hits"]) / float64(lookups), "ratio"}
	m["serve.admitted_ratio"] = metric{1 - float64(c["serve.shed_requests"])/float64(c["serve.requests"]), "ratio"}
	appends := c["registrystore.appends"]
	m["serve.store_first_try_ratio"] = metric{float64(appends) / float64(appends+c["serve.store_retries"]), "ratio"}

	// Layer shares: the medians of the layer calls one such request makes
	// in the daemon, summed, over the request's end-to-end median. What is
	// missing from 1 is serving overhead (HTTP, JSON, pool admission, GC);
	// above 1 the in-process calls ran slower than the daemon's.
	issueLayers := []string{lIssue, lAppend, lWrite}
	if w.name == "onboard" {
		issueLayers = append(issueLayers, lSession)
	} else if w.verify {
		issueLayers = append(issueLayers, lVerify)
	}
	for _, q := range []struct {
		name, op string
		layers   []string
	}{
		{"serve.issue_layer_share", "issue", issueLayers},
		{"serve.trace_layer_share", "trace", []string{lParse, lTraceExact}},
	} {
		p50, err := percentile(res.lat[q.op], 0.5)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.name, err)
		}
		var sum float64
		for _, l := range q.layers {
			sum += m[l+"_ms"].Value
		}
		m[q.name] = metric{sum / p50, "ratio"}
	}
	for _, op := range []string{"issue", "trace", "scores", "upload"} {
		if err := med("serve."+op+"_p50_ms", res.lat[op], "ms", 1); err != nil {
			return nil, err
		}
	}
	m["serve.ops_per_s"] = metric{float64(res.ops+res.probeOps) / res.elapsed, "1/s"}
	rec.Tails = map[string]string{}
	for _, op := range []string{"issue", "trace"} {
		p90, err := percentile(res.lat[op], 0.9)
		if err != nil {
			return nil, fmt.Errorf("%s p90: %w", op, err)
		}
		m["serve."+op+"_p90_ms"] = metric{p90, "ms"}
		p, v, err := tail(res.lat[op])
		if err != nil {
			return nil, fmt.Errorf("%s tail: %w", op, err)
		}
		m["serve."+op+"_tail_ms"] = metric{v, "ms"}
		rec.Tails["serve."+op+"_tail_ms"] = fmt.Sprintf("p%g of %d", p*100, len(res.lat[op]))
	}
	if len(res.recover) == 0 {
		return nil, errors.New("no successful recovery to time")
	}
	m["serve.recover_s"] = metric{median(res.recover), "s"}
	m["host.unstolen_pct"] = metric{unstolenPct, "%"}
	m["host.ref_ms"] = metric{refMs, "ms"}
	return m, nil
}

// tail is the highest of p99, p95 and p90 that has ten samples beyond it.
func tail(xs []float64) (float64, float64, error) {
	var err error
	for _, p := range []float64{0.99, 0.95, 0.9} {
		var v float64
		if v, err = percentile(xs, p); err == nil {
			return p, v, nil
		}
	}
	return 0, 0, err
}

// printSpread reads the last line of each saved run output and prints,
// per metric, the median and the interquartile distance as a share of it —
// the figure a benchmark bound is judged against.
func printSpread(files []string) error {
	vals := map[string][]float64{}
	for _, f := range files {
		r, err := lastResult(f)
		if err != nil {
			return fmt.Errorf("%s: %w", f, err)
		}
		for k, v := range r.Metrics {
			vals[k] = append(vals[k], v.Value)
		}
	}
	names := make([]string, 0, len(vals))
	for k := range vals {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		s, err := spread(vals[k])
		if err != nil {
			return fmt.Errorf("%s: %w", k, err)
		}
		fmt.Printf("%-32s n=%-3d median=%-12.5g spread=%.4f\n", k, len(vals[k]), median(vals[k]), math.Abs(s))
	}
	return nil
}

func lastResult(path string) (*result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var last string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if t := sc.Text(); t != "" {
			last = t
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return nil, fmt.Errorf("last line is not a result: %w", err)
	}
	return &r, nil
}
