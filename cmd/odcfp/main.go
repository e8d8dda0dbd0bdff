// Command odcfp is the circuit-fingerprinting CLI: it analyses netlists for
// ODC fingerprint locations, embeds and extracts fingerprints, verifies
// functional equivalence and runs the delay-constrained heuristics.
//
// Usage:
//
//	odcfp stats       -in design.v|design.blif
//	odcfp analyze     -in design.v
//	odcfp fingerprint -in design.v -out fp.v [-value N | -bits 1011 | -all]
//	odcfp extract     -in design.v -copy fp.v
//	odcfp verify      -in design.v -copy fp.v
//	odcfp constrain   -in design.v -out fp.v -budget 0.05 [-method reactive|proactive]
//
// Netlist format is inferred from the file extension: .blif, .v or .bench
// on input, .v or .bench on output. BLIF input is technology-mapped onto
// the default library first.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/big"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"repro"
	"repro/internal/atomicfile"
	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/registry"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "stats":
		err = cmdStats(args)
	case "analyze":
		err = cmdAnalyze(args)
	case "fingerprint":
		err = cmdFingerprint(args)
	case "extract":
		err = cmdExtract(args)
	case "verify":
		err = cmdVerify(args)
	case "constrain":
		err = cmdConstrain(args)
	case "watermark":
		err = cmdWatermark(args)
	case "sdc":
		err = cmdSDC(args)
	case "issue":
		err = cmdIssue(args)
	case "trace":
		err = cmdTrace(args)
	case "catalogue", "catalog":
		fmt.Print(core.CatalogueString())
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "odcfp: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "odcfp:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `odcfp — ODC-based circuit fingerprinting (Dunbar & Qu, DAC 2015)

commands:
  stats       -in F                 print gate/area/delay/power metrics
  analyze     -in F                 list fingerprint locations and capacity
  fingerprint -in F -out G          embed a fingerprint
              [-value N]            mixed-radix fingerprint value (decimal)
              [-bits 1011...]       binary fingerprint, one bit per location
              [-all]                modify every location (default)
  extract     -in F -copy G         recover the fingerprint from a copy
  verify      -in F -copy G         prove functional equivalence (SAT)
  constrain   -in F -out G -budget B [-method reactive|proactive] [-seed N] [-j N]
  watermark   -in F -key K -slots N [-out G | -verify G]
  sdc         -in F [-out G -bits 1011]    analyse/embed SDC fingerprints
  issue       -in F -registry R.json -buyer NAME -out G
  trace       -in F -registry R.json -copy G [-scores]
  catalogue                                print the modification lookup table

Netlists are read as .blif, .v or .bench and written as .v or .bench, by
file extension.
`)
}

// readNetlist reads the netlist at path and names its format by the
// file extension, as ingest reads it.
func readNetlist(path string) (format string, data []byte, err error) {
	if data, err = os.ReadFile(path); err != nil {
		return "", nil, err
	}
	switch strings.ToLower(filepath.Ext(path)) {
	case ".blif":
		return "blif", data, nil
	case ".v", ".verilog":
		return "v", data, nil
	case ".bench":
		return "bench", data, nil
	}
	return "", nil, fmt.Errorf("cannot infer format of %q (want .blif, .v or .bench)", path)
}

// readCircuit reads the netlist at path into a circuit, unswept.
func readCircuit(path string) (*odcfp.Circuit, error) {
	format, data, err := readNetlist(path)
	if err != nil {
		return nil, err
	}
	c, err := ingest.Parse(format, data)
	if err != nil {
		return nil, err
	}
	// Same structural gate as the daemon's upload handler: a netlist that
	// parses but is malformed (undriven inputs, cycles) fails here with the
	// diagnostic instead of deep inside analysis.
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("%s: invalid netlist: %w", path, err)
	}
	return c, nil
}

// loadAnalysis reads and analyses the original design as the daemon's
// upload does (ingest.Analyze: swept, default options), so the digests of
// its registries match the daemon's.
func loadAnalysis(path string) (*odcfp.Analysis, error) {
	format, data, err := readNetlist(path)
	if err != nil {
		return nil, err
	}
	a, err := ingest.Analyze(context.Background(), format, data)
	return a, invalidAt(path, err)
}

// readSwept reads the netlist at path into the swept circuit loadAnalysis
// analyses (ingest.Swept).
func readSwept(path string) (*odcfp.Circuit, error) {
	format, data, err := readNetlist(path)
	if err != nil {
		return nil, err
	}
	c, err := ingest.Swept(format, data)
	return c, invalidAt(path, err)
}

// invalidAt words a netlist ingest refused as invalid as readCircuit does,
// under its path; other errors pass unchanged.
func invalidAt(path string, err error) error {
	var re *ingest.ReadError
	if errors.As(err, &re) && re.Invalid {
		return fmt.Errorf("%s: invalid netlist: %w", path, re.Err)
	}
	return err
}

// writeCircuit writes c in the format path's extension names, as
// readCircuit reads it back.
func writeCircuit(path string, c *odcfp.Circuit) error {
	var write func(io.Writer, *odcfp.Circuit) error
	switch strings.ToLower(filepath.Ext(path)) {
	case ".v", ".verilog":
		write = odcfp.WriteVerilog
	case ".bench":
		write = odcfp.WriteBench
	default:
		return fmt.Errorf("cannot infer output format of %q (want .v or .bench)", path)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f, c); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	in := fs.String("in", "", "input netlist (.blif or .v)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("-in is required")
	}
	c, err := readCircuit(*in)
	if err != nil {
		return err
	}
	m, err := odcfp.Measure(c, odcfp.DefaultLibrary())
	if err != nil {
		return err
	}
	st := c.Stats()
	fmt.Printf("circuit %s\n", c.Name)
	fmt.Printf("  PIs %d  POs %d  gates %d  depth %d\n", st.PIs, st.POs, st.Gates, st.Depth)
	fmt.Printf("  area  %.0f\n  delay %.3f\n  power %.1f\n", m.Area, m.Delay, m.Power)
	return nil
}

func cmdAnalyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	in := fs.String("in", "", "input netlist")
	verbose := fs.Bool("v", false, "list every location")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("-in is required")
	}
	c, err := readCircuit(*in)
	if err != nil {
		return err
	}
	a, err := odcfp.Analyze(c, odcfp.DefaultLibrary())
	if err != nil {
		return err
	}
	cap := a.Capacity()
	fmt.Printf("circuit %s: %d fingerprint locations, %d modification slots\n",
		c.Name, cap.Locations, cap.Targets)
	fmt.Printf("capacity: 2^%.2f combinations (%s distinct fingerprints)\n",
		cap.Log2Combos, a.Combinations().String())
	if *verbose {
		for i := range a.Locations {
			loc := &a.Locations[i]
			fmt.Printf("  [%3d] primary %-14s trigger %-14s ffc-root %-14s targets %d configs %.0f\n",
				i, c.Nodes[loc.Primary].Name, c.Nodes[loc.Trigger].Name,
				c.Nodes[loc.FFCRoot].Name, len(loc.Targets), loc.Configs())
		}
	}
	return nil
}

func cmdFingerprint(args []string) error {
	fs := flag.NewFlagSet("fingerprint", flag.ExitOnError)
	in := fs.String("in", "", "input netlist")
	out := fs.String("out", "", "output netlist (.v or .bench)")
	value := fs.String("value", "", "fingerprint value (decimal)")
	bits := fs.String("bits", "", "binary fingerprint string, MSB first")
	all := fs.Bool("all", false, "modify every location")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		return fmt.Errorf("-in and -out are required")
	}
	c, err := readCircuit(*in)
	if err != nil {
		return err
	}
	lib := odcfp.DefaultLibrary()
	var res *odcfp.Result
	switch {
	case *bits != "":
		bs := make([]bool, 0, len(*bits))
		for _, ch := range *bits {
			switch ch {
			case '0':
				bs = append(bs, false)
			case '1':
				bs = append(bs, true)
			default:
				return fmt.Errorf("-bits must be a 0/1 string")
			}
		}
		res, err = odcfp.FingerprintBits(c, lib, bs)
	case *value != "":
		v, ok := new(big.Int).SetString(*value, 10)
		if !ok {
			return fmt.Errorf("-value %q is not a decimal integer", *value)
		}
		res, err = odcfp.Fingerprint(c, lib, v)
	default:
		_ = all
		res, err = odcfp.Fingerprint(c, lib, nil)
	}
	if err != nil {
		return err
	}
	proof, err := res.Verify()
	if err != nil {
		return fmt.Errorf("embedded fingerprint failed verification: %w", err)
	}
	if err := writeCircuit(*out, res.Fingerprinted); err != nil {
		return err
	}
	fmt.Printf("embedded %d modifications across %d locations (capacity 2^%.2f)\n",
		res.Assignment.CountActive(), res.Analysis.NumLocations(), res.Analysis.Capacity().Log2Combos)
	fmt.Printf("overhead: area %+.2f%%  delay %+.2f%%  power %+.2f%%\n",
		100*res.Overhead.Area, 100*res.Overhead.Delay, 100*res.Overhead.Power)
	fmt.Printf("verified functionally equivalent (%s)\n", proof)
	return nil
}

func cmdExtract(args []string) error {
	fs := flag.NewFlagSet("extract", flag.ExitOnError)
	in := fs.String("in", "", "original netlist")
	cp := fs.String("copy", "", "suspect/fingerprinted netlist")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *cp == "" {
		return fmt.Errorf("-in and -copy are required")
	}
	// Analysis runs on the swept original, exactly as Fingerprint does.
	a, err := loadAnalysis(*in)
	if err != nil {
		return err
	}
	copyCkt, err := readCircuit(*cp)
	if err != nil {
		return err
	}
	asg, err := odcfp.Extract(a, copyCkt)
	if err != nil {
		return err
	}
	v, err := a.IntFromAssignment(asg)
	if err != nil {
		return err
	}
	fmt.Printf("fingerprint value: %s\n", v.String())
	fmt.Printf("modifications: %d of %d locations\n", asg.CountActive(), a.NumLocations())
	return nil
}

func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	in := fs.String("in", "", "first netlist")
	cp := fs.String("copy", "", "second netlist")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *cp == "" {
		return fmt.Errorf("-in and -copy are required")
	}
	x, err := readCircuit(*in)
	if err != nil {
		return err
	}
	y, err := readCircuit(*cp)
	if err != nil {
		return err
	}
	if err := odcfp.Equivalent(x, y); err != nil {
		return err
	}
	fmt.Println("equivalent (proved by simulation + SAT)")
	return nil
}

func cmdIssue(args []string) error {
	fs := flag.NewFlagSet("issue", flag.ExitOnError)
	in := fs.String("in", "", "original netlist")
	regPath := fs.String("registry", "", "registry JSON (created if missing)")
	buyer := fs.String("buyer", "", "buyer name")
	out := fs.String("out", "", "output netlist for the buyer's copy")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *regPath == "" || *buyer == "" || *out == "" {
		return fmt.Errorf("-in, -registry, -buyer and -out are required")
	}
	a, err := loadAnalysis(*in)
	if err != nil {
		return err
	}
	var reg *registry.Registry
	if f, err := os.Open(*regPath); err == nil {
		reg, err = registry.Load(f, a)
		f.Close()
		if err != nil {
			return err
		}
	} else {
		reg = registry.New(a)
	}
	items, err := reg.IssueBatch(context.Background(), a, []string{*buyer})
	if err != nil {
		return err
	}
	cp, value := items[0].Circuit, items[0].Value
	if err := odcfp.Equivalent(a.Circuit, cp); err != nil {
		return fmt.Errorf("issued copy failed verification: %w", err)
	}
	if err := writeCircuit(*out, cp); err != nil {
		return err
	}
	if err := atomicfile.Write(*regPath, 0o644, reg.Save); err != nil {
		return fmt.Errorf("writing registry: %w", err)
	}
	fmt.Printf("issued fingerprint %s to %q (%d buyers registered); copy verified\n",
		value, *buyer, len(reg.Buyers()))
	return nil
}

func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	in := fs.String("in", "", "original netlist")
	regPath := fs.String("registry", "", "registry JSON")
	cp := fs.String("copy", "", "suspect netlist")
	scores := fs.Bool("scores", false, "print marking-assumption scores for all buyers")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *regPath == "" || *cp == "" {
		return fmt.Errorf("-in, -registry and -copy are required")
	}
	a, err := loadAnalysis(*in)
	if err != nil {
		return err
	}
	f, err := os.Open(*regPath)
	if err != nil {
		return err
	}
	reg, err := registry.Load(f, a)
	f.Close()
	if err != nil {
		return err
	}
	suspect, err := readCircuit(*cp)
	if err != nil {
		return err
	}
	if *scores {
		ss, err := reg.TraceScores(a, suspect)
		if err != nil {
			return err
		}
		fmt.Printf("%-16s %10s %10s\n", "buyer", "present", "all-slots")
		for _, s := range ss {
			fmt.Printf("%-16s %7d/%-3d %9.3f\n", s.Name, s.AgreePresent, s.TotalPresent, s.FractionAll())
		}
		return nil
	}
	buyer, err := reg.TraceExact(a, suspect)
	if err != nil {
		return err
	}
	fmt.Printf("suspect copy traces to buyer %q\n", buyer)
	return nil
}

func cmdWatermark(args []string) error {
	fs := flag.NewFlagSet("watermark", flag.ExitOnError)
	in := fs.String("in", "", "original netlist")
	key := fs.String("key", "", "designer secret key")
	slots := fs.Int("slots", 16, "watermark slot count")
	out := fs.String("out", "", "write a watermarked copy here")
	verify := fs.String("verify", "", "verify this suspect netlist instead")
	canonical := fs.Bool("canonical", false, "restrict to canonical (fuse-compatible) slots")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *key == "" {
		return fmt.Errorf("-in and -key are required")
	}
	a, err := loadAnalysis(*in)
	if err != nil {
		return err
	}
	p := odcfp.WatermarkParams{Key: []byte(*key), Slots: *slots, CanonicalOnly: *canonical}
	switch {
	case *verify != "":
		suspect, err := readCircuit(*verify)
		if err != nil {
			return err
		}
		e, err := odcfp.VerifyWatermark(a, p, suspect)
		if err != nil {
			return err
		}
		fmt.Printf("watermark evidence: %d/%d slots matched (%.1f bits)\n", e.Matched, e.Total, e.MatchedBits)
		if e.Matched == e.Total {
			fmt.Println("authorship established")
		}
		return nil
	case *out != "":
		m, err := odcfp.PlanWatermark(a, p)
		if err != nil {
			return err
		}
		marked, err := odcfp.Embed(a, m.Assignment)
		if err != nil {
			return err
		}
		if err := odcfp.Equivalent(a.Circuit, marked); err != nil {
			return fmt.Errorf("watermark failed verification: %w", err)
		}
		if err := writeCircuit(*out, marked); err != nil {
			return err
		}
		fmt.Printf("embedded %d-slot watermark (%.1f bits of evidence); function verified\n", len(m.Slots), m.Bits)
		return nil
	default:
		return fmt.Errorf("one of -out or -verify is required")
	}
}

func cmdSDC(args []string) error {
	fs := flag.NewFlagSet("sdc", flag.ExitOnError)
	in := fs.String("in", "", "input netlist")
	out := fs.String("out", "", "output netlist (with -bits)")
	bits := fs.String("bits", "", "binary SDC fingerprint")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("-in is required")
	}
	swept, err := readSwept(*in)
	if err != nil {
		return err
	}
	a, err := odcfp.AnalyzeSDC(swept, odcfp.DefaultLibrary())
	if err != nil {
		return err
	}
	fmt.Printf("circuit %s: %d SDC fingerprint locations (SAT-proved)\n", swept.Name, a.NumLocations())
	for i, loc := range a.Locations {
		fmt.Printf("  [%3d] gate %-14s minterm %d → %v\n", i, swept.Nodes[loc.Gate].Name, loc.Minterm, loc.Alt.Kind)
	}
	if *bits == "" {
		return nil
	}
	if *out == "" {
		return fmt.Errorf("-out is required with -bits")
	}
	bs := make([]bool, 0, len(*bits))
	for _, ch := range *bits {
		switch ch {
		case '0':
			bs = append(bs, false)
		case '1':
			bs = append(bs, true)
		default:
			return fmt.Errorf("-bits must be a 0/1 string")
		}
	}
	fp, err := odcfp.EmbedSDC(a, bs)
	if err != nil {
		return err
	}
	if err := odcfp.Equivalent(swept, fp); err != nil {
		return fmt.Errorf("SDC fingerprint failed verification: %w", err)
	}
	if err := writeCircuit(*out, fp); err != nil {
		return err
	}
	fmt.Printf("embedded %d SDC bits; function verified\n", len(bs))
	return nil
}

func cmdConstrain(args []string) error {
	fs := flag.NewFlagSet("constrain", flag.ExitOnError)
	in := fs.String("in", "", "input netlist")
	out := fs.String("out", "", "output netlist (.v or .bench)")
	budget := fs.Float64("budget", 0.05, "fractional delay budget (0.05 = +5%)")
	method := fs.String("method", "reactive", "reactive or proactive")
	seed := fs.Int64("seed", 1, "random seed for the reactive kicks")
	jobs := fs.Int("j", runtime.GOMAXPROCS(0), "trial-evaluation workers (result is identical at any count)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		return fmt.Errorf("-in and -out are required")
	}
	a, err := loadAnalysis(*in)
	if err != nil {
		return err
	}
	lib := odcfp.DefaultLibrary()
	opts := odcfp.ConstrainOptions{Library: lib, DelayBudget: *budget, Seed: *seed, Workers: *jobs}
	var res *odcfp.ConstrainResult
	switch *method {
	case "reactive":
		res, err = odcfp.ConstrainReactive(a, opts)
	case "proactive":
		res, err = odcfp.ConstrainProactive(a, opts)
	default:
		return fmt.Errorf("unknown method %q", *method)
	}
	if err != nil {
		return err
	}
	fp, err := odcfp.Embed(a, res.Assignment)
	if err != nil {
		return err
	}
	if err := writeCircuit(*out, fp); err != nil {
		return err
	}
	fmt.Printf("%s heuristic at %.0f%% delay budget:\n", *method, 100**budget)
	fmt.Printf("  kept %d / removed %d modifications (%.1f%% reduction)\n",
		res.Kept, res.Removed, 100*res.FingerprintReduction)
	fmt.Printf("  overhead: area %+.2f%%  delay %+.2f%%  power %+.2f%%\n",
		100*res.Overhead.Area, 100*res.Overhead.Delay, 100*res.Overhead.Power)
	fmt.Printf("  timing evaluations: %d\n", res.STACalls)
	return nil
}
