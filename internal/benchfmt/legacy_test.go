package benchfmt

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"repro/internal/circuit"
	"repro/internal/logic"
)

var legacyKindToName = map[logic.Kind]string{
	logic.And:    "AND",
	logic.Nand:   "NAND",
	logic.Or:     "OR",
	logic.Nor:    "NOR",
	logic.Xor:    "XOR",
	logic.Xnor:   "XNOR",
	logic.Inv:    "NOT",
	logic.Buf:    "BUFF",
	logic.Const1: "VDD",
	logic.Const0: "GND",
}

// legacyParse is the line-scanner .bench reader Parse replaced, kept as
// the oracle FuzzParseMatchesLegacy compares Parse against (as
// core.AnalyzeBaseline is the oracle of the packed analysis): it upper-cases
// and splits every line, and adds gates through AddGate, retrying deferred
// gates pass after pass — O(gates × passes) on a netlist defined in reverse.
func legacyParse(r io.Reader) (*circuit.Circuit, error) {
	sc := bufio.NewScanner(r)
	// Lines may reach 1 MiB; the buffer starts at bufio's 4 KiB and grows
	// only for long lines, so a small netlist does not zero 1 MiB.
	sc.Buffer(nil, 1<<20)
	name := "bench"
	sawName := false

	type gateDef struct {
		out  string
		kind logic.Kind
		in   []string
		line int
	}
	var inputs, outputs []string
	var gates []gateDef
	lineNo := 0

	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if !sawName {
				if n := strings.TrimSpace(strings.TrimPrefix(line, "#")); n != "" {
					name = strings.Fields(n)[0]
					sawName = true
				}
			}
			continue
		}
		up := strings.ToUpper(line)
		switch {
		case strings.HasPrefix(up, "INPUT(") || strings.HasPrefix(up, "INPUT ("):
			sig, err := legacyParenArg(line)
			if err != nil {
				return nil, fmt.Errorf("bench line %d: %w", lineNo, err)
			}
			inputs = append(inputs, sig)
		case strings.HasPrefix(up, "OUTPUT(") || strings.HasPrefix(up, "OUTPUT ("):
			sig, err := legacyParenArg(line)
			if err != nil {
				return nil, fmt.Errorf("bench line %d: %w", lineNo, err)
			}
			outputs = append(outputs, sig)
		default:
			eq := strings.Index(line, "=")
			if eq < 0 {
				return nil, fmt.Errorf("bench line %d: expected assignment, got %q", lineNo, line)
			}
			out := strings.TrimSpace(line[:eq])
			rhs := strings.TrimSpace(line[eq+1:])
			open := strings.Index(rhs, "(")
			closeP := strings.LastIndex(rhs, ")")
			if open < 0 || closeP < open {
				return nil, fmt.Errorf("bench line %d: malformed function call %q", lineNo, rhs)
			}
			fn := strings.ToUpper(strings.TrimSpace(rhs[:open]))
			if fn == "DFF" || fn == "DFFSR" || fn == "LATCH" {
				return nil, fmt.Errorf("bench line %d: sequential element %s not supported", lineNo, fn)
			}
			kind, ok := nameToKind[fn]
			if !ok {
				return nil, fmt.Errorf("bench line %d: unknown function %q", lineNo, fn)
			}
			var in []string
			argStr := strings.TrimSpace(rhs[open+1 : closeP])
			if argStr != "" {
				for _, a := range strings.Split(argStr, ",") {
					a = strings.TrimSpace(a)
					if a == "" {
						return nil, fmt.Errorf("bench line %d: empty argument", lineNo)
					}
					in = append(in, a)
				}
			}
			gates = append(gates, gateDef{out: out, kind: kind, in: in, line: lineNo})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	c := circuit.New(name)
	for _, in := range inputs {
		if _, err := c.AddPI(in); err != nil {
			return nil, err
		}
	}
	// Gates may be declared in any order.
	remaining := gates
	for len(remaining) > 0 {
		progressed := false
		var deferred []gateDef
		for _, g := range remaining {
			ready := true
			for _, in := range g.in {
				if _, ok := c.Lookup(in); !ok {
					ready = false
					break
				}
			}
			if !ready {
				deferred = append(deferred, g)
				continue
			}
			fanin := make([]circuit.NodeID, len(g.in))
			for i, in := range g.in {
				fanin[i] = c.MustLookup(in)
			}
			if _, err := c.AddGate(g.out, g.kind, fanin...); err != nil {
				return nil, fmt.Errorf("bench line %d: %w", g.line, err)
			}
			progressed = true
		}
		if !progressed {
			return nil, fmt.Errorf("bench line %d: gate %q reads undefined or cyclic signals", deferred[0].line, deferred[0].out)
		}
		remaining = deferred
	}
	for _, out := range outputs {
		drv, ok := c.Lookup(out)
		if !ok {
			return nil, fmt.Errorf("bench: OUTPUT(%s) has no driver", out)
		}
		poName := out
		if c.IsPODriver(drv) {
			// .bench allows listing the same signal twice; disambiguate.
			poName = out + "_dup"
		}
		if err := c.AddPO(poName, drv); err != nil {
			return nil, err
		}
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

func legacyParenArg(line string) (string, error) {
	open := strings.Index(line, "(")
	closeP := strings.LastIndex(line, ")")
	if open < 0 || closeP < open {
		return "", fmt.Errorf("malformed declaration %q", line)
	}
	sig := strings.TrimSpace(line[open+1 : closeP])
	if sig == "" {
		return "", fmt.Errorf("empty signal in %q", line)
	}
	return sig, nil
}

// legacyWrite is the fmt-based .bench writer Write replaced, kept as the
// oracle of Write's bytes.
func legacyWrite(w io.Writer, c *circuit.Circuit) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %s\n", c.Name)
	fmt.Fprintf(bw, "# %d inputs, %d outputs, %d gates\n", len(c.PIs), len(c.POs), c.NumGates())
	for _, pi := range c.PIs {
		fmt.Fprintf(bw, "INPUT(%s)\n", c.Nodes[pi].Name)
	}
	type alias struct{ po, drv string }
	var aliases []alias
	for _, po := range c.POs {
		drv := c.Nodes[po.Driver].Name
		if po.Name == drv {
			fmt.Fprintf(bw, "OUTPUT(%s)\n", po.Name)
			continue
		}
		if id, clash := c.Lookup(po.Name); clash && id != po.Driver {
			return fmt.Errorf("benchfmt: PO %q collides with an unrelated node", po.Name)
		}
		aliases = append(aliases, alias{po.Name, drv})
		fmt.Fprintf(bw, "OUTPUT(%s)\n", po.Name)
	}
	fmt.Fprintln(bw)
	order, err := c.TopoOrder()
	if err != nil {
		return err
	}
	for _, id := range order {
		nd := &c.Nodes[id]
		if nd.IsPI {
			continue
		}
		fn, ok := legacyKindToName[nd.Kind]
		if !ok {
			return fmt.Errorf("benchfmt: node %q has unsupported kind %v", nd.Name, nd.Kind)
		}
		args := make([]string, len(nd.Fanin))
		for i, f := range nd.Fanin {
			args[i] = c.Nodes[f].Name
		}
		fmt.Fprintf(bw, "%s = %s(%s)\n", nd.Name, fn, strings.Join(args, ", "))
	}
	for _, a := range aliases {
		fmt.Fprintf(bw, "%s = BUFF(%s)\n", a.po, a.drv)
	}
	return bw.Flush()
}
