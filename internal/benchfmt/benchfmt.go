// Package benchfmt reads and writes the ISCAS ".bench" netlist format, the
// native distribution format of the ISCAS'85 benchmark suite the paper
// evaluates on:
//
//	# comment
//	INPUT(a)
//	OUTPUT(f)
//	t = NAND(a, b)
//	f = NOT(t)
//
// Supported functions: AND, NAND, OR, NOR, XOR, XNOR, NOT, BUF/BUFF and the
// constants VDD/GND (as zero-argument pseudo-functions). Sequential
// elements (DFF) are rejected — the flow is combinational.
package benchfmt

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/circuit"
	"repro/internal/logic"
)

var nameToKind = map[string]logic.Kind{
	"AND":  logic.And,
	"NAND": logic.Nand,
	"OR":   logic.Or,
	"NOR":  logic.Nor,
	"XOR":  logic.Xor,
	"XNOR": logic.Xnor,
	"NOT":  logic.Inv,
	"INV":  logic.Inv,
	"BUF":  logic.Buf,
	"BUFF": logic.Buf,
	"VDD":  logic.Const1,
	"GND":  logic.Const0,
}

var kindToName = [logic.NumKinds]string{
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

// maxLine is the longest line Parse accepts, counted without its newline;
// a longer one fails with bufio.ErrTooLong.
const maxLine = 1<<20 - 1

// Parse reads a combinational .bench netlist. The circuit name is taken
// from the first comment line of the form "# name" if present, else "bench".
// Gates may be defined in any order; node IDs follow definition order
// (circuit.Defs.Order).
//
// The input is read once and its lines sliced in place; the names the
// circuit keeps are copied into one shared string, so the circuit does not
// hold on to the input.
func Parse(r io.Reader) (*circuit.Circuit, error) {
	name, d, err := stage(r)
	if err != nil {
		return nil, err
	}
	keepNames(d)
	c, err := circuit.Build(name, d)
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	return c, nil
}

// Stage reads a .bench netlist as Parse does and accepts or rejects it as
// Parse would, with the same error, but builds no circuit: the result is
// the staged netlist (circuit.Defs.Check), whose names still slice the
// input. It is for reading a netlist once, as a trace reads a suspect.
func Stage(r io.Reader) (*circuit.Staged, error) {
	name, d, err := stage(r)
	if err != nil {
		return nil, err
	}
	s, err := d.Check(name)
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	return s, nil
}

// stage reads a .bench netlist into its circuit name and definitions,
// making the reader's own checks: syntax, known functions, the line
// length.
func stage(r io.Reader) (string, *circuit.Defs, error) {
	var in strings.Builder
	if _, err := io.Copy(&in, r); err != nil {
		return "", nil, err
	}
	src := in.String()
	name := "bench"
	sawName := false
	// The staging arrays are reserved up front for the gate lines the text
	// can hold: each has an "=" and a "(", and takes at least 8 bytes
	// ("q=GND()" and its newline), and up to four arguments per gate are
	// reserved; more grow the array as they come. Blank lines, comments
	// and commas with no "=" reserve nothing, and no input reserves more
	// than 12 bytes per byte of text.
	gates := min(strings.Count(src, "="), strings.Count(src, "("), len(src)/8)
	args := min(strings.Count(src, ",")+gates, 4*gates)
	d := &circuit.Defs{
		Gates: make([]string, 0, gates),
		Kinds: make([]logic.Kind, 0, gates),
		Args:  make([]string, 0, args),
		Ends:  make([]int32, 0, gates),
		Lines: make([]int32, 0, gates),
	}
	for lineNo, rest := 1, src; rest != ""; lineNo++ {
		line := rest
		if i := strings.IndexByte(rest, '\n'); i >= 0 {
			line, rest = rest[:i], rest[i+1:]
		} else {
			rest = ""
		}
		if len(line) > maxLine {
			return "", nil, bufio.ErrTooLong
		}
		line = strings.TrimSpace(line)
		switch {
		case line == "":
		case line[0] == '#':
			if !sawName {
				if n := strings.TrimSpace(line[1:]); n != "" {
					if i := strings.IndexFunc(n, unicode.IsSpace); i >= 0 {
						n = n[:i]
					}
					name = strings.Clone(n)
					sawName = true
				}
			}
		case isDecl(line, "INPUT"):
			sig, err := parenArg(line)
			if err != nil {
				return "", nil, fmt.Errorf("bench line %d: %w", lineNo, err)
			}
			d.Inputs = append(d.Inputs, sig)
		case isDecl(line, "OUTPUT"):
			sig, err := parenArg(line)
			if err != nil {
				return "", nil, fmt.Errorf("bench line %d: %w", lineNo, err)
			}
			d.Drivers = append(d.Drivers, sig)
		default:
			if err := addGate(d, line, lineNo); err != nil {
				return "", nil, fmt.Errorf("bench line %d: %w", lineNo, err)
			}
		}
	}
	// .bench allows listing the same signal twice; the repeat is renamed.
	d.Outputs = make([]string, len(d.Drivers))
	listed := make(map[string]bool, len(d.Drivers))
	for i, drv := range d.Drivers {
		d.Outputs[i] = drv
		if listed[drv] {
			d.Outputs[i] = drv + "_dup"
		}
		listed[drv] = true
	}
	return name, d, nil
}

// isDecl reports whether line starts with kw (upper case) and then "(" or
// " (", with letters matched as strings.ToUpper(line) would match them.
func isDecl(line, kw string) bool {
	head := line[:min(len(line), len(kw)+2)]
	for i := 0; i < len(head); i++ {
		if head[i] >= utf8.RuneSelf {
			up := strings.ToUpper(line)
			return strings.HasPrefix(up, kw+"(") || strings.HasPrefix(up, kw+" (")
		}
	}
	if len(head) <= len(kw) {
		return false
	}
	for i := 0; i < len(kw); i++ {
		if upper(head[i]) != kw[i] {
			return false
		}
	}
	rest := head[len(kw):]
	return rest[0] == '(' || rest == " ("
}

func upper(b byte) byte {
	if 'a' <= b && b <= 'z' {
		return b - ('a' - 'A')
	}
	return b
}

// addGate stages one "out = FN(a, b, ...)" line.
func addGate(d *circuit.Defs, line string, lineNo int) error {
	eq := strings.IndexByte(line, '=')
	if eq < 0 {
		return fmt.Errorf("expected assignment, got %q", line)
	}
	out := strings.TrimSpace(line[:eq])
	rhs := strings.TrimSpace(line[eq+1:])
	open := strings.IndexByte(rhs, '(')
	closeP := strings.LastIndexByte(rhs, ')')
	if open < 0 || closeP < open {
		return fmt.Errorf("malformed function call %q", rhs)
	}
	kind, err := function(strings.TrimSpace(rhs[:open]))
	if err != nil {
		return err
	}
	if args := strings.TrimSpace(rhs[open+1 : closeP]); args != "" {
		for {
			a, tail, more := strings.Cut(args, ",")
			if a = strings.TrimSpace(a); a == "" {
				return fmt.Errorf("empty argument")
			}
			d.Args = append(d.Args, a)
			if !more {
				break
			}
			args = tail
		}
	}
	d.Gates = append(d.Gates, out)
	d.Kinds = append(d.Kinds, kind)
	d.Ends = append(d.Ends, int32(len(d.Args)))
	d.Lines = append(d.Lines, int32(lineNo))
	return nil
}

// function maps a function name, matched case-insensitively as
// strings.ToUpper would match it, to its gate kind.
func function(fn string) (logic.Kind, error) {
	var buf [8]byte
	up := buf[:0]
	for i := 0; i < len(fn); i++ {
		if fn[i] >= utf8.RuneSelf || len(up) == len(buf) {
			return functionSlow(strings.ToUpper(fn))
		}
		up = append(up, upper(fn[i]))
	}
	if kind, ok := nameToKind[string(up)]; ok {
		return kind, nil
	}
	return functionSlow(string(up))
}

func functionSlow(fn string) (logic.Kind, error) {
	if fn == "DFF" || fn == "DFFSR" || fn == "LATCH" {
		return 0, fmt.Errorf("sequential element %s not supported", fn)
	}
	if kind, ok := nameToKind[fn]; ok {
		return kind, nil
	}
	return 0, fmt.Errorf("unknown function %q", fn)
}

func parenArg(line string) (string, error) {
	open := strings.IndexByte(line, '(')
	closeP := strings.LastIndexByte(line, ')')
	if open < 0 || closeP < open {
		return "", fmt.Errorf("malformed declaration %q", line)
	}
	sig := strings.TrimSpace(line[open+1 : closeP])
	if sig == "" {
		return "", fmt.Errorf("empty signal in %q", line)
	}
	return sig, nil
}

// keepNames copies the inputs' and gates' names, which slice the input
// text, into one new string and re-points them there, so the circuit built
// from d keeps only its names alive. Arguments and outputs resolve to these
// names, and are left in place.
func keepNames(d *circuit.Defs) {
	n := 0
	for _, s := range d.Inputs {
		n += len(s)
	}
	for _, s := range d.Gates {
		n += len(s)
	}
	var b strings.Builder
	b.Grow(n)
	for _, s := range d.Inputs {
		b.WriteString(s)
	}
	for _, s := range d.Gates {
		b.WriteString(s)
	}
	all := b.String()
	for _, names := range [][]string{d.Inputs, d.Gates} {
		for i, s := range names {
			names[i], all = all[:len(s)], all[len(s):]
		}
	}
}

// Write emits the circuit in .bench form. POs whose name differs from the
// driver get a BUFF alias so OUTPUT() lines reference real signals. The
// netlist is built in one buffer (Bytes) and handed to w in a single Write;
// on an error nothing is written.
func Write(w io.Writer, c *circuit.Circuit) error {
	b, err := Bytes(c)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// Bytes returns the bytes Write writes, in the one buffer it builds them
// in.
func Bytes(c *circuit.Circuit) ([]byte, error) {
	for _, po := range c.POs {
		if id, clash := c.Lookup(po.Name); clash && id != po.Driver {
			return nil, fmt.Errorf("benchfmt: PO %q collides with an unrelated node", po.Name)
		}
	}
	order, err := c.TopoOrder()
	if err != nil {
		return nil, err
	}
	// A rough estimate of a gate line; append grows the buffer if needed.
	b := make([]byte, 0, 32*len(c.Nodes))
	b = append(b, "# "...)
	b = append(b, c.Name...)
	b = append(b, "\n# "...)
	b = strconv.AppendInt(b, int64(len(c.PIs)), 10)
	b = append(b, " inputs, "...)
	b = strconv.AppendInt(b, int64(len(c.POs)), 10)
	b = append(b, " outputs, "...)
	b = strconv.AppendInt(b, int64(c.NumGates()), 10)
	b = append(b, " gates\n"...)
	for _, pi := range c.PIs {
		b = append(b, "INPUT("...)
		b = append(b, c.Nodes[pi].Name...)
		b = append(b, ")\n"...)
	}
	for _, po := range c.POs {
		b = append(b, "OUTPUT("...)
		b = append(b, po.Name...)
		b = append(b, ")\n"...)
	}
	b = append(b, '\n')
	for _, id := range order {
		nd := &c.Nodes[id]
		if nd.IsPI {
			continue
		}
		if !nd.Kind.Valid() {
			return nil, fmt.Errorf("benchfmt: node %q has unsupported kind %v", nd.Name, nd.Kind)
		}
		b = append(b, nd.Name...)
		b = append(b, " = "...)
		b = append(b, kindToName[nd.Kind]...)
		b = append(b, '(')
		for i, f := range nd.Fanin {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = append(b, c.Nodes[f].Name...)
		}
		b = append(b, ")\n"...)
	}
	for _, po := range c.POs {
		drv := c.Nodes[po.Driver].Name
		if po.Name == drv {
			continue
		}
		b = append(b, po.Name...)
		b = append(b, " = BUFF("...)
		b = append(b, drv...)
		b = append(b, ")\n"...)
	}
	return b, nil
}
