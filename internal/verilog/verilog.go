// Package verilog writes and reads structural gate-level Verilog netlists in
// the style ABC emits for mapped benchmarks: one module, input/output/wire
// declarations, Verilog primitive gate instantiations (and/or/nand/nor/xor/
// xnor/not/buf) in output-first port order, and constant/alias assigns.
// This is the exchange format of the paper's tool flow ("ABC can map a blif
// file to a Verilog netlist with the standard gates in the library"); the
// circuit modifier in internal/core consumes and produces this form via the
// circuit representation.
package verilog

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"repro/internal/circuit"
	"repro/internal/logic"
)

var kindToPrimitive = map[logic.Kind]string{
	logic.Buf:  "buf",
	logic.Inv:  "not",
	logic.And:  "and",
	logic.Nand: "nand",
	logic.Or:   "or",
	logic.Nor:  "nor",
	logic.Xor:  "xor",
	logic.Xnor: "xnor",
}

var primitiveToKind = map[string]logic.Kind{
	"buf":  logic.Buf,
	"not":  logic.Inv,
	"and":  logic.And,
	"nand": logic.Nand,
	"or":   logic.Or,
	"nor":  logic.Nor,
	"xor":  logic.Xor,
	"xnor": logic.Xnor,
}

// validIdent reports whether s is a plain Verilog identifier.
func validIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r >= '0' && r <= '9' || r == '$':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// keyword set that cannot be used as identifiers.
var keywords = map[string]bool{
	"module": true, "endmodule": true, "input": true, "output": true,
	"wire": true, "assign": true, "buf": true, "not": true, "and": true,
	"nand": true, "or": true, "nor": true, "xor": true, "xnor": true,
}

func checkIdent(s string) error {
	if !validIdent(s) || keywords[s] {
		return fmt.Errorf("verilog: %q is not a plain identifier", s)
	}
	return nil
}

// Write emits circuit c as a structural Verilog module. Node and PO names
// must be plain identifiers; PO names must not collide with non-driver node
// names (the writer reuses the driver wire when names match and emits an
// alias assign otherwise).
func Write(w io.Writer, c *circuit.Circuit) error {
	bw := bufio.NewWriter(w)
	modName := c.Name
	if modName == "" || !validIdent(modName) {
		modName = "top"
	}
	// Gather port names.
	ports := make([]string, 0, len(c.PIs)+len(c.POs))
	for _, pi := range c.PIs {
		name := c.Nodes[pi].Name
		if err := checkIdent(name); err != nil {
			return err
		}
		ports = append(ports, name)
	}
	poAlias := make(map[string]string) // PO name -> driver name when differing
	for _, po := range c.POs {
		if err := checkIdent(po.Name); err != nil {
			return err
		}
		drv := c.Nodes[po.Driver].Name
		if po.Name != drv {
			if id, exists := c.Lookup(po.Name); exists && id != po.Driver {
				return fmt.Errorf("verilog: PO %q collides with unrelated node %q", po.Name, po.Name)
			}
			poAlias[po.Name] = drv
		}
		ports = append(ports, po.Name)
	}

	fmt.Fprintf(bw, "// circuit %s: %d PIs, %d POs, %d gates\n", c.Name, len(c.PIs), len(c.POs), c.NumGates())
	fmt.Fprintf(bw, "module %s (%s);\n", modName, strings.Join(ports, ", "))
	writeDecl(bw, "input", piNames(c))
	writeDecl(bw, "output", poNames(c))

	// Wires: every gate output that is not itself a PO name.
	isPOName := make(map[string]bool, len(c.POs))
	for _, po := range c.POs {
		isPOName[po.Name] = true
	}
	var wires []string
	for i := range c.Nodes {
		nd := &c.Nodes[i]
		if nd.IsPI || isPOName[nd.Name] {
			continue
		}
		if err := checkIdent(nd.Name); err != nil {
			return err
		}
		wires = append(wires, nd.Name)
	}
	writeDecl(bw, "wire", wires)

	// Gates in topological order for readability.
	order, err := c.TopoOrder()
	if err != nil {
		return err
	}
	gi := 0
	for _, id := range order {
		nd := &c.Nodes[id]
		if nd.IsPI {
			continue
		}
		switch nd.Kind {
		case logic.Const0:
			fmt.Fprintf(bw, "  assign %s = 1'b0;\n", nd.Name)
			continue
		case logic.Const1:
			fmt.Fprintf(bw, "  assign %s = 1'b1;\n", nd.Name)
			continue
		}
		prim, ok := kindToPrimitive[nd.Kind]
		if !ok {
			return fmt.Errorf("verilog: node %q: unsupported kind %v", nd.Name, nd.Kind)
		}
		args := make([]string, 0, len(nd.Fanin)+1)
		args = append(args, nd.Name)
		for _, f := range nd.Fanin {
			args = append(args, c.Nodes[f].Name)
		}
		fmt.Fprintf(bw, "  %s g%d (%s);\n", prim, gi, strings.Join(args, ", "))
		gi++
	}
	for _, po := range c.POs {
		if drv, aliased := poAlias[po.Name]; aliased {
			fmt.Fprintf(bw, "  assign %s = %s;\n", po.Name, drv)
		}
	}
	fmt.Fprintln(bw, "endmodule")
	return bw.Flush()
}

func piNames(c *circuit.Circuit) []string {
	out := make([]string, len(c.PIs))
	for i, pi := range c.PIs {
		out[i] = c.Nodes[pi].Name
	}
	return out
}

func poNames(c *circuit.Circuit) []string {
	out := make([]string, len(c.POs))
	for i, po := range c.POs {
		out[i] = po.Name
	}
	return out
}

func writeDecl(w io.Writer, kw string, names []string) {
	const perLine = 10
	for i := 0; i < len(names); i += perLine {
		end := i + perLine
		if end > len(names) {
			end = len(names)
		}
		fmt.Fprintf(w, "  %s %s;\n", kw, strings.Join(names[i:end], ", "))
	}
}

// Parse reads a structural Verilog module written in the subset produced by
// Write (and by ABC's mapped-netlist output with primitive gates).
func Parse(r io.Reader) (*circuit.Circuit, error) {
	name, d, err := stage(r)
	if err != nil {
		return nil, err
	}
	// Gates may read signals defined later in the file; Build adds them in
	// definition order.
	c, err := circuit.Build(name, d)
	if err != nil {
		return nil, fmt.Errorf("verilog: %w", err)
	}
	return c, nil
}

// Stage reads a module as Parse does and accepts or rejects it as Parse
// would, with the same error, but builds no circuit: the result is the
// staged netlist (circuit.Defs.Check). It is for reading a netlist once,
// as a trace reads a suspect.
func Stage(r io.Reader) (*circuit.Staged, error) {
	name, d, err := stage(r)
	if err != nil {
		return nil, err
	}
	s, err := d.Check(name)
	if err != nil {
		return nil, fmt.Errorf("verilog: %w", err)
	}
	return s, nil
}

// stage reads a module into its name and definitions, making the reader's
// own checks: tokens, statement syntax, identifiers, assign forms.
func stage(r io.Reader) (string, *circuit.Defs, error) {
	toks, err := tokenize(r)
	if err != nil {
		return "", nil, err
	}
	p := &parser{toks: toks}
	return p.module()
}

func tokenize(r io.Reader) ([]string, error) {
	sc := bufio.NewScanner(r)
	// Lines may reach 1 MiB; the buffer starts at bufio's 4 KiB and grows
	// only for long lines, so a small netlist does not zero 1 MiB.
	sc.Buffer(nil, 1<<20)
	var toks []string
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "//"); i >= 0 {
			line = line[:i]
		}
		// Split punctuation into standalone tokens.
		var b strings.Builder
		for _, ch := range line {
			switch ch {
			case '(', ')', ',', ';', '=':
				b.WriteByte(' ')
				b.WriteRune(ch)
				b.WriteByte(' ')
			default:
				b.WriteRune(ch)
			}
		}
		toks = append(toks, strings.Fields(b.String())...)
	}
	return toks, sc.Err()
}

type parser struct {
	toks []string
	pos  int
}

func (p *parser) peek() string {
	if p.pos < len(p.toks) {
		return p.toks[p.pos]
	}
	return ""
}

func (p *parser) next() string {
	t := p.peek()
	p.pos++
	return t
}

func (p *parser) expect(t string) error {
	if got := p.next(); got != t {
		return fmt.Errorf("verilog: expected %q, got %q (token %d)", t, got, p.pos-1)
	}
	return nil
}

// identList parses "a, b, c ;" (or terminated by ')').
func (p *parser) identList(terminator string) ([]string, error) {
	var out []string
	for {
		t := p.next()
		if t == "" {
			return nil, fmt.Errorf("verilog: unexpected EOF in list")
		}
		if t == terminator && len(out) == 0 {
			return out, nil
		}
		if !validIdent(t) {
			return nil, fmt.Errorf("verilog: bad identifier %q in list", t)
		}
		out = append(out, t)
		switch sep := p.next(); sep {
		case ",":
		case terminator:
			return out, nil
		default:
			return nil, fmt.Errorf("verilog: expected ',' or %q, got %q", terminator, sep)
		}
	}
}

type gateStmt struct {
	kind logic.Kind
	out  string
	in   []string
}

type assignStmt struct {
	lhs string
	rhs string // identifier, "1'b0" or "1'b1"
}

func (p *parser) module() (string, *circuit.Defs, error) {
	if err := p.expect("module"); err != nil {
		return "", nil, err
	}
	name := p.next()
	if !validIdent(name) {
		return "", nil, fmt.Errorf("verilog: bad module name %q", name)
	}
	if err := p.expect("("); err != nil {
		return "", nil, err
	}
	if _, err := p.identList(")"); err != nil {
		return "", nil, err
	}
	if err := p.expect(";"); err != nil {
		return "", nil, err
	}

	var inputs, outputs []string
	var gates []gateStmt
	var assigns []assignStmt
	wires := map[string]bool{}

	for {
		t := p.next()
		switch t {
		case "":
			return "", nil, fmt.Errorf("verilog: unexpected EOF (missing endmodule)")
		case "endmodule":
			return defs(name, inputs, outputs, gates, assigns, wires)
		case "input":
			l, err := p.identList(";")
			if err != nil {
				return "", nil, err
			}
			inputs = append(inputs, l...)
		case "output":
			l, err := p.identList(";")
			if err != nil {
				return "", nil, err
			}
			outputs = append(outputs, l...)
		case "wire":
			l, err := p.identList(";")
			if err != nil {
				return "", nil, err
			}
			for _, w := range l {
				wires[w] = true
			}
		case "assign":
			lhs := p.next()
			if !validIdent(lhs) {
				return "", nil, fmt.Errorf("verilog: bad assign LHS %q", lhs)
			}
			if err := p.expect("="); err != nil {
				return "", nil, err
			}
			rhs := p.next()
			if err := p.expect(";"); err != nil {
				return "", nil, err
			}
			assigns = append(assigns, assignStmt{lhs, rhs})
		default:
			kind, ok := primitiveToKind[t]
			if !ok {
				return "", nil, fmt.Errorf("verilog: unsupported statement starting with %q", t)
			}
			// Optional instance name.
			if p.peek() != "(" {
				inst := p.next()
				if !validIdent(inst) {
					return "", nil, fmt.Errorf("verilog: bad instance name %q", inst)
				}
			}
			if err := p.expect("("); err != nil {
				return "", nil, err
			}
			args, err := p.identList(")")
			if err != nil {
				return "", nil, err
			}
			if err := p.expect(";"); err != nil {
				return "", nil, err
			}
			if len(args) < 2 {
				return "", nil, fmt.Errorf("verilog: primitive %q needs output and inputs", t)
			}
			gates = append(gates, gateStmt{kind: kind, out: args[0], in: args[1:]})
		}
	}
}

func defs(name string, inputs, outputs []string, gates []gateStmt, assigns []assignStmt, wires map[string]bool) (string, *circuit.Defs, error) {
	isOutput := make(map[string]bool, len(outputs))
	for _, o := range outputs {
		isOutput[o] = true
	}
	// Separate assigns: constants and buffers create nodes; an assign onto
	// an output from an identifier is a PO alias (no node).
	d := circuit.Defs{Inputs: inputs, Outputs: outputs, Drivers: make([]string, len(outputs))}
	add := func(out string, kind logic.Kind, in ...string) {
		d.Gates = append(d.Gates, out)
		d.Kinds = append(d.Kinds, kind)
		d.Args = append(d.Args, in...)
		d.Ends = append(d.Ends, int32(len(d.Args)))
	}
	aliases := map[string]string{}
	for _, a := range assigns {
		switch a.rhs {
		case "1'b0":
			add(a.lhs, logic.Const0)
		case "1'b1":
			add(a.lhs, logic.Const1)
		default:
			if !validIdent(a.rhs) {
				return "", nil, fmt.Errorf("verilog: unsupported assign RHS %q", a.rhs)
			}
			if isOutput[a.lhs] {
				aliases[a.lhs] = a.rhs
			} else {
				add(a.lhs, logic.Buf, a.rhs)
			}
		}
	}
	for _, g := range gates {
		add(g.out, g.kind, g.in...)
	}
	for i, o := range outputs {
		d.Drivers[i] = o
		if a, ok := aliases[o]; ok {
			d.Drivers[i] = a
		}
	}
	_ = wires // declarations are advisory in this subset
	return name, &d, nil
}
