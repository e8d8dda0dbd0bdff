// Package blif reads and writes the Berkeley Logic Interchange Format
// subset used by the MCNC/ISCAS benchmark suites: .model, .inputs,
// .outputs, .names (two-level SOP covers) and .end, with continuation
// lines. Latches and subcircuits are rejected — the paper's flow is purely
// combinational.
//
// A parsed BLIF is returned as a Netlist of SOP nodes; internal/techmap
// lowers it onto the standard-cell circuit representation.
package blif

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Cover is one row of a .names table: input literals ('0', '1', '-') and
// the output value ('0' or '1'). All rows of a node share the same output
// phase in well-formed MCNC benchmarks; mixed phases are rejected.
type Cover struct {
	Inputs string
	Output byte
}

// Node is a named logic node defined by a .names construct.
type Node struct {
	Name   string
	Inputs []string
	Covers []Cover
}

// IsConst reports whether the node is a constant (no inputs). Value is the
// constant it produces: a .names with no cover rows is constant 0; a single
// empty row with output '1' is constant 1.
func (n *Node) IsConst() (value bool, ok bool) {
	if len(n.Inputs) != 0 {
		return false, false
	}
	if len(n.Covers) == 0 {
		return false, true
	}
	return n.Covers[0].Output == '1', true
}

// Netlist is a parsed combinational BLIF model.
type Netlist struct {
	Model   string
	Inputs  []string
	Outputs []string
	Nodes   []Node
}

// Parse reads a BLIF model from r. Only the first .model in the stream is
// parsed; the combinational subset is enforced.
func Parse(r io.Reader) (*Netlist, error) {
	sc := bufio.NewScanner(r)
	// Lines may reach 1 MiB; the buffer starts at bufio's 4 KiB and grows
	// only for long lines, so a small netlist does not zero 1 MiB.
	sc.Buffer(nil, 1<<20)
	n := &Netlist{}
	var cur *Node
	lineNo := 0
	seenModel := false

	flush := func() {
		if cur != nil {
			n.Nodes = append(n.Nodes, *cur)
			cur = nil
		}
	}

	// Read logical lines, joining '\' continuations.
	readLine := func() (string, bool) {
		for sc.Scan() {
			lineNo++
			line := sc.Text()
			if i := strings.Index(line, "#"); i >= 0 {
				line = line[:i]
			}
			line = strings.TrimSpace(line)
			if line == "" {
				continue
			}
			for strings.HasSuffix(line, "\\") {
				line = strings.TrimSuffix(line, "\\")
				if !sc.Scan() {
					break
				}
				lineNo++
				next := sc.Text()
				if i := strings.Index(next, "#"); i >= 0 {
					next = next[:i]
				}
				line += " " + strings.TrimSpace(next)
			}
			// A lone continuation backslash (possibly at EOF) can join to
			// nothing; skip it rather than emit an empty line.
			if line = strings.TrimSpace(line); line == "" {
				continue
			}
			return line, true
		}
		return "", false
	}

	for {
		line, ok := readLine()
		if !ok {
			break
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case ".model":
			if seenModel {
				flush()
				return finish(n)
			}
			seenModel = true
			if len(fields) > 1 {
				n.Model = fields[1]
			}
		case ".inputs":
			n.Inputs = append(n.Inputs, fields[1:]...)
		case ".outputs":
			n.Outputs = append(n.Outputs, fields[1:]...)
		case ".names":
			flush()
			if len(fields) < 2 {
				return nil, fmt.Errorf("blif line %d: .names without signals", lineNo)
			}
			cur = &Node{
				Name:   fields[len(fields)-1],
				Inputs: append([]string(nil), fields[1:len(fields)-1]...),
			}
		case ".end":
			flush()
			return finish(n)
		case ".latch", ".subckt", ".gate", ".mlatch":
			return nil, fmt.Errorf("blif line %d: %s not supported (combinational subset only)", lineNo, fields[0])
		default:
			if strings.HasPrefix(fields[0], ".") {
				// Ignore unknown dot-directives (e.g. .default_input_arrival).
				continue
			}
			// Cover row.
			if cur == nil {
				return nil, fmt.Errorf("blif line %d: cover row outside .names", lineNo)
			}
			var inBits, outBit string
			if len(cur.Inputs) == 0 {
				if len(fields) != 1 {
					return nil, fmt.Errorf("blif line %d: constant cover must be a single output bit", lineNo)
				}
				inBits, outBit = "", fields[0]
			} else {
				if len(fields) != 2 {
					return nil, fmt.Errorf("blif line %d: cover row needs input plane and output bit", lineNo)
				}
				inBits, outBit = fields[0], fields[1]
			}
			if len(inBits) != len(cur.Inputs) {
				return nil, fmt.Errorf("blif line %d: cover width %d != %d inputs of %q", lineNo, len(inBits), len(cur.Inputs), cur.Name)
			}
			for _, ch := range inBits {
				if ch != '0' && ch != '1' && ch != '-' {
					return nil, fmt.Errorf("blif line %d: bad cover literal %q", lineNo, string(ch))
				}
			}
			if outBit != "0" && outBit != "1" {
				return nil, fmt.Errorf("blif line %d: bad output bit %q", lineNo, outBit)
			}
			if len(cur.Covers) > 0 && cur.Covers[0].Output != outBit[0] {
				return nil, fmt.Errorf("blif line %d: mixed output phases in %q", lineNo, cur.Name)
			}
			cur.Covers = append(cur.Covers, Cover{Inputs: inBits, Output: outBit[0]})
		}
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return finish(n)
}

func finish(n *Netlist) (*Netlist, error) {
	if len(n.Inputs) == 0 {
		return nil, fmt.Errorf("blif model %q: no .inputs", n.Model)
	}
	if len(n.Outputs) == 0 {
		return nil, fmt.Errorf("blif model %q: no .outputs", n.Model)
	}
	defined := make(map[string]bool, len(n.Nodes)+len(n.Inputs))
	for _, in := range n.Inputs {
		defined[in] = true
	}
	for i := range n.Nodes {
		if defined[n.Nodes[i].Name] {
			return nil, fmt.Errorf("blif model %q: %q defined twice", n.Model, n.Nodes[i].Name)
		}
		defined[n.Nodes[i].Name] = true
	}
	for i := range n.Nodes {
		for _, in := range n.Nodes[i].Inputs {
			if !defined[in] {
				return nil, fmt.Errorf("blif model %q: node %q reads undefined signal %q", n.Model, n.Nodes[i].Name, in)
			}
		}
	}
	for _, out := range n.Outputs {
		if !defined[out] {
			return nil, fmt.Errorf("blif model %q: output %q undefined", n.Model, out)
		}
	}
	return n, nil
}

// Write emits the netlist in canonical BLIF form.
func Write(w io.Writer, n *Netlist) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, ".model %s\n", n.Model)
	writeSignalList(bw, ".inputs", n.Inputs)
	writeSignalList(bw, ".outputs", n.Outputs)
	for i := range n.Nodes {
		nd := &n.Nodes[i]
		fmt.Fprintf(bw, ".names %s %s\n", strings.Join(nd.Inputs, " "), nd.Name)
		for _, cv := range nd.Covers {
			if len(nd.Inputs) == 0 {
				fmt.Fprintf(bw, "%c\n", cv.Output)
			} else {
				fmt.Fprintf(bw, "%s %c\n", cv.Inputs, cv.Output)
			}
		}
	}
	fmt.Fprintln(bw, ".end")
	return bw.Flush()
}

func writeSignalList(w io.Writer, directive string, names []string) {
	const perLine = 10
	for i := 0; i < len(names); i += perLine {
		end := i + perLine
		if end > len(names) {
			end = len(names)
		}
		cont := ""
		if end < len(names) {
			cont = " \\"
		}
		lead := directive
		if i > 0 {
			lead = strings.Repeat(" ", len(directive))
		}
		fmt.Fprintf(w, "%s %s%s\n", lead, strings.Join(names[i:end], " "), cont)
	}
}

// SortedNodeNames returns node names in sorted order (test helper).
func (n *Netlist) SortedNodeNames() []string {
	out := make([]string, len(n.Nodes))
	for i := range n.Nodes {
		out[i] = n.Nodes[i].Name
	}
	sort.Strings(out)
	return out
}
