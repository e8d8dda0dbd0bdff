// Package techmap lowers two-level SOP logic (parsed BLIF .names nodes) onto
// the standard-cell circuit representation: each cover becomes an AND-OR
// (-INV) network with fanin bounded by the cell library, shared input
// inverters, and an optional NAND/NOR peephole pass that merges inverters
// into preceding AND/OR gates — the moral equivalent of ABC's `map` step in
// the paper's flow (§IV: "The ABC program can map a blif file to a Verilog
// netlist with the standard gates in the library").
package techmap

import (
	"fmt"

	"repro/internal/blif"
	"repro/internal/cell"
	"repro/internal/circuit"
	"repro/internal/logic"
)

// Options controls mapping.
type Options struct {
	// MaxFanin bounds gate width; 0 means "use the library maximum".
	MaxFanin int
	// NandNor enables the peephole pass converting INV(AND)→NAND,
	// INV(OR)→NOR, AND(INV-only inputs)→NOR-of-inputs etc., producing the
	// mixed-gate netlists the paper's benchmarks exhibit.
	NandNor bool
}

// DefaultOptions maps with NAND/NOR conversion enabled, targeting one pin
// less than the library's widest AND/OR/NAND/NOR cell: the spare pin is the
// post-silicon flexibility the fingerprinting flow consumes (a mapped gate
// can always grow by one literal and still have a library cell).
func DefaultOptions(lib *cell.Library) Options {
	w := lib.MaxFaninAny(logic.And, logic.Or, logic.Nand, logic.Nor) - 1
	if w < 2 {
		w = 2
	}
	return Options{MaxFanin: w, NandNor: true}
}

// Map lowers a parsed BLIF netlist to a mapped circuit.
func Map(n *blif.Netlist, opts Options) (*circuit.Circuit, error) {
	if opts.MaxFanin < 2 {
		opts.MaxFanin = 4
	}
	c := circuit.New(n.Model)
	for _, in := range n.Inputs {
		if _, err := c.AddPI(in); err != nil {
			return nil, err
		}
	}
	b := &builder{c: c, maxFanin: opts.MaxFanin, inv: make(map[circuit.NodeID]circuit.NodeID)}

	// BLIF nodes may be declared in any order; lower them in definition
	// order, so every node's inputs exist when it is lowered.
	d := circuit.Defs{Inputs: n.Inputs, Gates: make([]string, len(n.Nodes)), Ends: make([]int32, len(n.Nodes))}
	for i := range n.Nodes {
		d.Gates[i] = n.Nodes[i].Name
		d.Args = append(d.Args, n.Nodes[i].Inputs...)
		d.Ends[i] = int32(len(d.Args))
	}
	order, err := d.Order()
	if err != nil {
		return nil, fmt.Errorf("techmap: %w", err)
	}
	for _, i := range order {
		if err := b.lowerNode(&n.Nodes[i]); err != nil {
			return nil, err
		}
	}
	for _, out := range n.Outputs {
		drv, ok := c.Lookup(out)
		if !ok {
			return nil, fmt.Errorf("techmap: output %q undefined", out)
		}
		if err := c.AddPO(out, drv); err != nil {
			return nil, err
		}
	}
	if opts.NandNor {
		c = Nandify(c)
	}
	swept, _ := c.Sweep()
	if err := swept.Validate(); err != nil {
		return nil, err
	}
	return swept, nil
}

type builder struct {
	c        *circuit.Circuit
	maxFanin int
	inv      map[circuit.NodeID]circuit.NodeID // shared inverters
	tmp      int
}

func (b *builder) fresh(hint string) string {
	b.tmp++
	return b.c.FreshName(fmt.Sprintf("%s_m%d", hint, b.tmp))
}

// inverted returns (and caches) an inverter over src.
func (b *builder) inverted(src circuit.NodeID) (circuit.NodeID, error) {
	if id, ok := b.inv[src]; ok {
		return id, nil
	}
	id, err := b.c.AddGate(b.fresh(b.c.Nodes[src].Name+"_n"), logic.Inv, src)
	if err != nil {
		return circuit.None, err
	}
	b.inv[src] = id
	return id, nil
}

// reduceTree builds a balanced fanin-bounded tree of `kind` over inputs,
// giving the final (root) gate the requested name. A single input becomes a
// BUF with the requested name (so the node name exists for later readers).
func (b *builder) reduceTree(name string, kind logic.Kind, inputs []circuit.NodeID) (circuit.NodeID, error) {
	return reduceTree(b.c, b, name, kind, inputs)
}

// namer abstracts fresh-name generation so the exported Reduce can work on
// arbitrary circuits.
type namer interface {
	fresh(hint string) string
}

type circuitNamer struct {
	c *circuit.Circuit
	n int
}

func (cn *circuitNamer) fresh(hint string) string {
	cn.n++
	return cn.c.FreshName(fmt.Sprintf("%s_t%d", hint, cn.n))
}

func reduceTree(c *circuit.Circuit, nm namer, name string, kind logic.Kind, inputs []circuit.NodeID) (circuit.NodeID, error) {
	maxFanin := 4
	if b, ok := nm.(*builder); ok {
		maxFanin = b.maxFanin
	}
	if len(inputs) == 0 {
		return circuit.None, fmt.Errorf("techmap: empty reduction for %q", name)
	}
	// Deduplicate identical inputs: AND(x,x) = x for AND/OR (idempotent
	// kinds); duplicates would violate circuit validation anyway.
	if kind == logic.And || kind == logic.Or {
		seen := make(map[circuit.NodeID]bool, len(inputs))
		uniq := inputs[:0:0]
		for _, in := range inputs {
			if !seen[in] {
				seen[in] = true
				uniq = append(uniq, in)
			}
		}
		inputs = uniq
	}
	if len(inputs) == 1 {
		return c.AddGate(name, logic.Buf, inputs[0])
	}
	level := append([]circuit.NodeID(nil), inputs...)
	for len(level) > maxFanin {
		var next []circuit.NodeID
		for i := 0; i < len(level); i += maxFanin {
			end := i + maxFanin
			if end > len(level) {
				end = len(level)
			}
			group := level[i:end]
			if len(group) == 1 {
				next = append(next, group[0])
				continue
			}
			g, err := c.AddGate(nm.fresh(name), kind, group...)
			if err != nil {
				return circuit.None, err
			}
			next = append(next, g)
		}
		level = next
	}
	return c.AddGate(name, kind, level...)
}

// Reduce builds a balanced, 4-bounded tree of `kind` over inputs in circuit
// c, rooting it at a gate named `name`. It is exported for the benchmark
// generators, which need wide AND/OR/XOR reductions.
func Reduce(c *circuit.Circuit, name string, kind logic.Kind, inputs ...circuit.NodeID) (circuit.NodeID, error) {
	return reduceTree(c, &circuitNamer{c: c}, name, kind, inputs)
}

// lowerNode lowers one .names node.
func (b *builder) lowerNode(nd *blif.Node) error {
	if v, ok := nd.IsConst(); ok {
		kind := logic.Const0
		if v {
			kind = logic.Const1
		}
		_, err := b.c.AddGate(nd.Name, kind, nil...)
		return err
	}
	phase1 := nd.Covers[0].Output == '1'
	// Single cover with a single care literal: direct BUF/INV on the source,
	// avoiding a shared-inverter + buffer pair.
	if len(nd.Covers) == 1 {
		care, careIdx := 0, -1
		for i, ch := range []byte(nd.Covers[0].Inputs) {
			if ch != '-' {
				care++
				careIdx = i
			}
		}
		if care == 1 {
			src, ok := b.c.Lookup(nd.Inputs[careIdx])
			if !ok {
				return fmt.Errorf("techmap: %q reads undefined %q", nd.Name, nd.Inputs[careIdx])
			}
			kind := logic.Buf
			if (nd.Covers[0].Inputs[careIdx] == '1') != phase1 {
				kind = logic.Inv
			}
			_, err := b.c.AddGate(nd.Name, kind, src)
			return err
		}
	}
	// Build each product term.
	var products []circuit.NodeID
	for _, cv := range nd.Covers {
		var lits []circuit.NodeID
		for i, ch := range []byte(cv.Inputs) {
			src, ok := b.c.Lookup(nd.Inputs[i])
			if !ok {
				return fmt.Errorf("techmap: %q reads undefined %q", nd.Name, nd.Inputs[i])
			}
			switch ch {
			case '1':
				lits = append(lits, src)
			case '0':
				n, err := b.inverted(src)
				if err != nil {
					return err
				}
				lits = append(lits, n)
			}
		}
		if len(lits) == 0 {
			// A full-don't-care row makes the node constant (tautology).
			kind := logic.Const0
			if phase1 {
				kind = logic.Const1
			}
			_, err := b.c.AddGate(nd.Name, kind)
			return err
		}
		if len(lits) == 1 {
			products = append(products, lits[0])
			continue
		}
		p, err := b.reduceTree(b.fresh(nd.Name+"_p"), logic.And, lits)
		if err != nil {
			return err
		}
		products = append(products, p)
	}
	// OR the products; invert if the cover lists the OFF-set.
	if len(products) == 1 && phase1 {
		_, err := b.c.AddGate(nd.Name, logic.Buf, products[0])
		return err
	}
	if len(products) == 1 {
		_, err := b.c.AddGate(nd.Name, logic.Inv, products[0])
		return err
	}
	if phase1 {
		_, err := b.reduceTree(nd.Name, logic.Or, products)
		return err
	}
	// OFF-set: f = NOR of products (bounded tree with inverted root).
	inner, err := b.reduceTree(b.fresh(nd.Name+"_s"), logic.Or, products)
	if err != nil {
		return err
	}
	_, err = b.c.AddGate(nd.Name, logic.Inv, inner)
	return err
}

// Nandify rewrites INV(AND(...)) → NAND(...) and INV(OR(...)) → NOR(...)
// when the inner gate fans out only to the inverter, and collapses
// BUF(x) nodes by rewiring their readers, producing a denser mixed-gate
// netlist. It returns a fresh circuit; the input is unchanged.
func Nandify(c *circuit.Circuit) *circuit.Circuit {
	out := circuit.New(c.Name)
	remap := make([]circuit.NodeID, len(c.Nodes))
	for i := range remap {
		remap[i] = circuit.None
	}
	// First pass: identify merges. mergeInto[inner] = inverter node when the
	// AND/OR feeds only that inverter.
	absorbed := make([]bool, len(c.Nodes)) // inner gate absorbed into an inverter
	for i := range c.Nodes {
		nd := &c.Nodes[i]
		if nd.IsPI || nd.Kind != logic.Inv {
			continue
		}
		src := nd.Fanin[0]
		sn := &c.Nodes[src]
		if sn.IsPI {
			continue
		}
		if sn.Kind != logic.And && sn.Kind != logic.Or {
			continue
		}
		if c.FanoutCount(src) != 1 {
			continue
		}
		absorbed[src] = true
	}
	for _, id := range c.MustTopoOrder() {
		nd := &c.Nodes[id]
		if nd.IsPI {
			nid, err := out.AddPI(nd.Name)
			if err != nil {
				panic(err)
			}
			remap[id] = nid
			continue
		}
		if absorbed[id] {
			continue // emitted when its inverter is reached
		}
		// BUF collapsing: point readers at the source, unless the BUF name
		// is load-bearing (a PO is named after it) — keep those.
		if nd.Kind == logic.Buf && !c.IsPODriver(id) {
			remap[id] = remap[nd.Fanin[0]]
			continue
		}
		kind := nd.Kind
		fanin := nd.Fanin
		if kind == logic.Inv {
			src := nd.Fanin[0]
			if absorbed[src] {
				sn := &c.Nodes[src]
				if sn.Kind == logic.And {
					kind = logic.Nand
				} else {
					kind = logic.Nor
				}
				fanin = sn.Fanin
			}
		}
		mapped := make([]circuit.NodeID, len(fanin))
		dup := false
		seen := make(map[circuit.NodeID]bool, len(fanin))
		for j, f := range fanin {
			mapped[j] = remap[f]
			if seen[mapped[j]] {
				dup = true
			}
			seen[mapped[j]] = true
		}
		if dup {
			// BUF collapsing can alias two pins onto one source; drop
			// duplicates for idempotent kinds, keep via a fresh BUF pair
			// otherwise.
			if kind == logic.And || kind == logic.Or || kind == logic.Nand || kind == logic.Nor {
				uniq := mapped[:0:0]
				s2 := make(map[circuit.NodeID]bool, len(mapped))
				for _, m := range mapped {
					if !s2[m] {
						s2[m] = true
						uniq = append(uniq, m)
					}
				}
				mapped = uniq
				if len(mapped) == 1 {
					// Degenerate: AND(x,x) = x (or NAND(x,x) = INV x).
					switch kind {
					case logic.And, logic.Or:
						kind = logic.Buf
					case logic.Nand, logic.Nor:
						kind = logic.Inv
					}
				}
			} else {
				// XOR-family duplicate: insert a BUF to disambiguate.
				for j := 1; j < len(mapped); j++ {
					if mapped[j] == mapped[0] || seenBefore(mapped, j) {
						b, err := out.AddGate(out.FreshName(c.Nodes[fanin[j]].Name+"_d"), logic.Buf, mapped[j])
						if err != nil {
							panic(err)
						}
						mapped[j] = b
					}
				}
			}
		}
		nid, err := out.AddGate(nd.Name, kind, mapped...)
		if err != nil {
			panic(err)
		}
		remap[id] = nid
	}
	pos := make([]circuit.PO, len(c.POs))
	for i, po := range c.POs {
		pos[i] = circuit.PO{Name: po.Name, Driver: remap[po.Driver]}
	}
	if err := out.AddPOs(pos); err != nil {
		panic(err)
	}
	return out
}

func seenBefore(ids []circuit.NodeID, j int) bool {
	for i := 0; i < j; i++ {
		if ids[i] == ids[j] {
			return true
		}
	}
	return false
}
