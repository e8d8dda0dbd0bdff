// Package aig implements And-Inverter Graphs — the internal representation
// of the ABC synthesis system the paper's flow is built on (§IV: benchmarks
// "were put through Berkeley's ABC program"). An AIG is a DAG of 2-input
// AND nodes with complementable edges; every combinational function
// decomposes into it. The package provides:
//
//   - construction with structural hashing and constant/identity folding
//     (ABC's `strash`),
//   - tree balancing to reduce logic depth (ABC's `balance`),
//   - lossless conversion to and from the gate-level circuit representation,
//
// giving the repository a resynthesis path: Circuit → AIG → balance →
// Circuit → Nandify, used by the structure-sensitivity experiment (how
// fingerprint capacity responds to resynthesis).
package aig

import (
	"fmt"
	"sort"

	"repro/internal/circuit"
	"repro/internal/logic"
)

// Ref is an edge: a node index with a complement bit in the LSB.
type Ref uint32

// Node 0 is the constant-true node, so:
const (
	// True is the constant-1 function.
	True Ref = 0
	// False is the constant-0 function (complemented true).
	False Ref = 1
)

func mkRef(node int, compl bool) Ref {
	r := Ref(node) << 1
	if compl {
		r |= 1
	}
	return r
}

// Node returns the node index of the edge.
func (r Ref) Node() int { return int(r >> 1) }

// Compl reports whether the edge is complemented.
func (r Ref) Compl() bool { return r&1 == 1 }

// Not returns the complemented edge.
func (r Ref) Not() Ref { return r ^ 1 }

type node struct {
	// f0, f1 are the AND fanins; PIs and the constant have f0 == f1 == 0
	// and are distinguished by kind.
	f0, f1 Ref
	kind   uint8 // 0 = const, 1 = PI, 2 = AND
	level  int32
}

const (
	kindConst = iota
	kindPI
	kindAnd
)

// PO names a primary output edge.
type PO struct {
	Name string
	Ref  Ref
}

// AIG is an and-inverter graph. Construct with New.
type AIG struct {
	Name  string
	nodes []node
	pis   []int // node indices, in declaration order
	names []string
	POs   []PO

	strash map[[2]Ref]int
}

// New returns an empty AIG (just the constant node).
func New(name string) *AIG {
	return &AIG{
		Name:   name,
		nodes:  []node{{kind: kindConst}},
		strash: make(map[[2]Ref]int),
	}
}

// NumAnds returns the number of AND nodes.
func (g *AIG) NumAnds() int { return len(g.nodes) - 1 - len(g.pis) }

// Levels returns the depth of the graph (max level over PO nodes).
func (g *AIG) Levels() int {
	max := int32(0)
	for _, po := range g.POs {
		if l := g.nodes[po.Ref.Node()].level; l > max {
			max = l
		}
	}
	return int(max)
}

// AddPI appends a primary input and returns its (positive) edge.
func (g *AIG) AddPI(name string) Ref {
	idx := len(g.nodes)
	g.nodes = append(g.nodes, node{kind: kindPI})
	g.pis = append(g.pis, idx)
	g.names = append(g.names, name)
	return mkRef(idx, false)
}

// AddPO declares a primary output.
func (g *AIG) AddPO(name string, r Ref) {
	g.POs = append(g.POs, PO{Name: name, Ref: r})
}

// And returns an edge computing a ∧ b, applying constant folding, the
// idempotence/annihilation identities and structural hashing.
func (g *AIG) And(a, b Ref) Ref {
	// Identities.
	switch {
	case a == False || b == False:
		return False
	case a == True:
		return b
	case b == True:
		return a
	case a == b:
		return a
	case a == b.Not():
		return False
	}
	// Canonical order for hashing.
	if a > b {
		a, b = b, a
	}
	key := [2]Ref{a, b}
	if idx, ok := g.strash[key]; ok {
		return mkRef(idx, false)
	}
	idx := len(g.nodes)
	l0 := g.nodes[a.Node()].level
	l1 := g.nodes[b.Node()].level
	if l1 > l0 {
		l0 = l1
	}
	g.nodes = append(g.nodes, node{f0: a, f1: b, kind: kindAnd, level: l0 + 1})
	g.strash[key] = idx
	return mkRef(idx, false)
}

// Or returns a ∨ b.
func (g *AIG) Or(a, b Ref) Ref { return g.And(a.Not(), b.Not()).Not() }

// Xor returns a ⊕ b (3 AND nodes before hashing).
func (g *AIG) Xor(a, b Ref) Ref {
	return g.Or(g.And(a, b.Not()), g.And(a.Not(), b))
}

// AndN reduces a conjunction over edges with a balanced tree (sorted by
// level so shallow operands combine first — the `balance` discipline).
func (g *AIG) AndN(refs []Ref) Ref {
	if len(refs) == 0 {
		return True
	}
	work := append([]Ref(nil), refs...)
	for len(work) > 1 {
		sort.Slice(work, func(i, j int) bool {
			return g.nodes[work[i].Node()].level < g.nodes[work[j].Node()].level
		})
		var next []Ref
		for i := 0; i+1 < len(work); i += 2 {
			next = append(next, g.And(work[i], work[i+1]))
		}
		if len(work)%2 == 1 {
			next = append(next, work[len(work)-1])
		}
		work = next
	}
	return work[0]
}

// OrN reduces a disjunction with a balanced tree.
func (g *AIG) OrN(refs []Ref) Ref {
	inv := make([]Ref, len(refs))
	for i, r := range refs {
		inv[i] = r.Not()
	}
	return g.AndN(inv).Not()
}

// XorN chains XORs in a balanced tree.
func (g *AIG) XorN(refs []Ref) Ref {
	if len(refs) == 0 {
		return False
	}
	work := append([]Ref(nil), refs...)
	for len(work) > 1 {
		var next []Ref
		for i := 0; i+1 < len(work); i += 2 {
			next = append(next, g.Xor(work[i], work[i+1]))
		}
		if len(work)%2 == 1 {
			next = append(next, work[len(work)-1])
		}
		work = next
	}
	return work[0]
}

// FromCircuit decomposes a gate-level circuit into an AIG (strashed).
func FromCircuit(c *circuit.Circuit) (*AIG, error) {
	g, _, err := FromCircuitRefs(c)
	return g, err
}

// FromCircuitRefs is FromCircuit, additionally returning the edge computing
// each circuit node (indexed by NodeID). Two circuit nodes mapping to the
// same Ref node — in either phase — are functionally identical (strash is
// sound), which is what the fraiging pre-pass in internal/cec merges on.
func FromCircuitRefs(c *circuit.Circuit) (*AIG, []Ref, error) {
	g := New(c.Name)
	ref, err := FoldInto(g, c, nil)
	if err != nil {
		return nil, nil, err
	}
	for _, po := range c.POs {
		g.AddPO(po.Name, ref[po.Driver])
	}
	return g, ref, nil
}

// FoldInto strashes c's logic into an existing AIG and returns the edge
// computing each circuit node. Primary inputs resolve through piRef by name:
// an existing entry is reused, a missing one is created and recorded (nil
// means every PI is fresh). Folding two circuits over the same piRef map
// builds a shared miter AIG in which any cone the two circuits compute
// identically — up to complement — lands on the same node, which is how the
// one-shot equivalence check discharges structurally-similar miters before
// SAT. No primary outputs are declared; callers resolve outputs through the
// returned refs.
func FoldInto(g *AIG, c *circuit.Circuit, piRef map[string]Ref) ([]Ref, error) {
	ref := make([]Ref, len(c.Nodes))
	for _, pi := range c.PIs {
		name := c.Nodes[pi].Name
		if r, ok := piRef[name]; ok {
			ref[pi] = r
			continue
		}
		r := g.AddPI(name)
		if piRef != nil {
			piRef[name] = r
		}
		ref[pi] = r
	}
	order, err := c.TopoOrder()
	if err != nil {
		return nil, err
	}
	for _, id := range order {
		nd := &c.Nodes[id]
		if nd.IsPI {
			continue
		}
		ins := make([]Ref, len(nd.Fanin))
		for i, f := range nd.Fanin {
			ins[i] = ref[f]
		}
		switch nd.Kind {
		case logic.Const0:
			ref[id] = False
		case logic.Const1:
			ref[id] = True
		case logic.Buf:
			ref[id] = ins[0]
		case logic.Inv:
			ref[id] = ins[0].Not()
		case logic.And:
			ref[id] = g.AndN(ins)
		case logic.Nand:
			ref[id] = g.AndN(ins).Not()
		case logic.Or:
			ref[id] = g.OrN(ins)
		case logic.Nor:
			ref[id] = g.OrN(ins).Not()
		case logic.Xor:
			ref[id] = g.XorN(ins)
		case logic.Xnor:
			ref[id] = g.XorN(ins).Not()
		default:
			return nil, fmt.Errorf("aig: unsupported kind %v at %q", nd.Kind, nd.Name)
		}
	}
	return ref, nil
}

// ToCircuit lowers the AIG to an AND2/INV gate-level netlist. Only nodes
// reachable from POs are emitted. Inverters are shared per node.
func (g *AIG) ToCircuit() (*circuit.Circuit, error) {
	c := circuit.New(g.Name)
	// Reachability.
	live := make([]bool, len(g.nodes))
	var mark func(r Ref)
	mark = func(r Ref) {
		n := r.Node()
		if live[n] {
			return
		}
		live[n] = true
		if g.nodes[n].kind == kindAnd {
			mark(g.nodes[n].f0)
			mark(g.nodes[n].f1)
		}
	}
	for _, po := range g.POs {
		mark(po.Ref)
	}

	pos := make([]circuit.NodeID, len(g.nodes)) // positive-phase driver
	neg := make([]circuit.NodeID, len(g.nodes)) // inverted-phase driver (lazy)
	for i := range neg {
		pos[i], neg[i] = circuit.None, circuit.None
	}
	getConst := func(val bool) (circuit.NodeID, error) {
		// Constants are rare; allocate one node per phase on demand.
		kind := logic.Const0
		name := "aig_const0"
		if val {
			kind = logic.Const1
			name = "aig_const1"
		}
		if id, ok := c.Lookup(name); ok {
			return id, nil
		}
		return c.AddGate(name, kind)
	}

	for i, piIdx := range g.pis {
		id, err := c.AddPI(g.names[i])
		if err != nil {
			return nil, err
		}
		pos[piIdx] = id
	}
	// Emit ANDs in index order (a valid topological order by construction).
	var edge func(r Ref) (circuit.NodeID, error)
	edge = func(r Ref) (circuit.NodeID, error) {
		n := r.Node()
		if g.nodes[n].kind == kindConst {
			return getConst(!r.Compl())
		}
		if !r.Compl() {
			return pos[n], nil
		}
		if neg[n] != circuit.None {
			return neg[n], nil
		}
		id, err := c.AddGate(c.FreshName(fmt.Sprintf("n%d_inv", n)), logic.Inv, pos[n])
		if err != nil {
			return circuit.None, err
		}
		neg[n] = id
		return id, nil
	}
	for i := 1; i < len(g.nodes); i++ {
		if !live[i] || g.nodes[i].kind != kindAnd {
			continue
		}
		a, err := edge(g.nodes[i].f0)
		if err != nil {
			return nil, err
		}
		b, err := edge(g.nodes[i].f1)
		if err != nil {
			return nil, err
		}
		var id circuit.NodeID
		if a == b {
			// Can only happen through constant collapsing; a buffer keeps
			// the node materialised.
			id, err = c.AddGate(c.FreshName(fmt.Sprintf("n%d", i)), logic.Buf, a)
		} else {
			id, err = c.AddGate(c.FreshName(fmt.Sprintf("n%d", i)), logic.And, a, b)
		}
		if err != nil {
			return nil, err
		}
		pos[i] = id
	}
	for _, po := range g.POs {
		drv, err := edge(po.Ref)
		if err != nil {
			return nil, err
		}
		name := po.Name
		if id, exists := c.Lookup(name); exists && id != drv {
			name = c.FreshName(po.Name)
		}
		if err := c.AddPO(name, drv); err != nil {
			return nil, err
		}
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// Balance rebuilds the AIG with level-sorted conjunct trees (ABC's
// `balance`): every maximal single-fanout AND subtree is flattened into its
// conjunct set and rebuilt shallow-first. The rebuild occasionally loses a
// depth-favourable sharing accident of the original graph, so Balance
// keeps whichever of {original, rebuilt} is shallower — the result computes
// the same functions and never has greater depth (callers may receive the
// receiver itself).
func (g *AIG) Balance() *AIG {
	out := g.balanceOnce()
	if out.Levels() > g.Levels() {
		return g
	}
	return out
}

func (g *AIG) balanceOnce() *AIG {
	out := New(g.Name)
	ref := make([]Ref, len(g.nodes))
	for i, piIdx := range g.pis {
		ref[piIdx] = out.AddPI(g.names[i])
	}
	// Fanout counts decide subtree boundaries: a conjunct subtree stops at
	// nodes referenced more than once (they are shared and rebuilt once).
	fan := make([]int, len(g.nodes))
	for i := 1; i < len(g.nodes); i++ {
		if g.nodes[i].kind == kindAnd {
			fan[g.nodes[i].f0.Node()]++
			fan[g.nodes[i].f1.Node()]++
		}
	}
	for _, po := range g.POs {
		fan[po.Ref.Node()]++
	}
	memo := make([]Ref, len(g.nodes))
	for i := range memo {
		memo[i] = Ref(^uint32(0))
	}
	var build func(n int) Ref
	var collect func(r Ref, leaves *[]Ref)
	collect = func(r Ref, leaves *[]Ref) {
		n := r.Node()
		if !r.Compl() && g.nodes[n].kind == kindAnd && fan[n] == 1 {
			collect(g.nodes[n].f0, leaves)
			collect(g.nodes[n].f1, leaves)
			return
		}
		// Leaf: rebuild the node itself, keep the complement.
		nr := build(n)
		if r.Compl() {
			nr = nr.Not()
		}
		*leaves = append(*leaves, nr)
	}
	build = func(n int) Ref {
		if memo[n] != Ref(^uint32(0)) {
			return memo[n]
		}
		nd := &g.nodes[n]
		var r Ref
		switch nd.kind {
		case kindConst:
			r = True
		case kindPI:
			r = ref[n]
		default:
			var leaves []Ref
			collect(nd.f0, &leaves)
			collect(nd.f1, &leaves)
			r = out.AndN(leaves)
		}
		memo[n] = r
		return r
	}
	for _, po := range g.POs {
		nr := build(po.Ref.Node())
		if po.Ref.Compl() {
			nr = nr.Not()
		}
		out.AddPO(po.Name, nr)
	}
	return out
}
