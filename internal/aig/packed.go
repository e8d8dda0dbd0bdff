package aig

// Packed is a struct-of-arrays snapshot of an AIG tuned for word-parallel
// simulation: the two fanin edges of every AND live in contiguous parallel
// arrays (complement bit in the Ref LSB, exactly as in the graph form), so
// the simulation kernel is a single linear sweep with no per-node pointer
// chasing, map lookups or kind dispatch. Node indices are shared with the
// source AIG — a Ref obtained from FromCircuit addresses the same node in
// both forms — and the AND array is in ascending node order, which is a
// valid topological order by construction (And always appends after its
// fanins exist).
//
// A Packed is immutable after Pack and safe for concurrent use; simulation
// state lives entirely in caller-provided buffers.
type Packed struct {
	nNodes int
	pis    []int32 // node index of each PI, in declaration order
	ands   []int32 // AND node indices, ascending
	f0, f1 []Ref   // fanins per AND, parallel to ands
	pos    []Ref   // PO edges, in declaration order
}

// Pack flattens the graph into its struct-of-arrays simulation form.
func (g *AIG) Pack() *Packed {
	p := &Packed{
		nNodes: len(g.nodes),
		pis:    make([]int32, len(g.pis)),
		pos:    make([]Ref, len(g.POs)),
	}
	for i, n := range g.pis {
		p.pis[i] = int32(n)
	}
	for i, po := range g.POs {
		p.pos[i] = po.Ref
	}
	nAnds := 0
	for i := range g.nodes {
		if g.nodes[i].kind == kindAnd {
			nAnds++
		}
	}
	p.ands = make([]int32, 0, nAnds)
	p.f0 = make([]Ref, 0, nAnds)
	p.f1 = make([]Ref, 0, nAnds)
	for i := range g.nodes {
		if g.nodes[i].kind != kindAnd {
			continue
		}
		p.ands = append(p.ands, int32(i))
		p.f0 = append(p.f0, g.nodes[i].f0)
		p.f1 = append(p.f1, g.nodes[i].f1)
	}
	return p
}

// NumNodes returns the node count, which fixes the SimInto buffer size.
func (p *Packed) NumNodes() int { return p.nNodes }

// SimInto runs the word-parallel simulation kernel: in[i] carries nWords
// 64-pattern words for PI i (declaration order), and val — a flat buffer of
// at least NumNodes()*nWords words, node n's stream at val[n*nWords:] — is
// filled with every node's positive-phase values. The kernel is branch-free
// per word: with m0/m1 the complement masks of the two fanin edges,
//
//	out[w] = (x0[w]^m0) & (x1[w]^m1)
//
// Edges into the result are read with Stream-style complement masks; the
// constant node simulates as all-ones (node 0 is the constant TRUE).
func (p *Packed) SimInto(val []uint64, in [][]uint64, nWords int) {
	// Constant node.
	c := val[:nWords]
	for w := range c {
		c[w] = ^uint64(0)
	}
	for i, n := range p.pis {
		copy(val[int(n)*nWords:(int(n)+1)*nWords], in[i][:nWords])
	}
	for k, n := range p.ands {
		r0, r1 := p.f0[k], p.f1[k]
		x0 := val[r0.Node()*nWords : r0.Node()*nWords+nWords]
		x1 := val[r1.Node()*nWords : r1.Node()*nWords+nWords]
		out := val[int(n)*nWords : int(n)*nWords+nWords : int(n)*nWords+nWords]
		m0 := complMask(r0)
		m1 := complMask(r1)
		for w := range out {
			out[w] = (x0[w] ^ m0) & (x1[w] ^ m1)
		}
	}
}

// complMask returns the XOR mask realizing an edge's complement bit: all
// ones for a complemented edge, zero otherwise.
func complMask(r Ref) uint64 {
	return -uint64(r & 1)
}

// Stream resolves an edge against a SimInto buffer: it returns the
// positive-phase word stream of the edge's node together with the XOR mask
// that applies the edge's complement, so callers consume values as
// words[w]^mask without branching.
func (p *Packed) Stream(val []uint64, nWords int, r Ref) (words []uint64, mask uint64) {
	n := r.Node()
	return val[n*nWords : n*nWords+nWords], complMask(r)
}

// EvalPOs evaluates the POs on one scalar input assignment (PI declaration
// order) using a single-word pass of the simulation kernel, writing into out
// when it has the right length (allocating otherwise) and using scratch as
// the value buffer when it is large enough. It is the counterexample-replay
// primitive: cec resolves which output a SAT witness flips by replaying it
// here.
func (p *Packed) EvalPOs(inputs []bool, out []bool, scratch []uint64) []bool {
	if cap(scratch) < p.nNodes {
		scratch = make([]uint64, p.nNodes)
	}
	val := scratch[:p.nNodes]
	val[0] = ^uint64(0)
	for i, n := range p.pis {
		var w uint64
		if inputs[i] {
			w = 1
		}
		val[n] = w
	}
	for k, n := range p.ands {
		r0, r1 := p.f0[k], p.f1[k]
		val[n] = (val[r0.Node()] ^ complMask(r0)) & (val[r1.Node()] ^ complMask(r1))
	}
	if len(out) != len(p.pos) {
		out = make([]bool, len(p.pos))
	}
	for i, r := range p.pos {
		out[i] = (val[r.Node()]^complMask(r))&1 == 1
	}
	return out
}

// NumAnds returns the AND-node count.
func (p *Packed) NumAnds() int { return len(p.ands) }

// And returns the i-th AND (i in [0, NumAnds()), ascending node order — a
// valid topological order) as its node index and two fanin edges. It is the
// iteration surface for consumers that lower the graph into another form,
// such as the CNF encoder in internal/cec.
func (p *Packed) And(i int) (node int, f0, f1 Ref) {
	return int(p.ands[i]), p.f0[i], p.f1[i]
}
