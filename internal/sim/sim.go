// Package sim is the gate-level reference simulator: stimulus generation
// (seeded random vectors, exhaustive enumeration for small input counts) and
// a deliberately plain 64-way bit-parallel evaluator that walks the netlist
// gate by gate through logic.Kind.EvalWord. The optimised simulation kernel
// is the packed AIG in internal/aig; this package is the independent oracle
// that kernel and the fingerprinting pipeline are tested against. One-shot
// callers (the SDC scan, the red-team DIP oracle) use it too, since one
// reference run costs less than building an AIG view, and so does the
// daemon's degraded spot-check, which must not depend on the AIG stack.
//
// It is a leaf package on purpose: it must not import internal/aig, so the
// reference stays independent of the code it checks and the aig tests can
// import it.
package sim

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/circuit"
	"repro/internal/obs"
)

// Observability counters (internal/obs): reference runs and gate-words
// evaluated, both deterministic for a fixed workload.
var (
	mRuns  = obs.NewCounter("sim", "runs")
	mWords = obs.NewCounter("sim", "gate_words")
)

// Vectors holds stimulus for a circuit: Words[i] is the bit-parallel value
// stream of primary input i (in circuit PI order); each uint64 carries 64
// test patterns. All PIs must have the same number of words.
type Vectors struct {
	Words [][]uint64
}

// NumWords returns the number of 64-pattern words per input.
func (v *Vectors) NumWords() int {
	if len(v.Words) == 0 {
		return 0
	}
	return len(v.Words[0])
}

// Random generates nWords random 64-pattern words for a circuit with nPI
// inputs, deterministically from seed.
func Random(nPI, nWords int, seed int64) *Vectors {
	rng := rand.New(rand.NewSource(seed))
	v := &Vectors{Words: make([][]uint64, nPI)}
	for i := range v.Words {
		w := make([]uint64, nWords)
		for j := range w {
			w[j] = rng.Uint64()
		}
		v.Words[i] = w
	}
	return v
}

// sharedRandomCache memoizes Random vector sets by shape and seed. The
// vectors are immutable once published; callers must not write to them.
var sharedRandomCache struct {
	sync.RWMutex
	m map[randomKey]*Vectors
}

type randomKey struct {
	nPI, nWords int
	seed        int64
}

// SharedRandom returns the same *Vectors as Random(nPI, nWords, seed) but
// memoized process-wide, so repeated estimators with the same seed and shape
// (power, ODC fraction) share one allocation. The result is shared and must
// be treated as read-only.
func SharedRandom(nPI, nWords int, seed int64) *Vectors {
	key := randomKey{nPI, nWords, seed}
	sharedRandomCache.RLock()
	v := sharedRandomCache.m[key]
	sharedRandomCache.RUnlock()
	if v != nil {
		return v
	}
	v = Random(nPI, nWords, seed)
	sharedRandomCache.Lock()
	if prev, ok := sharedRandomCache.m[key]; ok {
		v = prev
	} else {
		if sharedRandomCache.m == nil {
			sharedRandomCache.m = make(map[randomKey]*Vectors)
		}
		sharedRandomCache.m[key] = v
	}
	sharedRandomCache.Unlock()
	return v
}

// MaxExhaustivePIs bounds exhaustive enumeration: 2^22 patterns = 65536
// words per input, comfortably in memory and time for unit tests.
const MaxExhaustivePIs = 22

// blockMasks[i] is the 64-pattern word of input i under counting order:
// bit lane l equals (l>>i)&1, i.e. input i alternates blocks of 2^i zeros
// and 2^i ones.
var blockMasks = [6]uint64{
	0xAAAAAAAAAAAAAAAA,
	0xCCCCCCCCCCCCCCCC,
	0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00,
	0xFFFF0000FFFF0000,
	0xFFFFFFFF00000000,
}

// Exhaustive generates all 2^nPI input patterns in counting order. When
// 2^nPI < 64 the word is padded by cycling through the pattern range again
// (pattern p carries input bits (p mod 2^nPI)>>i), which is harmless for
// equivalence checking: no new input combinations are introduced.
// It returns an error when nPI exceeds MaxExhaustivePIs.
//
// Construction is by block-pattern word fills rather than per-bit loops:
// input i alternates 2^i-sized blocks, so for i < 6 every word is the fixed
// mask blockMasks[i], and for i >= 6 word w is all-ones exactly when bit
// i-6 of w is set. This is bit-for-bit identical to the per-bit definition,
// including the sub-word padding case (masking p to its low nPI bits never
// changes bit i for i < nPI).
func Exhaustive(nPI int) (*Vectors, error) {
	if nPI > MaxExhaustivePIs {
		return nil, fmt.Errorf("sim: %d PIs exceeds exhaustive limit %d", nPI, MaxExhaustivePIs)
	}
	patterns := 1 << uint(nPI)
	nWords := (patterns + 63) / 64
	v := &Vectors{Words: make([][]uint64, nPI)}
	for i := 0; i < nPI; i++ {
		w := make([]uint64, nWords)
		if i < 6 {
			for j := range w {
				w[j] = blockMasks[i]
			}
		} else {
			for j := range w {
				if j>>uint(i-6)&1 == 1 {
					w[j] = ^uint64(0)
				}
			}
		}
		v.Words[i] = w
	}
	return v, nil
}

// Result holds per-node simulation values: Node[id][w] is the w-th 64-pattern
// word of node id.
type Result struct {
	Node [][]uint64
}

// Run is the reference simulator: it simulates the circuit on the given
// vectors and returns values for all nodes. It walks c.TopoOrder() once and
// evaluates each gate word by word with logic.Kind.EvalWord into freshly
// allocated streams, so the Result owns its storage (PI streams alias the
// input vectors) and stays valid indefinitely.
//
// It is kept as the oracle, not as a fast path: tests compare the packed AIG
// kernel (aig.View.WithSim) and the pipeline's simulation against it, the
// way core.AnalyzeBaseline anchors the packed analysis. It fails if the
// vector shape does not match the PI count or the circuit has a cycle.
func Run(c *circuit.Circuit, v *Vectors) (*Result, error) {
	if len(v.Words) != len(c.PIs) {
		return nil, fmt.Errorf("sim: %d input streams for %d PIs", len(v.Words), len(c.PIs))
	}
	nWords := v.NumWords()
	for i := range v.Words {
		if len(v.Words[i]) != nWords {
			return nil, fmt.Errorf("sim: ragged vector lengths")
		}
	}
	order, err := c.TopoOrder()
	if err != nil {
		return nil, err
	}
	node := make([][]uint64, len(c.Nodes))
	for i, pi := range c.PIs {
		node[pi] = v.Words[i]
	}
	arena := make([]uint64, (len(order)-len(c.PIs))*nWords)
	var in []uint64
	for _, id := range order {
		nd := &c.Nodes[id]
		if nd.IsPI {
			continue
		}
		out := arena[:nWords:nWords]
		arena = arena[nWords:]
		for w := range out {
			in = in[:0]
			for _, f := range nd.Fanin {
				in = append(in, node[f][w])
			}
			out[w] = nd.Kind.EvalWord(in)
		}
		node[id] = out
	}
	mRuns.Inc()
	mWords.Add(int64((len(order) - len(c.PIs)) * nWords))
	return &Result{Node: node}, nil
}

// Outputs returns the PO value streams in PO order.
func (r *Result) Outputs(c *circuit.Circuit) [][]uint64 {
	out := make([][]uint64, len(c.POs))
	for i, po := range c.POs {
		out[i] = r.Node[po.Driver]
	}
	return out
}

// EvalOne evaluates the circuit on a single scalar input assignment, keyed by
// PI order, returning PO values in PO order. Convenience for tests and small
// examples.
func EvalOne(c *circuit.Circuit, inputs []bool) ([]bool, error) {
	if len(inputs) != len(c.PIs) {
		return nil, fmt.Errorf("sim: %d inputs for %d PIs", len(inputs), len(c.PIs))
	}
	v := &Vectors{Words: make([][]uint64, len(inputs))}
	for i, b := range inputs {
		w := uint64(0)
		if b {
			w = 1
		}
		v.Words[i] = []uint64{w}
	}
	res, err := Run(c, v)
	if err != nil {
		return nil, err
	}
	out := make([]bool, len(c.POs))
	for i, po := range c.POs {
		out[i] = res.Node[po.Driver][0]&1 == 1
	}
	return out, nil
}

// Mismatch describes the first difference found between two circuits.
type Mismatch struct {
	PO      string // primary output name
	Pattern int    // global pattern index (word*64 + lane)
}

// String renders the mismatch for error messages.
func (m *Mismatch) String() string {
	return fmt.Sprintf("PO %q differs at pattern %d", m.PO, m.Pattern)
}

// matchedInterface checks that the two circuits have identical PI and PO
// name sequences, the precondition for pattern-by-pattern comparison.
func matchedInterface(a, b *circuit.Circuit) error {
	if len(a.PIs) != len(b.PIs) {
		return fmt.Errorf("sim: PI counts differ (%d vs %d)", len(a.PIs), len(b.PIs))
	}
	for i := range a.PIs {
		if a.Nodes[a.PIs[i]].Name != b.Nodes[b.PIs[i]].Name {
			return fmt.Errorf("sim: PI %d name mismatch (%q vs %q)", i, a.Nodes[a.PIs[i]].Name, b.Nodes[b.PIs[i]].Name)
		}
	}
	if len(a.POs) != len(b.POs) {
		return fmt.Errorf("sim: PO counts differ (%d vs %d)", len(a.POs), len(b.POs))
	}
	for i := range a.POs {
		if a.POs[i].Name != b.POs[i].Name {
			return fmt.Errorf("sim: PO %d name mismatch (%q vs %q)", i, a.POs[i].Name, b.POs[i].Name)
		}
	}
	return nil
}

// Compare simulates both circuits on the same vectors and returns the first
// mismatching PO/pattern, or nil if all sampled patterns agree.
func Compare(a, b *circuit.Circuit, v *Vectors) (*Mismatch, error) {
	if err := matchedInterface(a, b); err != nil {
		return nil, err
	}
	ra, err := Run(a, v)
	if err != nil {
		return nil, err
	}
	rb, err := Run(b, v)
	if err != nil {
		return nil, err
	}
	for i, po := range a.POs {
		wa := ra.Node[po.Driver]
		wb := rb.Node[b.POs[i].Driver]
		for w := range wa {
			if diff := wa[w] ^ wb[w]; diff != 0 {
				lane := 0
				for diff&1 == 0 {
					diff >>= 1
					lane++
				}
				return &Mismatch{PO: po.Name, Pattern: w*64 + lane}, nil
			}
		}
	}
	return nil, nil
}

// EquivalentExhaustive proves or refutes equivalence of two circuits with at
// most MaxExhaustivePIs inputs by enumerating every pattern.
func EquivalentExhaustive(a, b *circuit.Circuit) (bool, *Mismatch, error) {
	vec, err := Exhaustive(len(a.PIs))
	if err != nil {
		return false, nil, err
	}
	m, err := Compare(a, b, vec)
	if err != nil {
		return false, nil, err
	}
	return m == nil, m, nil
}

// EquivalentRandom samples nWords×64 random patterns; a nil mismatch is
// evidence (not proof) of equivalence. Use internal/cec for proof.
func EquivalentRandom(a, b *circuit.Circuit, nWords int, seed int64) (bool, *Mismatch, error) {
	vec := Random(len(a.PIs), nWords, seed)
	m, err := Compare(a, b, vec)
	if err != nil {
		return false, nil, err
	}
	return m == nil, m, nil
}

// ToggleCounts simulates the circuit and returns, per node, the number of
// value changes between consecutive patterns — a crude measured switching
// activity that tests use to cross-check the probabilistic power model.
func ToggleCounts(c *circuit.Circuit, v *Vectors) ([]int, error) {
	res, err := Run(c, v)
	if err != nil {
		return nil, err
	}
	counts := make([]int, len(res.Node))
	for id, words := range res.Node {
		var last uint64 // value of previous pattern bit
		first := true
		for _, w := range words {
			for lane := 0; lane < 64; lane++ {
				bit := w >> uint(lane) & 1
				if !first && bit != last {
					counts[id]++
				}
				last = bit
				first = false
			}
		}
	}
	return counts, nil
}
