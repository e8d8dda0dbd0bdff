package aig

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/logic"
	"repro/internal/sim"
)

// allKindsCircuit builds one gate of every logic.Kind at every legal arity
// from 0 to 4 over four primary inputs, each gate driving its own PO, so a
// single exhaustive run covers the whole gate vocabulary.
func allKindsCircuit(t *testing.T) *circuit.Circuit {
	t.Helper()
	c := circuit.New("kinds")
	var pis []circuit.NodeID
	for i := 0; i < 4; i++ {
		id, err := c.AddPI(fmt.Sprintf("x%d", i))
		if err != nil {
			t.Fatal(err)
		}
		pis = append(pis, id)
	}
	for k := logic.Kind(0); k < logic.NumKinds; k++ {
		for n := k.MinFanin(); n <= 4; n++ {
			if k.FixedFanin() && n != k.MinFanin() {
				break
			}
			name := fmt.Sprintf("%v%d", k, n)
			id, err := c.AddGate(name, k, pis[:n]...)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.AddPO(name, id); err != nil {
				t.Fatal(err)
			}
		}
	}
	return c
}

// TestPackedSimMatchesReference: the packed word-parallel kernel agrees with
// the gate-level reference simulator (sim.Run) on every circuit node, across
// random circuits and, under exhaustive stimulus, every gate kind at every
// legal arity.
func TestPackedSimMatchesReference(t *testing.T) {
	type input struct {
		name string
		c    *circuit.Circuit
		vecs *sim.Vectors
	}
	var inputs []input
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := randomMapped(rng, 4+rng.Intn(4), 10+rng.Intn(30))
		inputs = append(inputs, input{fmt.Sprintf("seed %d", seed), c, sim.Random(len(c.PIs), 4, seed+1)})
	}
	kinds := allKindsCircuit(t)
	exh, err := sim.Exhaustive(len(kinds.PIs))
	if err != nil {
		t.Fatal(err)
	}
	inputs = append(inputs, input{"all kinds", kinds, exh})
	for _, in := range inputs {
		c, nWords := in.c, in.vecs.NumWords()
		v, err := ViewFor(c)
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		res, err := sim.Run(c, in.vecs)
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		v.WithSim(in.vecs.Words, nWords, func(val []uint64) {
			for id := range c.Nodes {
				words, mask := v.P.Stream(val, nWords, v.Refs[id])
				for w := 0; w < nWords; w++ {
					if words[w]^mask != res.Node[id][w] {
						t.Fatalf("%s: node %d (%s) word %d: packed %x, reference %x",
							in.name, id, c.Nodes[id].Name, w, words[w]^mask, res.Node[id][w])
					}
				}
			}
		})
	}
}

// TestPackedSimBench: same agreement on a full ISCAS benchmark.
func TestPackedSimBench(t *testing.T) {
	spec, err := bench.ByName("c880")
	if err != nil {
		t.Fatal(err)
	}
	c := spec.Build()
	v, err := ViewFor(c)
	if err != nil {
		t.Fatal(err)
	}
	const nWords = 8
	vecs := sim.Random(len(c.PIs), nWords, 7)
	res, err := sim.Run(c, vecs)
	if err != nil {
		t.Fatal(err)
	}
	v.WithSim(vecs.Words, nWords, func(val []uint64) {
		for id := range c.Nodes {
			words, mask := v.P.Stream(val, nWords, v.Refs[id])
			for w := 0; w < nWords; w++ {
				if words[w]^mask != res.Node[id][w] {
					t.Fatalf("node %d (%s) word %d: packed %x, reference %x",
						id, c.Nodes[id].Name, w, words[w]^mask, res.Node[id][w])
				}
			}
		}
	})
}

// TestEvalPOsMatchesEvalOne: the single-word counterexample-replay primitive
// agrees with the scalar evaluator on random circuits and, on every input
// pattern of the sim.Exhaustive enumeration, on every gate kind at every
// legal arity.
func TestEvalPOsMatchesEvalOne(t *testing.T) {
	check := func(name string, c *circuit.Circuit, in []bool) {
		t.Helper()
		v, err := ViewFor(c)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sim.EvalOne(c, in)
		if err != nil {
			t.Fatal(err)
		}
		out := v.EvalPOs(in, nil)
		for i := range want {
			if out[i] != want[i] {
				t.Fatalf("%s: inputs %v: PO %s: packed %v, scalar %v",
					name, in, c.POs[i].Name, out[i], want[i])
			}
		}
	}
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := randomMapped(rng, 5, 12+rng.Intn(20))
		for trial := 0; trial < 32; trial++ {
			in := make([]bool, len(c.PIs))
			for i := range in {
				in[i] = rng.Intn(2) == 1
			}
			check(fmt.Sprintf("seed %d trial %d", seed, trial), c, in)
		}
	}
	kinds := allKindsCircuit(t)
	exh, err := sim.Exhaustive(len(kinds.PIs))
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 1<<len(kinds.PIs); p++ {
		in := make([]bool, len(kinds.PIs))
		for i := range in {
			in[i] = exh.Words[i][p/64]>>uint(p%64)&1 == 1
		}
		check("all kinds", kinds, in)
	}
}

// TestViewWithSimZeroAlloc: re-simulating a cached view on a same-shaped
// stimulus reuses its arena and allocates nothing.
func TestViewWithSimZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := randomMapped(rng, 8, 200)
	v, err := ViewFor(c)
	if err != nil {
		t.Fatal(err)
	}
	const nWords = 16
	vecs := sim.Random(len(c.PIs), nWords, 3)
	fn := func([]uint64) {}
	v.WithSim(vecs.Words, nWords, fn)
	if allocs := testing.AllocsPerRun(50, func() { v.WithSim(vecs.Words, nWords, fn) }); allocs != 0 {
		t.Errorf("View.WithSim re-run allocates %.1f objects/op, want 0", allocs)
	}
}

// TestViewForCache: the view cache returns the same view for an unchanged
// circuit and rebuilds after a mutation.
func TestViewForCache(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	c := randomMapped(rng, 4, 10)
	v1, err := ViewFor(c)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := ViewFor(c)
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 {
		t.Error("unchanged circuit did not hit the view cache")
	}
	if _, err := c.AddGate(c.FreshName("g"), logic.And, c.PIs[0], c.PIs[1]); err != nil {
		t.Fatal(err)
	}
	v3, err := ViewFor(c)
	if err != nil {
		t.Fatal(err)
	}
	if v3 == v1 {
		t.Error("mutated circuit returned a stale cached view")
	}
}
