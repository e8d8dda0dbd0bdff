package aig

import (
	"sync"

	"repro/internal/circuit"
	"repro/internal/obs"
)

// View cache counters.
var (
	mViewHits   = obs.NewCounter("aig", "view_cache_hits")
	mViewMisses = obs.NewCounter("aig", "view_cache_misses")
)

// View bundles the AIG decomposition of one circuit with its packed
// simulation form and the circuit-node → AIG-edge map, plus a reusable
// simulation arena. It is the repository's one optimised simulation kernel,
// the unit every hot path consumes: odc streams masked fractions from it,
// cec fraigs and sweeps the session master and replays counterexamples on
// it. Its values are tested bit-for-bit against the gate-level reference
// simulator (sim.Run). Obtain one through ViewFor; the graph, packed form
// and ref map are immutable, while simulation goes through WithSim/EvalPOs
// which serialize on an internal lock so one cached arena serves all
// callers.
type View struct {
	C    *circuit.Circuit
	G    *AIG
	P    *Packed
	Refs []Ref // Refs[id] computes circuit node id (phase in the LSB)

	mu    sync.Mutex
	arena []uint64
}

// viewCache maps circuits to their views, evicting oldest-first beyond
// viewCacheMax to bound memory (AIG plus arena) in long runs. A cached view
// is invalid once its circuit mutates; the version check below drops stale
// entries.
var viewCache struct {
	sync.Mutex
	m     map[*circuit.Circuit]*cachedView
	order []*circuit.Circuit
}

type cachedView struct {
	v       *View
	version uint64
}

const viewCacheMax = 16

// ViewFor returns a process-wide shared View of c, creating and caching it
// on first use. A cache entry is keyed by circuit identity and stamped with
// the circuit version, so mutating c and calling ViewFor again rebuilds
// rather than returning a stale decomposition. Every logic.Kind decomposes,
// so the only error is a combinational cycle in c.
func ViewFor(c *circuit.Circuit) (*View, error) {
	viewCache.Lock()
	defer viewCache.Unlock()
	if e, ok := viewCache.m[c]; ok && e.version == c.Version() {
		mViewHits.Inc()
		return e.v, nil
	}
	mViewMisses.Inc()
	g, refs, err := FromCircuitRefs(c)
	if err != nil {
		return nil, err
	}
	v := &View{C: c, G: g, P: g.Pack(), Refs: refs}
	if viewCache.m == nil {
		viewCache.m = make(map[*circuit.Circuit]*cachedView)
	}
	if _, ok := viewCache.m[c]; !ok {
		viewCache.order = append(viewCache.order, c)
	}
	viewCache.m[c] = &cachedView{v: v, version: c.Version()}
	if len(viewCache.order) > viewCacheMax {
		old := viewCache.order[0]
		viewCache.order = viewCache.order[1:]
		delete(viewCache.m, old)
	}
	return v, nil
}

// WithSim runs the word-parallel kernel over the view's packed form — in[i]
// carries nWords words for PI i, in AIG PI declaration order, which matches
// circuit PI order by construction — and passes the filled value buffer to
// fn. The buffer is the view's cached arena: it is only valid inside fn, and
// calls serialize on the view lock so concurrent users share one allocation
// instead of each holding a live NumNodes×nWords arena.
func (v *View) WithSim(in [][]uint64, nWords int, fn func(val []uint64)) {
	v.mu.Lock()
	defer v.mu.Unlock()
	need := v.P.NumNodes() * nWords
	if cap(v.arena) < need {
		v.arena = make([]uint64, need)
	}
	val := v.arena[:need]
	v.P.SimInto(val, in, nWords)
	fn(val)
}

// EvalPOs evaluates the circuit's primary outputs on one scalar input
// assignment (circuit PI order), writing into out when it has the right
// length. It reuses the view arena under the same lock as WithSim.
func (v *View) EvalPOs(inputs []bool, out []bool) []bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	if cap(v.arena) < v.P.NumNodes() {
		v.arena = make([]uint64, v.P.NumNodes())
	}
	return v.P.EvalPOs(inputs, out, v.arena)
}
