package cec

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/circuit"
	"repro/internal/obs"
	"repro/internal/sat"
)

// Window-certificate counters. Each window solve also counts in
// cec.universal_solves: it is a universal query (every activation free),
// the same kind of solve as a session's cone closing. A window proved by
// an earlier window's identical formula counts in cec.windows_reused
// instead, and in cec.windows_proved.
var (
	mWindowsProved = obs.NewCounter("cec", "windows_proved")
	mWindowsMerged = obs.NewCounter("cec", "windows_merged")
	mWindowsReused = obs.NewCounter("cec", "windows_reused")
)

// This file proves a whole catalogue safe region by region instead of on a
// whole-circuit miter. A window is a set of master nodes; the slots whose
// gates lie in it are its modifications. Within a window:
//
//   - a node is maybe-different when it lies in the fanout of one of the
//     window's slot gates along edges between window nodes (every slot gate
//     is maybe-different itself);
//   - an output is a maybe-different node read from outside the window: by
//     a gate outside it, by a primary output, or as a literal of a slot
//     whose gate lies outside it;
//   - the other maybe-different nodes are interior.
//
// A window's certificate is one SAT query: the master and the instrumented
// instance encoded over the window nodes, every signal the window reads from
// outside (its cut) a free variable shared by both sides, every activation
// variable free, and the OR of the output differences asserted. Unsat
// proves every output equal to the master for all cut values and every
// activation combination. Windows whose queries are the very same formula
// share one proof (Certify).
//
// Composition rule: no window may contain, read as a fanin, or read as a
// literal another window's interior node. Under that rule the certificates
// compose by induction over the union graph's topological order: a cut
// signal is never interior, so by the time a window's output is reached
// every cut it depends on already equals the master, and a free cut only
// over-approximates that (DESIGN.md §7, "Window certificates"). Windows
// that break the rule are merged until it holds.

// regionEncoder encodes master and instance copies of one region of the
// master as a recorded formula (cnf without a solver). It is shared by the
// session's cone closing, whose region is a PO's whole fanin cone (its cut
// is the PIs), and by the window certifier. Its per-node scratch is reset
// after every region.
type regionEncoder struct {
	c      *circuit.Circuit
	slots  []Slot
	slotOf []int32 // per master node: slot index, or -1
	mv, iv []int   // per master node: master / instance literal, 0 when unset
	diff   []bool  // per master node: instance side re-encoded
	used   []circuit.NodeID
	in     []int
	optIn  []int
	acts   []int
	xs     []int
	f      cnf // the region's formula
}

func newRegionEncoder(c *circuit.Circuit, slots []Slot) *regionEncoder {
	n := len(c.Nodes)
	e := &regionEncoder{
		c:      c,
		slots:  slots,
		slotOf: make([]int32, n),
		mv:     make([]int, n),
		iv:     make([]int, n),
		diff:   make([]bool, n),
	}
	for i := range e.slotOf {
		e.slotOf[i] = -1
	}
	for i, sl := range slots {
		e.slotOf[sl.Gate] = int32(i)
	}
	return e
}

// master returns the master literal of f, allocating a free cut variable
// when f lies outside the region (shared by both sides).
func (e *regionEncoder) master(f circuit.NodeID) int {
	if e.mv[f] == 0 {
		e.mv[f] = e.f.NewVar()
		e.used = append(e.used, f)
	}
	return e.mv[f]
}

// inst returns the instance literal of f: its own when f was re-encoded,
// otherwise the master's.
func (e *regionEncoder) inst(f circuit.NodeID) int {
	if e.iv[f] != 0 {
		return e.iv[f]
	}
	return e.master(f)
}

// encode records the region's formula in e.f — nodes in union topological
// order, diff the nodes whose instance side is re-encoded, and a last
// clause asserting that some output differs. Unsat proves every output
// equal to the master under all cut values and activation combinations.
// It reports false when no output can differ at all (every output shares
// the master's literal): the region is then proved without a formula.
func (e *regionEncoder) encode(nodes, diff, outputs []circuit.NodeID) (bool, error) {
	defer e.reset(diff)
	for _, id := range diff {
		e.diff[id] = true
	}
	c, f := e.c, &e.f
	f.begin()
	for _, id := range nodes {
		nd := &c.Nodes[id]
		if nd.IsPI {
			e.master(id)
			continue
		}
		e.in = e.in[:0]
		for _, fi := range nd.Fanin {
			e.in = append(e.in, e.master(fi))
		}
		v := f.NewVar()
		if err := encodeGate(f, nd.Kind, v, e.in); err != nil {
			return false, fmt.Errorf("cec: region master node %q: %w", nd.Name, err)
		}
		e.mv[id] = v
		e.used = append(e.used, id)
	}
	// Instance side: only diff nodes re-encode; everything else shares the
	// master's variables. A slot gate encodes its base function and every
	// option, and ties its output o to the selected one through fresh,
	// unconstrained activation variables: a_v → (o ↔ o_v), and
	// (∧ ¬a_v) → (o ↔ o_base).
	for _, id := range nodes {
		if !e.diff[id] {
			continue
		}
		nd := &c.Nodes[id]
		e.in = e.in[:0]
		for _, fi := range nd.Fanin {
			e.in = append(e.in, e.inst(fi))
		}
		si := e.slotOf[id]
		base := f.NewVar()
		if err := encodeGate(f, nd.Kind, base, e.in); err != nil {
			return false, fmt.Errorf("cec: region instance node %q: %w", nd.Name, err)
		}
		if si < 0 {
			e.iv[id] = base
			continue
		}
		sl := &e.slots[si]
		o := f.NewVar()
		e.iv[id] = o
		acts := e.acts[:0]
		for vi, m := range sl.Options {
			e.optIn = append(e.optIn[:0], e.in...)
			for _, l := range m.Lits {
				lv := e.inst(l.Node)
				if l.Neg {
					lv = -lv
				}
				e.optIn = append(e.optIn, lv)
			}
			ov := f.NewVar()
			if err := encodeGate(f, m.Kind, ov, e.optIn); err != nil {
				return false, fmt.Errorf("cec: region slot gate %q option %d: %w", nd.Name, vi, err)
			}
			a := f.NewVar()
			acts = append(acts, a)
			if err := f.AddClause(-a, -o, ov); err != nil {
				return false, err
			}
			if err := f.AddClause(-a, o, -ov); err != nil {
				return false, err
			}
		}
		n := len(acts)
		acts = append(acts, -o, base)
		if err := f.AddClause(acts...); err != nil {
			return false, err
		}
		acts = append(acts[:n], o, -base)
		if err := f.AddClause(acts...); err != nil {
			return false, err
		}
		e.acts = acts
	}
	xs := e.xs[:0]
	for _, o := range outputs {
		a, b := e.mv[o], e.inst(o)
		if a == b {
			continue
		}
		x := f.NewVar()
		if err := encodeXor2(f, x, a, b); err != nil {
			return false, err
		}
		xs = append(xs, x)
	}
	e.xs = xs
	if len(xs) == 0 {
		return false, nil
	}
	return true, f.AddClause(xs...)
}

// solve loads the encoded formula into s, reset to a new solver's state,
// and solves it. The solver's budget is the caller's to set.
func (e *regionEncoder) solve(ctx context.Context, s *sat.Solver) (sat.Status, error) {
	if err := e.f.load(s); err != nil {
		return sat.Unknown, err
	}
	return s.SolveCtx(ctx)
}

// prove encodes the region and solves its formula on s.
func (e *regionEncoder) prove(ctx context.Context, s *sat.Solver, nodes, diff, outputs []circuit.NodeID) (sat.Status, error) {
	open, err := e.encode(nodes, diff, outputs)
	if err != nil {
		return sat.Unknown, err
	}
	if !open {
		return sat.Unsat, nil
	}
	return e.solve(ctx, s)
}

func (e *regionEncoder) reset(diff []circuit.NodeID) {
	for _, id := range e.used {
		e.mv[id], e.iv[id] = 0, 0
	}
	for _, id := range diff {
		e.diff[id] = false
	}
	e.used = e.used[:0]
}

// CertifierStats reports a certifier's windows and work.
type CertifierStats struct {
	Windows int  // windows after merging
	Merged  int  // merges the composition rule forced
	Proved  int  // windows certified so far
	Failed  bool // a window returned Sat or ran out of budget
	Solves  int  // window solves run
	Reused  int  // windows proved by an identical formula's earlier proof
}

// certWindow is one composed window: its nodes in union topological order,
// its maybe-different nodes and its outputs.
type certWindow struct {
	nodes, diff, outputs []circuit.NodeID
	proved               bool
}

// Certifier proves a catalogue equivalence-preserving window by window:
// once every window is certified, every choice of the slots' options is
// equivalent to the master, and no whole-circuit miter is ever built. A
// window that fails sends the caller to a Session, which decides each copy
// exactly; window certificates over-approximate, so a failed window does
// not imply an inequivalent copy.
//
// A Certifier is safe for concurrent use. Like a Session, it snapshots the
// master's Version and refuses to certify a mutated master.
type Certifier struct {
	mu      sync.Mutex
	master  *circuit.Circuit
	version uint64
	opts    Options
	enc     *regionEncoder
	windows []certWindow
	stats   CertifierStats
}

// NewCertifier composes the given windows — each a set of master nodes — for
// the slots. Every slot gate must lie in some window. Windows that break the
// composition rule are merged; no SAT work happens until Certify. It fails
// on malformed slots and, like NewSession, when a modification literal
// would close a combinational cycle in the union graph.
func NewCertifier(master *circuit.Circuit, slots []Slot, windows [][]circuit.NodeID, opts Options) (*Certifier, error) {
	if err := validateSlots(master, slots); err != nil {
		return nil, err
	}
	order, g, err := unionTopo(master, slots)
	if err != nil {
		return nil, err
	}
	ct := &Certifier{
		master:  master,
		version: master.Version(),
		opts:    opts,
		enc:     newRegionEncoder(master, slots),
	}
	if err := ct.compose(order, &g, windows); err != nil {
		return nil, err
	}
	return ct, nil
}

// compose merges windows with union-find until the composition rule holds,
// then records each window's classification.
//
// It works on flat arrays. Once per call it builds node → initial windows
// in CSR form (the union graph g already lists each node's fanin and
// literal readers) and the window nodes in union topological order. Each
// pass numbers the roots in ascending order (a root is the least index in
// its set), then fills every root's node list in one walk of those nodes:
// count, prefix sum, fill into one slab, each node joining a root's list
// once. The lists come out in union topological order with no sort, and
// each window's maybe-different nodes and outputs are cut from two more
// slabs. So every pass is linear in the windows' total size plus the edges
// they touch; a pass that merges nothing ends the loop.
func (ct *Certifier) compose(order []circuit.NodeID, g *unionGraph, init [][]circuit.NodeID) error {
	c, e := ct.master, ct.enc
	n := len(c.Nodes)
	poDriver := make([]bool, n)
	for _, po := range c.POs {
		poDriver[po.Driver] = true
	}
	// winOf[winStart[x]:winStart[x+1]]: the initial windows listing node x,
	// once per listing.
	covered := make([]bool, len(e.slots))
	winStart := make([]int32, n+1)
	total := 0
	for _, w := range init {
		for _, id := range w {
			if int(id) < 0 || int(id) >= n {
				return fmt.Errorf("cec: window node %d out of range", id)
			}
			if si := e.slotOf[id]; si >= 0 {
				covered[si] = true
			}
			winStart[id+1]++
		}
		total += len(w)
	}
	for si, ok := range covered {
		if !ok {
			return fmt.Errorf("cec: slot %d (gate %q) lies in no window", si, c.Nodes[e.slots[si].Gate].Name)
		}
	}
	for x := range n {
		winStart[x+1] += winStart[x]
	}
	winOf := make([]int32, total)
	for i, w := range init {
		for _, id := range w {
			winOf[winStart[id]] = int32(i)
			winStart[id]++
		}
	}
	copy(winStart[1:], winStart[:n])
	winStart[0] = 0
	// inWin: the nodes some window lists, in union topological order. The
	// per-node scratch below is only ever set on them.
	inWin := make([]circuit.NodeID, 0, min(n, total))
	for _, id := range order {
		if winStart[id+1] > winStart[id] {
			inWin = append(inWin, id)
		}
	}

	parent := make([]int32, len(init))
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	merges := 0
	union := func(a, b int32) {
		if a, b = find(a), find(b); a != b {
			parent[max(a, b)] = min(a, b)
			merges++
		}
	}

	// Per-pass scratch. wNum numbers each initial window's root, roots maps
	// a number back to its root, ends delimits each root's list in slab and
	// last is the node a root's list took last. stamp marks the nodes of the
	// window being examined, mdStamp its maybe-different nodes, interior
	// the window owning each interior node (-1 for none).
	wNum := make([]int32, len(init))
	roots := make([]int32, 0, len(init))
	ends := make([]int32, len(init)+1)
	last := make([]circuit.NodeID, len(init))
	slab := make([]circuit.NodeID, total)
	diffSlab := make([]circuit.NodeID, 0, total)
	outSlab := make([]circuit.NodeID, 0, total)
	stamp := make([]int32, n)
	mdStamp := make([]int32, n)
	interior := make([]int32, n)
	for i := range stamp {
		stamp[i], mdStamp[i], interior[i] = -1, -1, -1
	}
	windows := make([]certWindow, 0, len(init))
	for {
		before := merges
		roots = roots[:0]
		for i := range init {
			if r := find(int32(i)); r == int32(i) {
				wNum[i] = int32(len(roots))
				roots = append(roots, r)
			} else {
				wNum[i] = wNum[r] // r < i, numbered already
			}
		}
		nw := len(roots)
		// Gather each root's nodes, deduplicated, in union topological
		// order: count, prefix sum, then fill each list from its start.
		clear(ends[:nw+1])
		for pass := 0; pass < 2; pass++ {
			for wi := range nw {
				last[wi] = circuit.None
			}
			for _, id := range inWin {
				for _, m := range winOf[winStart[id]:winStart[id+1]] {
					wi := wNum[m]
					if last[wi] == id {
						continue
					}
					last[wi] = id
					if pass == 0 {
						ends[wi+1]++
					} else {
						slab[ends[wi]] = id
						ends[wi]++
					}
				}
			}
			if pass == 0 {
				for wi := range nw {
					ends[wi+1] += ends[wi]
				}
			}
		}
		copy(ends[1:nw+1], ends[:nw])
		ends[0] = 0
		for _, id := range inWin {
			stamp[id], mdStamp[id], interior[id] = -1, -1, -1
		}
		windows = windows[:0]
		diffs, outs := diffSlab[:0], outSlab[:0]
		for wi, r := range roots {
			nodes := slab[ends[wi]:ends[wi+1]:ends[wi+1]]
			for _, id := range nodes {
				stamp[id] = int32(wi)
			}
			// Maybe-different nodes: window nodes reachable from a slot gate
			// along window edges. Walking the topological order once visits
			// every fanin before its reader.
			d0 := len(diffs)
			for _, id := range nodes {
				md := e.slotOf[id] >= 0
				for _, f := range c.Nodes[id].Fanin {
					if mdStamp[f] == int32(wi) {
						md = true
						break
					}
				}
				if !md {
					continue
				}
				mdStamp[id] = int32(wi)
				diffs = append(diffs, id)
			}
			w := certWindow{nodes: nodes, diff: diffs[d0:len(diffs):len(diffs)]}
			// An output is read from outside the window: by a primary output,
			// or by a gate or a slot literal (a union-graph successor).
			o0 := len(outs)
			for _, id := range w.diff {
				out := poDriver[id]
				for _, s := range g.succs(id) {
					out = out || stamp[s] != int32(wi)
				}
				if out {
					outs = append(outs, id)
					continue
				}
				if o := interior[id]; o >= 0 {
					union(o, r)
				}
				interior[id] = r
			}
			w.outputs = outs[o0:len(outs):len(outs)]
			windows = append(windows, w)
		}
		// Reading rule: no window may contain, read as a fanin, or read as a
		// literal another window's interior node.
		for wi, r := range roots {
			w := &windows[wi]
			for _, id := range w.nodes {
				stamp[id] = int32(wi)
			}
			touch := func(x circuit.NodeID) {
				if o := interior[x]; o >= 0 {
					union(o, r)
				}
			}
			for _, id := range w.nodes {
				touch(id)
				for _, f := range c.Nodes[id].Fanin {
					if stamp[f] != int32(wi) {
						touch(f)
					}
				}
				if si := e.slotOf[id]; si >= 0 {
					for _, m := range e.slots[si].Options {
						for _, l := range m.Lits {
							if stamp[l.Node] != int32(wi) {
								touch(l.Node)
							}
						}
					}
				}
			}
		}
		if merges == before {
			break
		}
	}
	ct.windows = windows
	ct.stats.Windows = len(windows)
	ct.stats.Merged = merges
	mWindowsMerged.Add(int64(merges))
	return nil
}

// Certify proves every window not yet certified and reports whether all of
// them are. It returns false with a nil error once a window returns Sat or
// exhausts a real MaxConflicts budget: the certifier is then finished and
// the caller must decide copies another way. A cancelled ctx returns its
// error, and an injected budget exhaustion (the sat.budget fault) returns
// an error wrapping ErrBudgetExhausted; either way the interrupted windows
// stay unresolved and the next call retries them. Once every window is
// proved, later calls return true without touching a solver.
//
// Each distinct window formula is solved once per call. Windows of one
// local shape encode to the same bytes — the same variables, the same
// clauses in the same order — and unsatisfiability is a property of the
// formula alone, so a window whose bytes match a formula already proved
// Unsat in this call is proved without a solver and spends no budget. Only
// Unsat results are kept; a Sat, budget-exhausted or interrupted formula
// is solved again by the next window that has it.
func (ct *Certifier) Certify(ctx context.Context) (bool, error) {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	if ct.master.Version() != ct.version {
		return false, fmt.Errorf("cec: certifier stale: master circuit was modified (version %d → %d)", ct.version, ct.master.Version())
	}
	if ct.stats.Failed {
		return false, nil
	}
	if ct.stats.Proved == ct.stats.Windows {
		return true, nil
	}
	sp := obs.Start("cec.certify")
	defer sp.End()
	remaining := ct.opts.MaxConflicts
	interrupted := false
	// One solver serves every window of the call, reset between them: each
	// window starts from New's state, without New's allocations.
	s := sat.New()
	proved := make(map[string]struct{})
	for i := range ct.windows {
		w := &ct.windows[i]
		if w.proved {
			continue
		}
		open, err := ct.enc.encode(w.nodes, w.diff, w.outputs)
		if err != nil {
			return false, err
		}
		st := sat.Unsat
		if _, ok := proved[string(ct.enc.f.bytes())]; ok {
			ct.stats.Reused++
			mWindowsReused.Inc()
		} else if open {
			s.Reset()
			if ct.opts.MaxConflicts > 0 {
				if remaining < 1 {
					ct.stats.Failed = true
					return false, nil
				}
				s.MaxConflicts = remaining
			}
			ct.stats.Solves++
			mUniversalSolves.Inc()
			st, err = ct.enc.solve(ctx, s)
			conf := s.Conflicts()
			remaining -= conf
			if err != nil {
				return false, err
			}
			if st == sat.Unknown && conf == 0 {
				// Stopped before any search: only the sat.budget fault does
				// that (a real budget runs out at a conflict). Retry later.
				interrupted = true
				continue
			}
			if st == sat.Unsat {
				proved[string(ct.enc.f.bytes())] = struct{}{}
			}
		}
		if st != sat.Unsat {
			ct.stats.Failed = true
			return false, nil
		}
		w.proved = true
		ct.stats.Proved++
		mWindowsProved.Inc()
	}
	if interrupted {
		return false, fmt.Errorf("%w (window certificate interrupted)", ErrBudgetExhausted)
	}
	// Certified for good: the encoder scratch and window lists are no longer
	// needed.
	ct.enc, ct.windows = nil, nil
	return true, nil
}

// Stats returns a snapshot of the certifier's counters.
func (ct *Certifier) Stats() CertifierStats {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	return ct.stats
}
