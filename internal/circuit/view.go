package circuit

import "sync"

// ScanView is a packed, read-only acceleration structure over one circuit
// snapshot: per-node sink counts (fanout gates + primary-output references)
// and a PO-driver mask as flat arrays, plus an epoch-marked scratch area for
// allocation-free MFFC traversal. It exists for hot analysis loops
// (core.Analyze) where the equivalent Circuit methods — FanoutCount and
// IsPODriver scan the PO list per call, FFC builds a map per call — dominate
// the profile.
//
// A view is valid for the circuit Version() at which it was built; mutating
// the circuit invalidates it silently, so callers must rebuild after edits
// (construction is a single O(nodes+POs) pass). A view is not safe for
// concurrent use: the MFFC scratch is shared across calls.
type ScanView struct {
	c *Circuit

	sinkCount []int32 // per node: len(fanout) + number of POs driven
	poDriver  []bool  // per node: drives at least one PO

	// Epoch-marked MFFC scratch: mark[i] == epoch means "in the cone".
	mark  []uint32
	epoch uint32
}

// NewScanView builds a view of the circuit's current state. The packed
// arrays are memoized on the circuit per version, so repeated views over an
// unchanged netlist share them; like Levels, the memoized slices are
// read-only for every holder.
func NewScanView(c *Circuit) *ScanView {
	if !c.sinksValid || c.sinksVersion != c.version {
		n := len(c.Nodes)
		sinks := make([]int32, n)
		poDrv := make([]bool, n)
		for i := range c.Nodes {
			sinks[i] = int32(len(c.Nodes[i].fanout))
		}
		for _, po := range c.POs {
			sinks[po.Driver]++
			poDrv[po.Driver] = true
		}
		c.sinks, c.poDrv = sinks, poDrv
		c.sinksVersion, c.sinksValid = c.version, true
	}
	return &ScanView{
		c:         c,
		sinkCount: c.sinks,
		poDriver:  c.poDrv,
	}
}

// SinkCount is the packed equivalent of Circuit.FanoutCount.
func (v *ScanView) SinkCount(id NodeID) int32 { return v.sinkCount[id] }

// scanScratch is a pooled mark array. The epoch travels with the array: a
// reused array continues counting from where it left off, so stale marks
// from an earlier traversal can never collide with a fresh epoch.
type scanScratch struct {
	mark  []uint32
	epoch uint32
}

var scanScratchPool sync.Pool

// nextEpoch advances the scratch epoch, clearing marks on wraparound. The
// mark array is acquired lazily, from a package pool when one fits, so a
// view that never traverses a cone never pays for it.
func (v *ScanView) nextEpoch() uint32 {
	if v.mark == nil {
		n := len(v.sinkCount)
		if s, _ := scanScratchPool.Get().(*scanScratch); s != nil && cap(s.mark) >= n {
			v.mark, v.epoch = s.mark[:n], s.epoch
		} else {
			v.mark = make([]uint32, n)
		}
	}
	v.epoch++
	if v.epoch == 0 {
		clear(v.mark)
		v.epoch = 1
	}
	return v.epoch
}

// Release returns the view's traversal scratch to the package pool. Call it
// when the view is no longer needed; the view must not be used for further
// MFFC traversals afterwards.
func (v *ScanView) Release() {
	if v.mark != nil {
		scanScratchPool.Put(&scanScratch{mark: v.mark, epoch: v.epoch})
		v.mark = nil
	}
}

// AppendMFFC computes the maximum fanout-free cone of root — the same set,
// in the same root-first breadth-first discovery order, as Circuit.FFC —
// appending it to cone and returning the extended slice. It allocates
// nothing when the caller reuses the backing array across calls.
func (v *ScanView) AppendMFFC(root NodeID, cone []NodeID) []NodeID {
	c := v.c
	if c.Nodes[root].IsPI {
		return cone
	}
	e := v.nextEpoch()
	mark := v.mark
	mark[root] = e
	start := len(cone)
	cone = append(cone, root)
	// Breadth-first growth, treating cone[start:] as the queue: a candidate
	// fanin joins when it is a gate, drives no PO, and all of its fanout is
	// already inside the cone (see Circuit.FFC for why this is sound).
	for qi := start; qi < len(cone); qi++ {
		g := cone[qi]
		for _, f := range c.Nodes[g].Fanin {
			if mark[f] == e {
				continue
			}
			if c.Nodes[f].IsPI || v.poDriver[f] {
				continue
			}
			all := true
			for _, s := range c.Nodes[f].fanout {
				if mark[s] != e {
					all = false
					break
				}
			}
			if all {
				mark[f] = e
				cone = append(cone, f)
			}
		}
	}
	return cone
}
