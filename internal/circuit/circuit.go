// Package circuit provides the gate-level netlist representation used by the
// whole repository: a directed acyclic graph of primary inputs and library
// gates, with named primary outputs referencing driver nodes.
//
// Nodes are identified by dense NodeIDs (indices into Circuit.Nodes), so all
// per-node analysis results (levels, arrival times, probabilities, ODC masks,
// simulation words) are plain slices indexed by NodeID. Node IDs are stable:
// modification only appends nodes or edits fanin lists in place, it never
// renumbers. This is what lets the fingerprint extractor align an original
// and a fingerprinted copy structurally.
package circuit

import (
	"fmt"
	"io"
	"maps"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/logic"
)

// NodeID identifies a node (primary input or gate) within one Circuit.
type NodeID int32

// None is the invalid node ID, used for "no node".
const None NodeID = -1

// Node is a primary input or a logic gate. A node drives exactly one signal,
// identified with the node itself; "the signal X" and "the node driving X"
// are used interchangeably throughout the repository.
type Node struct {
	Name  string     // unique within the circuit; never empty after Validate
	IsPI  bool       // primary input (Kind and Fanin are ignored if set)
	Kind  logic.Kind // gate kind; meaningful only when !IsPI
	Fanin []NodeID   // driver of each input pin, in pin order

	fanout []NodeID // consumers (gates reading this node); maintained by Circuit
}

// Fanout returns the IDs of the gates that read this node's output signal.
// Primary outputs are not listed here; use Circuit.POsOf. The returned slice
// is owned by the circuit and must not be mutated.
func (n *Node) Fanout() []NodeID { return n.fanout }

// PO names one primary output of the circuit and the node driving it.
type PO struct {
	Name   string
	Driver NodeID
}

// Circuit is a combinational gate-level netlist.
//
// The zero value is an empty, usable circuit; NewCircuit additionally sets
// the name.
type Circuit struct {
	Name  string
	Nodes []Node
	PIs   []NodeID
	POs   []PO

	byName map[string]NodeID

	// version counts netlist mutations; topo caches the last computed
	// topological order, valid while topoVersion == version. Every mutator
	// calls touch(), so analysis passes can memoize per-version results and
	// TopoOrder is O(1) on an unchanged netlist.
	version     uint64
	topo        []NodeID
	topoVersion uint64
	topoValid   bool

	// validVersion memoizes the last Version() at which Validate succeeded;
	// a matching version makes Validate O(1). Failures are never cached.
	validVersion uint64
	validValid   bool

	// levels memoizes Levels() per version, like topo above. The cached
	// slice is shared with callers and must be treated as read-only.
	levels        []int
	levelsVersion uint64
	levelsValid   bool

	// sinks/poDrv memoize the packed sink-count and PO-driver arrays that
	// back ScanView, per version like topo above; shared read-only.
	sinks        []int32
	poDrv        []bool
	sinksVersion uint64
	sinksValid   bool
}

// Version returns a counter that increases on every netlist mutation
// (node/PO insertion, fanin rewiring, kind change). Analysis engines use it
// to invalidate cached per-circuit state (topological orders, level
// schedules, simulation arenas).
func (c *Circuit) Version() uint64 { return c.version }

// touch records a netlist mutation, invalidating memoized derived state.
func (c *Circuit) touch() { c.version++ }

// New returns an empty circuit with the given name.
func New(name string) *Circuit {
	return &Circuit{Name: name, byName: make(map[string]NodeID)}
}

// NumNodes returns the total number of nodes (primary inputs + gates).
func (c *Circuit) NumNodes() int { return len(c.Nodes) }

// NumGates returns the number of gate nodes, excluding primary inputs and
// constants. This matches the "gate count" column of the paper's Table II.
func (c *Circuit) NumGates() int {
	n := 0
	for i := range c.Nodes {
		nd := &c.Nodes[i]
		if !nd.IsPI && nd.Kind != logic.Const0 && nd.Kind != logic.Const1 {
			n++
		}
	}
	return n
}

// Lookup returns the node with the given name, or (None, false).
func (c *Circuit) Lookup(name string) (NodeID, bool) {
	id, ok := c.byName[name]
	return id, ok
}

// Netlist is read-only access to a netlist's signals by name: what a
// structural comparison of two netlists reads, with node IDs that mean
// something only to the Netlist that handed them out. *Circuit provides
// it, and so does *Staged, which builds no nodes.
type Netlist interface {
	// Lookup returns the node driving the signal name, or (None, false).
	Lookup(name string) (NodeID, bool)
	// NodeName returns the name of the signal node id drives.
	NodeName(id NodeID) string
	// Gate returns node id's kind and fanin (shared, read-only), or ok
	// false for a primary input.
	Gate(id NodeID) (kind logic.Kind, fanin []NodeID, ok bool)
}

// NodeName returns node id's name.
func (c *Circuit) NodeName(id NodeID) string { return c.Nodes[id].Name }

// Gate returns node id's kind and fanin (owned by the circuit, read-only),
// or ok false for a primary input.
func (c *Circuit) Gate(id NodeID) (kind logic.Kind, fanin []NodeID, ok bool) {
	nd := &c.Nodes[id]
	if nd.IsPI {
		return 0, nil, false
	}
	return nd.Kind, nd.Fanin, true
}

// MustLookup is Lookup but panics on a missing name; intended for tests and
// generators where the name is known to exist.
func (c *Circuit) MustLookup(name string) NodeID {
	id, ok := c.Lookup(name)
	if !ok {
		panic(fmt.Sprintf("circuit %s: no node named %q", c.Name, name))
	}
	return id
}

// AddPI appends a primary input with the given name and returns its ID.
func (c *Circuit) AddPI(name string) (NodeID, error) {
	if err := c.checkName(name); err != nil {
		return None, err
	}
	c.touch()
	id := NodeID(len(c.Nodes))
	c.Nodes = append(c.Nodes, Node{Name: name, IsPI: true})
	c.PIs = append(c.PIs, id)
	c.index(name, id)
	return id, nil
}

// AddGate appends a gate node of the given kind with the given fanin and
// returns its ID. Fanin arity is checked against the kind; fanout lists of
// the drivers are updated.
func (c *Circuit) AddGate(name string, kind logic.Kind, fanin ...NodeID) (NodeID, error) {
	if err := c.checkName(name); err != nil {
		return None, err
	}
	if !kind.Valid() {
		return None, fmt.Errorf("circuit %s: gate %q: invalid kind %d", c.Name, name, uint8(kind))
	}
	if err := checkArity(kind, len(fanin)); err != nil {
		return None, fmt.Errorf("circuit %s: gate %q: %w", c.Name, name, err)
	}
	for _, f := range fanin {
		if f < 0 || int(f) >= len(c.Nodes) {
			return None, fmt.Errorf("circuit %s: gate %q: fanin %d out of range", c.Name, name, f)
		}
	}
	c.touch()
	id := NodeID(len(c.Nodes))
	c.Nodes = append(c.Nodes, Node{Name: name, Kind: kind, Fanin: append([]NodeID(nil), fanin...)})
	for _, f := range fanin {
		c.Nodes[f].fanout = append(c.Nodes[f].fanout, id)
	}
	c.index(name, id)
	return id, nil
}

// AddPO declares a primary output with the given name, driven by the given
// node. Multiple POs may share a driver; PO names must be unique among POs.
func (c *Circuit) AddPO(name string, driver NodeID) error {
	if driver < 0 || int(driver) >= len(c.Nodes) {
		return fmt.Errorf("circuit %s: PO %q: driver %d out of range", c.Name, name, driver)
	}
	for _, po := range c.POs {
		if po.Name == name {
			return fmt.Errorf("circuit %s: duplicate PO name %q", c.Name, name)
		}
	}
	c.touch()
	c.POs = append(c.POs, PO{Name: name, Driver: driver})
	return nil
}

// AddPOs declares the given primary outputs in order, with the checks and
// the resulting version of one AddPO call per output, but in time linear in
// the circuit's outputs plus the new ones. On error no output is added.
func (c *Circuit) AddPOs(pos []PO) error {
	names := make(map[string]bool, len(c.POs)+len(pos))
	for _, po := range c.POs {
		names[po.Name] = true
	}
	for _, po := range pos {
		if po.Driver < 0 || int(po.Driver) >= len(c.Nodes) {
			return fmt.Errorf("circuit %s: PO %q: driver %d out of range", c.Name, po.Name, po.Driver)
		}
		if names[po.Name] {
			return fmt.Errorf("circuit %s: duplicate PO name %q", c.Name, po.Name)
		}
		names[po.Name] = true
	}
	c.version += uint64(len(pos)) // one touch per output, as AddPO
	c.POs = append(c.POs, pos...)
	return nil
}

// POsOf returns the indices into c.POs that are driven by node id.
func (c *Circuit) POsOf(id NodeID) []int {
	var out []int
	for i, po := range c.POs {
		if po.Driver == id {
			out = append(out, i)
		}
	}
	return out
}

// IsPODriver reports whether node id drives at least one primary output.
func (c *Circuit) IsPODriver(id NodeID) bool {
	for _, po := range c.POs {
		if po.Driver == id {
			return true
		}
	}
	return false
}

// FanoutCount returns the number of sinks of node id's signal: reading gates
// plus primary outputs. This is the quantity Definition 1 criterion 2 cares
// about ("this signal only goes into the primary gate" ⇔ FanoutCount == 1
// and the single sink is the primary gate).
func (c *Circuit) FanoutCount(id NodeID) int {
	n := len(c.Nodes[id].fanout)
	for _, po := range c.POs {
		if po.Driver == id {
			n++
		}
	}
	return n
}

// AddFanin appends an extra input pin reading signal src to gate g, updating
// fanout bookkeeping. It fails on PIs, fixed-fanin kinds and duplicate pins.
// This is the primitive used to apply a fingerprint literal.
func (c *Circuit) AddFanin(g, src NodeID) error {
	if g < 0 || int(g) >= len(c.Nodes) || src < 0 || int(src) >= len(c.Nodes) {
		return fmt.Errorf("circuit %s: AddFanin(%d, %d): id out of range", c.Name, g, src)
	}
	nd := &c.Nodes[g]
	if nd.IsPI {
		return fmt.Errorf("circuit %s: AddFanin: %q is a primary input", c.Name, nd.Name)
	}
	if nd.Kind.FixedFanin() {
		return fmt.Errorf("circuit %s: AddFanin: %q has fixed-fanin kind %v", c.Name, nd.Name, nd.Kind)
	}
	for _, f := range nd.Fanin {
		if f == src {
			return fmt.Errorf("circuit %s: AddFanin: %q already reads %q", c.Name, nd.Name, c.Nodes[src].Name)
		}
	}
	c.touch()
	nd.Fanin = append(nd.Fanin, src)
	c.Nodes[src].fanout = append(c.Nodes[src].fanout, g)
	return nil
}

// SetKind changes the kind of gate g, checking arity against the current
// fanin. Used when converting a single-input gate (Inv → Nand/Nor) during
// fingerprint embedding: call SetKind after AddFanin has grown the pin list
// — or, since Inv has fixed fanin, use ConvertGate which does both.
func (c *Circuit) SetKind(g NodeID, kind logic.Kind) error {
	if g < 0 || int(g) >= len(c.Nodes) {
		return fmt.Errorf("circuit %s: SetKind(%d): id out of range", c.Name, g)
	}
	nd := &c.Nodes[g]
	if nd.IsPI {
		return fmt.Errorf("circuit %s: SetKind: %q is a primary input", c.Name, nd.Name)
	}
	if !kind.Valid() {
		return fmt.Errorf("circuit %s: SetKind: invalid kind %d", c.Name, uint8(kind))
	}
	if err := checkArity(kind, len(nd.Fanin)); err != nil {
		return fmt.Errorf("circuit %s: SetKind %q: %w", c.Name, nd.Name, err)
	}
	c.touch()
	nd.Kind = kind
	return nil
}

// ConvertGate atomically changes gate g to a new kind and appends one extra
// fanin pin reading src. It exists because Buf/Inv have fixed fanin, so the
// conversion (e.g. INV(a) → NAND(a, x)) cannot be expressed as
// AddFanin+SetKind in either order.
func (c *Circuit) ConvertGate(g NodeID, kind logic.Kind, src NodeID) error {
	if g < 0 || int(g) >= len(c.Nodes) || src < 0 || int(src) >= len(c.Nodes) {
		return fmt.Errorf("circuit %s: ConvertGate: id out of range", c.Name)
	}
	nd := &c.Nodes[g]
	if nd.IsPI {
		return fmt.Errorf("circuit %s: ConvertGate: %q is a primary input", c.Name, nd.Name)
	}
	if !kind.Valid() {
		return fmt.Errorf("circuit %s: ConvertGate: invalid kind %d", c.Name, uint8(kind))
	}
	for _, f := range nd.Fanin {
		if f == src {
			return fmt.Errorf("circuit %s: ConvertGate: %q already reads %q", c.Name, nd.Name, c.Nodes[src].Name)
		}
	}
	if err := checkArity(kind, len(nd.Fanin)+1); err != nil {
		return fmt.Errorf("circuit %s: ConvertGate %q: %w", c.Name, nd.Name, err)
	}
	c.touch()
	nd.Kind = kind
	nd.Fanin = append(nd.Fanin, src)
	c.Nodes[src].fanout = append(c.Nodes[src].fanout, g)
	return nil
}

// RewireGate replaces gate g's kind and entire fanin list in one step,
// with the usual arity and duplicate checks, updating fanout bookkeeping.
// Used when transplanting a gate configuration from another instance of the
// same layout (collusion-attack modelling).
func (c *Circuit) RewireGate(g NodeID, kind logic.Kind, fanin []NodeID) error {
	if g < 0 || int(g) >= len(c.Nodes) {
		return fmt.Errorf("circuit %s: RewireGate(%d): id out of range", c.Name, g)
	}
	nd := &c.Nodes[g]
	if nd.IsPI {
		return fmt.Errorf("circuit %s: RewireGate: %q is a primary input", c.Name, nd.Name)
	}
	if !kind.Valid() {
		return fmt.Errorf("circuit %s: RewireGate: invalid kind %d", c.Name, uint8(kind))
	}
	if err := checkArity(kind, len(fanin)); err != nil {
		return fmt.Errorf("circuit %s: RewireGate %q: %w", c.Name, nd.Name, err)
	}
	seen := make(map[NodeID]bool, len(fanin))
	for _, f := range fanin {
		if f < 0 || int(f) >= len(c.Nodes) {
			return fmt.Errorf("circuit %s: RewireGate %q: fanin %d out of range", c.Name, nd.Name, f)
		}
		if seen[f] {
			return fmt.Errorf("circuit %s: RewireGate %q: duplicate fanin %q", c.Name, nd.Name, c.Nodes[f].Name)
		}
		seen[f] = true
	}
	c.touch()
	for _, f := range nd.Fanin {
		c.removeFanoutEdge(f, g)
	}
	nd.Kind = kind
	nd.Fanin = append([]NodeID(nil), fanin...)
	for _, f := range fanin {
		c.Nodes[f].fanout = append(c.Nodes[f].fanout, g)
	}
	return nil
}

// ReplaceFanin rewires pin `pin` of gate g from its current source to
// newSrc, keeping arity (and thus validity) intact. Used to park the helper
// inverters of disabled fingerprint modifications on a constant so they stop
// loading the trigger signal.
func (c *Circuit) ReplaceFanin(g NodeID, pin int, newSrc NodeID) error {
	if g < 0 || int(g) >= len(c.Nodes) || newSrc < 0 || int(newSrc) >= len(c.Nodes) {
		return fmt.Errorf("circuit %s: ReplaceFanin: id out of range", c.Name)
	}
	nd := &c.Nodes[g]
	if nd.IsPI {
		return fmt.Errorf("circuit %s: ReplaceFanin: %q is a primary input", c.Name, nd.Name)
	}
	if pin < 0 || pin >= len(nd.Fanin) {
		return fmt.Errorf("circuit %s: ReplaceFanin: %q has no pin %d", c.Name, nd.Name, pin)
	}
	if nd.Fanin[pin] == newSrc {
		return nil
	}
	for _, f := range nd.Fanin {
		if f == newSrc {
			return fmt.Errorf("circuit %s: ReplaceFanin: %q already reads %q", c.Name, nd.Name, c.Nodes[newSrc].Name)
		}
	}
	c.touch()
	old := nd.Fanin[pin]
	nd.Fanin[pin] = newSrc
	c.removeFanoutEdge(old, g)
	c.Nodes[newSrc].fanout = append(c.Nodes[newSrc].fanout, g)
	return nil
}

// UnconvertGate is the inverse of ConvertGate: it removes the pin of gate g
// reading src and restores the given (typically fixed-fanin) kind, checking
// the resulting arity. ConvertGate/UnconvertGate bracket the single-input
// fingerprint conversion (INV(a) ↔ NAND(a, x)).
func (c *Circuit) UnconvertGate(g NodeID, kind logic.Kind, src NodeID) error {
	if g < 0 || int(g) >= len(c.Nodes) {
		return fmt.Errorf("circuit %s: UnconvertGate: id out of range", c.Name)
	}
	nd := &c.Nodes[g]
	if nd.IsPI {
		return fmt.Errorf("circuit %s: UnconvertGate: %q is a primary input", c.Name, nd.Name)
	}
	if !kind.Valid() {
		return fmt.Errorf("circuit %s: UnconvertGate: invalid kind %d", c.Name, uint8(kind))
	}
	idx := -1
	for i, f := range nd.Fanin {
		if f == src {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("circuit %s: UnconvertGate: %q does not read %q", c.Name, nd.Name, c.Nodes[src].Name)
	}
	if err := checkArity(kind, len(nd.Fanin)-1); err != nil {
		return fmt.Errorf("circuit %s: UnconvertGate %q: %w", c.Name, nd.Name, err)
	}
	c.touch()
	nd.Fanin = append(nd.Fanin[:idx], nd.Fanin[idx+1:]...)
	nd.Kind = kind
	c.removeFanoutEdge(src, g)
	return nil
}

// RemoveFanin removes the pin of gate g reading signal src (the first such
// pin if duplicated, though duplicates are rejected on insertion). Used when
// un-applying a fingerprint modification in the reactive constraint loop.
func (c *Circuit) RemoveFanin(g, src NodeID) error {
	if g < 0 || int(g) >= len(c.Nodes) {
		return fmt.Errorf("circuit %s: RemoveFanin(%d): id out of range", c.Name, g)
	}
	nd := &c.Nodes[g]
	idx := -1
	for i, f := range nd.Fanin {
		if f == src {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("circuit %s: RemoveFanin: %q does not read %q", c.Name, nd.Name, c.Nodes[src].Name)
	}
	if err := checkArity(nd.Kind, len(nd.Fanin)-1); err != nil {
		return fmt.Errorf("circuit %s: RemoveFanin %q: %w", c.Name, nd.Name, err)
	}
	c.touch()
	nd.Fanin = append(nd.Fanin[:idx], nd.Fanin[idx+1:]...)
	c.removeFanoutEdge(src, g)
	return nil
}

func (c *Circuit) removeFanoutEdge(src, sink NodeID) {
	fo := c.Nodes[src].fanout
	for i, s := range fo {
		if s == sink {
			c.Nodes[src].fanout = append(fo[:i], fo[i+1:]...)
			return
		}
	}
}

// Clone returns a deep copy of the circuit with identical node IDs.
func (c *Circuit) Clone() *Circuit {
	out := &Circuit{
		Name:   c.Name,
		Nodes:  make([]Node, len(c.Nodes)),
		PIs:    append([]NodeID(nil), c.PIs...),
		POs:    append([]PO(nil), c.POs...),
		byName: maps.Clone(c.byName),
		// The clone has identical node IDs and edges, so the memoized
		// topological order carries over (the cached slice is never mutated
		// in place, only replaced on recompute, so sharing is safe).
		version:     c.version,
		topo:        c.topo,
		topoVersion: c.topoVersion,
		topoValid:   c.topoValid,

		validVersion: c.validVersion,
		validValid:   c.validValid,

		levels:        c.levels,
		levelsVersion: c.levelsVersion,
		levelsValid:   c.levelsValid,

		sinks:        c.sinks,
		poDrv:        c.poDrv,
		sinksVersion: c.sinksVersion,
		sinksValid:   c.sinksValid,
	}
	// Fanins share one slab and fanouts another, each node's slice capped
	// at its length, as in Build.
	nFanin, nFanout := 0, 0
	for i := range c.Nodes {
		nFanin += len(c.Nodes[i].Fanin)
		nFanout += len(c.Nodes[i].fanout)
	}
	fanin, fanout := make([]NodeID, nFanin), make([]NodeID, nFanout)
	for i := range c.Nodes {
		n := c.Nodes[i]
		n.Fanin, fanin = cloneInto(fanin, n.Fanin)
		n.fanout, fanout = cloneInto(fanout, n.fanout)
		out.Nodes[i] = n
	}
	return out
}

// cloneInto copies s to the front of slab and returns the copy, capped at
// its length (nil when s is empty), and the rest of slab.
func cloneInto(slab, s []NodeID) ([]NodeID, []NodeID) {
	k := len(s)
	if k == 0 {
		return nil, slab
	}
	copy(slab, s)
	return slab[:k:k], slab[k:]
}

// FreshName returns a node name starting with prefix that is not yet used in
// the circuit, by appending an increasing counter.
func (c *Circuit) FreshName(prefix string) string {
	if _, used := c.byName[prefix]; !used {
		return prefix
	}
	for i := 0; ; i++ {
		name := fmt.Sprintf("%s_%d", prefix, i)
		if _, used := c.byName[name]; !used {
			return name
		}
	}
}

func (c *Circuit) checkName(name string) error {
	if name == "" {
		return fmt.Errorf("circuit %s: empty node name", c.Name)
	}
	if c.byName == nil {
		c.byName = make(map[string]NodeID)
	}
	if _, dup := c.byName[name]; dup {
		return fmt.Errorf("circuit %s: duplicate node name %q", c.Name, name)
	}
	return nil
}

func (c *Circuit) index(name string, id NodeID) {
	if c.byName == nil {
		c.byName = make(map[string]NodeID)
	}
	c.byName[name] = id
}

func checkArity(kind logic.Kind, n int) error {
	min := kind.MinFanin()
	if n < min {
		return fmt.Errorf("kind %v needs ≥%d inputs, got %d", kind, min, n)
	}
	if kind.FixedFanin() && n != min {
		return fmt.Errorf("kind %v takes exactly %d inputs, got %d", kind, min, n)
	}
	return nil
}

// Stats summarises a circuit for reporting.
type Stats struct {
	PIs, POs  int
	Gates     int // excluding constants
	Constants int
	MaxFanin  int
	Depth     int // logic levels on the longest PI→PO path
	ByKind    map[logic.Kind]int
}

// Stats computes summary statistics. Depth is in gate levels (PIs at 0).
func (c *Circuit) Stats() Stats {
	s := Stats{PIs: len(c.PIs), POs: len(c.POs), ByKind: make(map[logic.Kind]int)}
	for i := range c.Nodes {
		nd := &c.Nodes[i]
		if nd.IsPI {
			continue
		}
		s.ByKind[nd.Kind]++
		if nd.Kind == logic.Const0 || nd.Kind == logic.Const1 {
			s.Constants++
			continue
		}
		s.Gates++
		if len(nd.Fanin) > s.MaxFanin {
			s.MaxFanin = len(nd.Fanin)
		}
	}
	levels := c.Levels()
	for _, po := range c.POs {
		if l := levels[po.Driver]; l > s.Depth {
			s.Depth = l
		}
	}
	return s
}

// String renders one line per node, for debugging and golden tests:
// a header, then each node in ID order, then the primary outputs by name.
// core.Analysis.Digest hashes this text (WriteText streams the same
// bytes), so its format is part of every stored design digest.
func (c *Circuit) String() string {
	b, _ := c.appendText(nil, nil)
	return string(b)
}

// textChunk is how many bytes of text WriteText buffers between writes.
const textChunk = 4096

// WriteText writes String's text to w in chunks of about textChunk bytes,
// without building the whole text.
func (c *Circuit) WriteText(w io.Writer) error {
	b, err := c.appendText(make([]byte, 0, 2*textChunk), func(b []byte) ([]byte, error) {
		if len(b) < textChunk {
			return b, nil
		}
		_, err := w.Write(b)
		return b[:0], err
	})
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// appendText appends String's text to b. When spill is set, each line is
// followed by a call to it, which may write the buffer out and return it
// emptied.
func (c *Circuit) appendText(b []byte, spill func([]byte) ([]byte, error)) ([]byte, error) {
	var err error
	line := func() {
		if spill != nil && err == nil {
			b, err = spill(b)
		}
	}
	b = append(b, "circuit "...)
	b = append(b, c.Name...)
	b = append(b, " ("...)
	b = strconv.AppendInt(b, int64(len(c.PIs)), 10)
	b = append(b, " PI, "...)
	b = strconv.AppendInt(b, int64(len(c.POs)), 10)
	b = append(b, " PO, "...)
	b = strconv.AppendInt(b, int64(c.NumGates()), 10)
	b = append(b, " gates)\n"...)
	line()
	var num [20]byte
	for i := range c.Nodes {
		nd := &c.Nodes[i]
		b = append(b, "  "...)
		b = appendRight(b, strconv.AppendInt(num[:0], int64(i), 10), 4)
		b = append(b, ' ')
		b = appendLeft(b, nd.Name, 16)
		if nd.IsPI {
			b = append(b, " PI\n"...)
			line()
			continue
		}
		b = append(b, ' ')
		b = appendLeft(b, nd.Kind.String(), 6)
		b = append(b, '(')
		for j, f := range nd.Fanin {
			if j > 0 {
				b = append(b, ", "...)
			}
			b = append(b, c.Nodes[f].Name...)
		}
		b = append(b, ")\n"...)
		line()
	}
	pos := slices.Clone(c.POs)
	slices.SortFunc(pos, func(x, y PO) int { return strings.Compare(x.Name, y.Name) })
	for _, po := range pos {
		b = append(b, "  PO "...)
		b = appendLeft(b, po.Name, 16)
		b = append(b, " <- "...)
		b = append(b, c.Nodes[po.Driver].Name...)
		b = append(b, '\n')
		line()
	}
	return b, err
}

// appendLeft appends s padded with spaces to width runes, as fmt's %-Ns.
func appendLeft(b []byte, s string, width int) []byte {
	b = append(b, s...)
	for n := utf8.RuneCountInString(s); n < width; n++ {
		b = append(b, ' ')
	}
	return b
}

// appendRight appends s right-aligned in width bytes, as fmt's %Nd.
func appendRight(b, s []byte, width int) []byte {
	for n := len(s); n < width; n++ {
		b = append(b, ' ')
	}
	return append(b, s...)
}
