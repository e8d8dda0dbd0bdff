package circuit

// SameSweep is sameSweep for the external tests, which sweep benchmark
// circuits and fingerprinted working copies.
var SameSweep = sameSweep

// ValidateUncached runs Validate's full check, ignoring its memo: Build
// sets the memo without running it, and the tests check it would pass.
func (c *Circuit) ValidateUncached() error { return c.validateUncached() }

// RandCircuit is randCircuit for the external tests: a small random
// circuit with dead gates, unused inputs and constants.
var RandCircuit = randCircuit

// TopoOrderUncached runs Kahn's sort, ignoring TopoOrder's memo.
func (c *Circuit) TopoOrderUncached() ([]NodeID, error) { return c.topoOrderUncached() }

// Memos reports whether the Validate memo is set for the current version,
// and the memoized topological order, or nil if none is.
func (c *Circuit) Memos() (valid bool, topo []NodeID) {
	valid = c.validValid && c.validVersion == c.version
	if c.topoValid && c.topoVersion == c.version {
		topo = c.topo
	}
	return valid, topo
}
