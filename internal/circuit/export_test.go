package circuit

// SameSweep is sameSweep for the external tests, which sweep benchmark
// circuits and fingerprinted working copies.
var SameSweep = sameSweep

// ValidateUncached runs Validate's full check, ignoring its memo: Build
// sets the memo without running it, and the tests check it would pass.
func (c *Circuit) ValidateUncached() error { return c.validateUncached() }
