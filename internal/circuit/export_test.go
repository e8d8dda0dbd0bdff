package circuit

// SameSweep is sameSweep for the external tests, which sweep benchmark
// circuits and fingerprinted working copies.
var SameSweep = sameSweep
