// Package attack only aliases registry.Score and registry.FullRemoval. It
// exists because perfbench/traced.go, a separate module, still imports
// them from here; it goes once perfbench imports internal/registry
// directly. The collusion attack lives in internal/redteam (Coalition) and
// buyer tracing in internal/registry.
package attack

import "repro/internal/registry"

// Score is registry.Score.
type Score = registry.Score

// FullRemoval is registry.FullRemoval.
func FullRemoval(scores []Score) bool { return registry.FullRemoval(scores) }
