// Package watermark implements the authorship half of the paper's §III-E
// protection scheme: "an IP will be protected by both watermark (to
// establish the IP's authorship) and fingerprint (to identify each IP
// buyer). When a suspicious IP is found, the watermark will be first
// verified to confirm that IP piracy has occurred."
//
// The watermark reuses the ODC modification machinery: a secret key
// deterministically selects a subset of fingerprint slots and, at each, one
// catalogued variant (keyed choices come from a SHA-256 stream). Those
// modifications are embedded into *every* shipped copy; the remaining
// locations stay free for per-buyer fingerprints. Verification recomputes
// the keyed plan from the original design and counts how many of the
// claimed modifications appear in the suspect; the strength of the evidence
// is the log₂ of the chance that an independent design carries those exact
// redundant structures.
//
// Because every copy shares the watermark, a §III-E collusion attacker —
// who can only detect sites where copies differ — can never locate it, let
// alone strip it (property-tested against internal/redteam's coalition).
package watermark

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/circuit"
	"repro/internal/core"
)

// Params configures watermark planning.
type Params struct {
	// Key is the designer's secret.
	Key []byte
	// Slots is the number of modification slots the watermark claims.
	Slots int
	// CanonicalOnly restricts the plan to each location's canonical slot
	// (deepest target, first variant) — the subset a fuse-programmed
	// master die can realise (internal/fuse offers exactly one link per
	// location). Evidence strength drops to 1 bit per slot.
	CanonicalOnly bool
}

// Mark is a planned watermark.
type Mark struct {
	// Assignment holds only the watermark's modifications.
	Assignment core.Assignment
	// Slots lists the claimed (location, target) pairs in keyed order.
	Slots []core.SlotRef
	// Bits is the evidence strength: Σ log₂(1 + variants) over claimed
	// slots — the log-probability that chance reproduces the mark.
	Bits float64
}

// keyStream yields an unbounded deterministic byte stream from the key via
// HMAC-SHA256 in counter mode.
type keyStream struct {
	key   []byte
	block [32]byte
	ctr   uint64
	pos   int
}

func newKeyStream(key []byte) *keyStream {
	s := &keyStream{key: key, pos: 32}
	return s
}

func (s *keyStream) next() byte {
	if s.pos >= 32 {
		mac := hmac.New(sha256.New, s.key)
		var ctr [8]byte
		binary.BigEndian.PutUint64(ctr[:], s.ctr)
		mac.Write(ctr[:])
		copy(s.block[:], mac.Sum(nil))
		s.ctr++
		s.pos = 0
	}
	b := s.block[s.pos]
	s.pos++
	return b
}

// intn returns a uniform value in [0, n) by rejection sampling.
func (s *keyStream) intn(n int) int {
	if n <= 1 {
		return 0
	}
	max := 65536 - 65536%n
	for {
		v := int(s.next())<<8 | int(s.next())
		if v < max {
			return v % n
		}
	}
}

// Plan derives the keyed watermark for an analysed design. The same key
// and design always produce the same mark; p.Slots may not exceed the
// number of modification slots.
func Plan(a *core.Analysis, p Params) (*Mark, error) {
	if len(p.Key) == 0 {
		return nil, fmt.Errorf("watermark: empty key")
	}
	// Enumerate the eligible slots deterministically.
	var all []core.SlotRef
	for i := range a.Locations {
		if p.CanonicalOnly {
			all = append(all, core.SlotRef{Loc: i, Target: 0})
			continue
		}
		for j := range a.Locations[i].Targets {
			all = append(all, core.SlotRef{Loc: i, Target: j})
		}
	}
	total := len(all)
	if p.Slots <= 0 || p.Slots > total {
		return nil, fmt.Errorf("watermark: %d slots requested, %d available", p.Slots, total)
	}
	// Keyed partial Fisher–Yates selects p.Slots slots.
	s := newKeyStream(p.Key)
	for i := 0; i < p.Slots; i++ {
		j := i + s.intn(total-i)
		all[i], all[j] = all[j], all[i]
	}
	chosen := all[:p.Slots]

	m := &Mark{Assignment: core.EmptyAssignment(a)}
	for _, slot := range chosen {
		variants := a.Locations[slot.Loc].Targets[slot.Target].Variants
		v := 0
		if !p.CanonicalOnly {
			v = s.intn(len(variants))
		}
		m.Assignment[slot.Loc][slot.Target] = v
		m.Slots = append(m.Slots, slot)
		if p.CanonicalOnly {
			m.Bits += 1
		} else {
			m.Bits += math.Log2(float64(1 + len(variants)))
		}
	}
	return m, nil
}

// Merge overlays a buyer fingerprint onto the watermark. The fingerprint
// may not claim any watermark slot.
func (m *Mark) Merge(fp core.Assignment) (core.Assignment, error) {
	out := m.Assignment.Clone()
	for i := range fp {
		for j, v := range fp[i] {
			if v < 0 {
				continue
			}
			if out[i][j] >= 0 {
				return nil, fmt.Errorf("watermark: fingerprint collides with watermark slot (%d,%d)", i, j)
			}
			out[i][j] = v
		}
	}
	return out, nil
}

// FreeLocations returns the location indices that carry no watermark slot —
// the space available for per-buyer fingerprint bits.
func (m *Mark) FreeLocations(a *core.Analysis) []int {
	used := make(map[int]bool, len(m.Slots))
	for _, s := range m.Slots {
		used[s.Loc] = true
	}
	var free []int
	for i := range a.Locations {
		if !used[i] {
			free = append(free, i)
		}
	}
	return free
}

// Evidence is the result of a verification.
type Evidence struct {
	// Matched of Total claimed slots carry exactly the keyed variant.
	Matched, Total int
	// MatchedBits is the evidence strength of the matched slots (log₂ of
	// the chance an unrelated design reproduces them).
	MatchedBits float64
	// Equivalent attests Requirement 1 for the recovered assignment: a copy
	// carrying exactly the extracted catalogue modifications (tampered
	// slots treated as unmodified) is functionally equivalent to the
	// master. Proved by the analysis-wide verifier (SharedVerifier).
	Equivalent bool
}

// Fraction is Matched/Total.
func (e Evidence) Fraction() float64 {
	if e.Total == 0 {
		return 0
	}
	return float64(e.Matched) / float64(e.Total)
}

// Verify recomputes the keyed plan from the original design's analysis and
// checks the suspect instance for the claimed modifications. Tampered or
// differing slots count as mismatches; the caller decides the accusation
// threshold (a full match has MatchedBits ≈ Plan().Bits, overwhelming for
// double-digit slot counts).
func Verify(a *core.Analysis, p Params, suspect *circuit.Circuit) (*Evidence, error) {
	m, err := Plan(a, p)
	if err != nil {
		return nil, err
	}
	got, _, err := core.ExtractTolerant(a, suspect)
	if err != nil {
		return nil, err
	}
	// Functional-equivalence attestation: sanitize tampered slots to
	// "unmodified" (the verifier only expresses catalogued modifications)
	// and prove the recovered assignment through the analysis's shared
	// verifier: window certificates first, the session as the fallback.
	clean := got.Clone()
	for i := range clean {
		for j, v := range clean[i] {
			if v == core.Tampered {
				clean[i][j] = -1
			}
		}
	}
	e := &Evidence{Total: len(m.Slots)}
	if verdict, verr := a.SharedVerifier().Verify(clean); verr == nil {
		e.Equivalent = verdict.Equivalent
	}
	for _, slot := range m.Slots {
		want := m.Assignment[slot.Loc][slot.Target]
		if got[slot.Loc][slot.Target] == want {
			e.Matched++
			if p.CanonicalOnly {
				e.MatchedBits++
			} else {
				variants := a.Locations[slot.Loc].Targets[slot.Target].Variants
				e.MatchedBits += math.Log2(float64(1 + len(variants)))
			}
		}
	}
	return e, nil
}
