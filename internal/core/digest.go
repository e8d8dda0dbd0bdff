package core

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"

	"repro/internal/obs"
)

// mDigests counts real design digests: each hashes the whole netlist text.
var mDigests = obs.NewCounter("core", "digests")

// Digest identifies the analysed design: a hash of the canonical node list
// (Circuit.WriteText) plus the location/target/variant shape, as 32
// lowercase hex digits. Any change to the netlist or the analysis options
// changes it. Registries, stores and the daemon's design table are keyed
// by it, and each of them compares strings against it; this is the only
// code that hashes a netlist.
//
// It is computed on the first call and kept: an Analysis is immutable once
// built.
func (a *Analysis) Digest() string {
	a.digestOnce.Do(a.hashDesign)
	return a.digest
}

// hashDesign computes Digest, streaming the text into SHA-256.
func (a *Analysis) hashDesign() {
	mDigests.Inc()
	h := sha256.New()
	a.Circuit.WriteText(h) // a hash.Hash never returns an error
	b := make([]byte, 0, 4096)
	for i := range a.Locations {
		if len(b) > 3072 {
			h.Write(b)
			b = b[:0]
		}
		loc := &a.Locations[i]
		b = append(b, 'L')
		b = strconv.AppendInt(b, int64(loc.Primary), 10)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(loc.FFCRoot), 10)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(loc.Trigger), 10)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(len(loc.Targets)), 10)
		b = append(b, ';')
		for j := range loc.Targets {
			b = append(b, 'T')
			b = strconv.AppendInt(b, int64(loc.Targets[j].Gate), 10)
			b = append(b, ':')
			b = strconv.AppendInt(b, int64(len(loc.Targets[j].Variants)), 10)
			b = append(b, ';')
		}
	}
	h.Write(b)
	a.digest = hex.EncodeToString(h.Sum(nil)[:16])
}

// ValidDigest reports whether d has Digest's format: 32 lowercase hex
// digits. Stores check it before using a digest in a file name, so a
// request cannot name a path outside the store directory.
func ValidDigest(d string) bool {
	if len(d) != 32 {
		return false
	}
	for _, c := range d {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
