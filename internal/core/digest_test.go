package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/cell"
	"repro/internal/circuit"
)

// sprintfDigest is the fmt-based Digest, kept as the oracle: every stored
// registry and design is keyed by these bytes.
// (circuit's tests pin Circuit.String to its own fmt oracle.)
func sprintfDigest(a *Analysis) string {
	h := sha256.New()
	io.WriteString(h, a.Circuit.String())
	for i := range a.Locations {
		loc := &a.Locations[i]
		fmt.Fprintf(h, "L%d:%d:%d:%d;", loc.Primary, loc.FFCRoot, loc.Trigger, len(loc.Targets))
		for j := range loc.Targets {
			fmt.Fprintf(h, "T%d:%d;", loc.Targets[j].Gate, len(loc.Targets[j].Variants))
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// renamed rebuilds c node for node under new names.
func renamed(t *testing.T, c *circuit.Circuit, name func(string) string) *circuit.Circuit {
	t.Helper()
	r := circuit.New(name(c.Name))
	for i := range c.Nodes {
		nd := &c.Nodes[i]
		var err error
		if nd.IsPI {
			_, err = r.AddPI(name(nd.Name))
		} else {
			_, err = r.AddGate(name(nd.Name), nd.Kind, nd.Fanin...)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, po := range c.POs {
		if err := r.AddPO(name(po.Name), po.Driver); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// TestDesignDigestMatchesSprintf: the streamed digest equals the fmt one on
// every suite circuit and extra, and on c432 renamed with multibyte names
// and names past the 16-rune padding.
func TestDesignDigestMatchesSprintf(t *testing.T) {
	for _, spec := range append(bench.Suite(), bench.Extras()...) {
		a := analyzeBench(t, spec.Name)
		if got, want := a.Digest(), sprintfDigest(a); got != want {
			t.Errorf("%s: digest %s, fmt oracle %s", spec.Name, got, want)
		}
	}
	spec, err := bench.ByName("c432")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []func(string) string{
		func(s string) string { return "ñ" + s },
		func(s string) string { return "日本語" + s + "日本語の長いゲート名" },
		func(s string) string { return strings.Repeat("é", 15) + s },
	} {
		a, err := Analyze(renamed(t, spec.Build(), name), DefaultOptions(cell.Default()))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := a.Digest(), sprintfDigest(a); got != want {
			t.Errorf("%s: digest %s, fmt oracle %s", a.Circuit.Name, got, want)
		}
	}
}

// TestDigestSensitivity: a different analysis option set changes the
// digest; a second analysis of the same design has the same one.
func TestDigestSensitivity(t *testing.T) {
	a := analyzeBench(t, "c432")
	d1 := a.Digest()
	if !ValidDigest(d1) {
		t.Fatalf("digest %q has not the digest format", d1)
	}
	spec, err := bench.ByName("c432")
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(cell.Default())
	opts.MaxTargetsPerLocation = 1
	a2, err := Analyze(spec.Build(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalTargets() != a2.TotalTargets() && a2.Digest() == d1 {
		t.Error("digest ignored analysis shape change")
	}
	if analyzeBench(t, "c432").Digest() != d1 {
		t.Error("digest not deterministic")
	}
}

// TestDigestHashesOnce: concurrent and repeated Digest calls on one
// analysis hash its netlist once, and core.digests counts that hash.
func TestDigestHashesOnce(t *testing.T) {
	a := analyzeBench(t, "c432")
	base := mDigests.Value()
	var wg sync.WaitGroup
	got := make([]string, 8)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = a.Digest()
		}()
	}
	wg.Wait()
	for _, d := range got {
		if d != got[0] {
			t.Fatalf("concurrent digests differ: %q", got)
		}
	}
	if a.Digest() != got[0] {
		t.Error("a repeated Digest differs")
	}
	if n := mDigests.Value() - base; n != 1 {
		t.Errorf("9 Digest calls hashed %d times, want 1", n)
	}
}

// BenchmarkDesignDigest is one hash of c5315, as an upload or a cache
// reload computes it (Digest itself returns the kept string after that).
func BenchmarkDesignDigest(b *testing.B) {
	spec, err := bench.ByName("c5315")
	if err != nil {
		b.Fatal(err)
	}
	a, err := Analyze(spec.Build(), DefaultOptions(cell.Default()))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		a.hashDesign()
	}
}
