package registry

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/cell"
	"repro/internal/circuit"
	"repro/internal/core"
)

// sprintfDigest is the fmt-based DesignDigest, kept as the oracle: every
// stored registry and design is keyed by these bytes.
// (circuit's tests pin Circuit.String to its own fmt oracle.)
func sprintfDigest(a *core.Analysis) string {
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
		a := analyzed(t, spec.Name)
		if got, want := DesignDigest(a), sprintfDigest(a); got != want {
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
		a, err := core.Analyze(renamed(t, spec.Build(), name), core.DefaultOptions(cell.Default()))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := DesignDigest(a), sprintfDigest(a); got != want {
			t.Errorf("%s: digest %s, fmt oracle %s", a.Circuit.Name, got, want)
		}
	}
}

// TestNewMarksChecked: New hashes its analysis once for its Digest and
// remembers it, so issuing and tracing against that analysis hash nothing
// more; another analysis of the same design is hashed once on first use.
func TestNewMarksChecked(t *testing.T) {
	a := analyzed(t, "c432")
	base := mDigests.Value()
	digests := func() int64 { return mDigests.Value() - base }
	r := New(a)
	if n := digests(); n != 1 {
		t.Fatalf("New hashed %d times, want 1", n)
	}
	cp, _, err := issue(r, a, "x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.TraceExact(a, cp); err != nil {
		t.Fatal(err)
	}
	if n := digests(); n != 1 {
		t.Fatalf("issue and trace after New hashed %d more times, want 0", n-1)
	}
	again := analyzed(t, "c432")
	for _, buyer := range []string{"y", "z"} {
		if _, _, err := issue(r, again, buyer); err != nil {
			t.Fatal(err)
		}
	}
	if n := digests(); n != 2 {
		t.Fatalf("a second analysis hashed %d times over two issues, want 1", n-1)
	}
}

// BenchmarkDesignDigest is one digest of c5315, as an upload and a fresh
// registry compute it.
func BenchmarkDesignDigest(b *testing.B) {
	a := analyzed(b, "c5315")
	b.ReportAllocs()
	for b.Loop() {
		DesignDigest(a)
	}
}
