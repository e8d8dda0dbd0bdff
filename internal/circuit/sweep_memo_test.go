package circuit_test

import (
	"bytes"
	"io"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/benchfmt"
	"repro/internal/circuit"
	"repro/internal/ingest"
	"repro/internal/verilog"
)

// memosRight fails unless c, a sweep result, has its Validate memo set
// and passes the full check, and has its topological order memoized as
// the one Kahn's sort computes.
func memosRight(t *testing.T, what string, c *circuit.Circuit) {
	t.Helper()
	valid, topo := c.Memos()
	if !valid {
		t.Fatalf("%s: Validate memo not set", what)
	}
	if err := c.ValidateUncached(); err != nil {
		t.Fatalf("%s: memo set on an invalid circuit: %v", what, err)
	}
	want, err := c.TopoOrderUncached()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(topo, want) {
		t.Fatalf("%s: memoized order %v, Kahn's sort gives %v", what, topo, want)
	}
}

// TestSweepMemoNeedsValidReceiver: a sweep result's Validate memo is set
// only when the receiver's is; its topological order is memoized either
// way.
func TestSweepMemoNeedsValidReceiver(t *testing.T) {
	c := circuit.RandCircuit(rand.New(rand.NewSource(3)))
	swept, _ := c.Sweep()
	if valid, topo := swept.Memos(); valid || topo == nil {
		t.Fatalf("sweep of an unvalidated circuit: Validate memo %v, order memoized %v", valid, topo != nil)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	swept, _ = c.Sweep()
	memosRight(t, "Sweep", swept)
}

// TestReadDesignMemos: the swept circuit a design read hands to the
// analysis (ingest.Swept) has its Validate and TopoOrder memos set and
// right, for every suite circuit read from .bench and Verilog bytes.
func TestReadDesignMemos(t *testing.T) {
	for _, spec := range append(bench.Suite(), bench.Extras()...) {
		for format, write := range map[string]func(io.Writer, *circuit.Circuit) error{"bench": benchfmt.Write, "v": verilog.Write} {
			var buf bytes.Buffer
			if err := write(&buf, spec.Build()); err != nil {
				t.Fatal(err)
			}
			c, err := ingest.Swept(format, buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			memosRight(t, spec.Name+"/"+format, c)
		}
	}
}
