package serve

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bench"
	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/registry"
	"repro/internal/registrystore"
)

const testDigest = "0123456789abcdef0123456789abcdef"

func analyzed(t testing.TB, name string) *core.Analysis {
	t.Helper()
	spec, err := bench.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Analyze(spec.Build(), core.DefaultOptions(cell.Default()))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestStorePutLoadRoundTrip(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	meta := DesignMeta{Design: "c880s", Format: "bench"}
	netlist := []byte("INPUT(a)\nOUTPUT(b)\nb = NOT(a)\n")
	if err := st.PutDesign(testDigest, meta, netlist); err != nil {
		t.Fatal(err)
	}
	if !st.HasDesign(testDigest) {
		t.Fatal("HasDesign = false after PutDesign")
	}
	gotMeta, gotData, err := st.LoadDesign(testDigest)
	if err != nil {
		t.Fatal(err)
	}
	if gotMeta != meta {
		t.Errorf("meta = %+v, want %+v", gotMeta, meta)
	}
	if !bytes.Equal(gotData, netlist) {
		t.Errorf("netlist bytes differ:\n got %q\nwant %q", gotData, netlist)
	}
	lm, err := st.LoadMeta(testDigest)
	if err != nil || lm != meta {
		t.Errorf("LoadMeta = %+v, %v", lm, err)
	}
	digests, err := st.Digests()
	if err != nil {
		t.Fatal(err)
	}
	if len(digests) != 1 || digests[0] != testDigest {
		t.Errorf("Digests = %v", digests)
	}
}

func TestStoreRejectsInvalidDigest(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "short", "../../../../etc/passwd", "0123456789ABCDEF0123456789ABCDEF",
		"0123456789abcdef0123456789abcdeg", "0123456789abcdef0123456789abcdef0"} {
		if err := st.PutDesign(bad, DesignMeta{}, nil); err == nil {
			t.Errorf("PutDesign(%q) accepted an invalid digest", bad)
		}
		if st.HasDesign(bad) {
			t.Errorf("HasDesign(%q) = true", bad)
		}
		if _, _, err := st.LoadDesign(bad); err == nil {
			t.Errorf("LoadDesign(%q) accepted an invalid digest", bad)
		}
	}
}

// TestStoreTornWriteRecovery: a crash mid-atomic-write leaves a temp file
// behind; reopening the store sweeps it and the last complete record is
// still readable.
func TestStoreTornWriteRecovery(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	meta := DesignMeta{Design: "x", Format: "bench"}
	netlist := []byte("INPUT(a)\nOUTPUT(b)\nb = NOT(a)\n")
	if err := st.PutDesign(testDigest, meta, netlist); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash partway through a rewrite: garbage temp files next
	// to the (complete) destination files.
	for _, name := range []string{
		testDigest + ".design" + tmpMarker + "999",
		testDigest + ".registry.json" + tmpMarker + "123",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("torn garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	left, err := filepath.Glob(filepath.Join(dir, "*"+tmpMarker+"*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("temp files survived recovery: %v", left)
	}
	_, gotData, err := st2.LoadDesign(testDigest)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotData, netlist) {
		t.Errorf("recovered netlist differs: %q", gotData)
	}
	// Temp files never shadow real records in listings.
	digests, err := st2.Digests()
	if err != nil {
		t.Fatal(err)
	}
	if len(digests) != 1 || digests[0] != testDigest {
		t.Errorf("Digests after recovery = %v", digests)
	}
}

// TestStoreRegistryRoundTrip: an issued fingerprint persists through the
// single-node registry store (registrystore.Open; it shares the design
// store's directory and snapshot format), and a design with no records
// yields a fresh empty registry rather than an error.
func TestStoreRegistryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := registrystore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	a := analyzed(t, "c880")
	digest := a.Digest()

	empty, seq0, err := st.Load(digest, a)
	if err != nil {
		t.Fatal(err)
	}
	if n := empty.NumIssued(); n != 0 {
		t.Fatalf("fresh registry has %d issued", n)
	}

	r := registry.New(a)
	if _, err := r.IssueBatch(context.Background(), a, []string{"alice"}); err != nil {
		t.Fatal(err)
	}
	val, _ := r.Value("alice")
	seq, err := st.Append(context.Background(), digest, r,
		[]registrystore.Record{{Buyer: "alice", Value: val}})
	if err != nil {
		t.Fatal(err)
	}
	if seq == seq0 {
		t.Errorf("Append did not move the sequence (still %d)", seq)
	}
	r2, _, err := st.Load(digest, a)
	if err != nil {
		t.Fatal(err)
	}
	v1, ok1 := r.Value("alice")
	v2, ok2 := r2.Value("alice")
	if !ok1 || !ok2 || v1 != v2 {
		t.Errorf("reloaded value = %q (%v), want %q (%v)", v2, ok2, v1, ok1)
	}
}
