package registry

import (
	"bytes"
	"encoding/json"
	"flag"
	"math/big"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/snapshot.json")

// goldenBuyers are the names recorded in the golden snapshot: plain names
// plus every escaping case of the encoder (HTML-unsafe bytes,
// U+2028/U+2029, multi-byte runes and invalid UTF-8).
var goldenBuyers = []string{
	"alice", "bob", "carol", "dave", "erin",
	"<b>&co",
	"line\u2028sep\u2029",
	"Zoë 日本",
	"bad\xff\xfeutf8",
}

// TestSnapshotGolden: Save writes the committed c880 snapshot byte for
// byte (the fixture was produced by the encoding/json encoder), and Load
// reads it back to the same records. Regenerate with
// `go test ./internal/registry -run TestSnapshotGolden -update` only when
// the file format is meant to change.
func TestSnapshotGolden(t *testing.T) {
	a := analyzed(t, "c880")
	r := New(a)
	for _, b := range goldenBuyers {
		if _, _, err := issue(r, a, b); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := r.Save(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "snapshot.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("Save differs from %s\n got: %q\nwant: %q", path, buf.Bytes(), want)
	}
	r2, err := Load(bytes.NewReader(want), a)
	if err != nil {
		t.Fatal(err)
	}
	// JSON carries only valid UTF-8: each invalid byte of a name reads
	// back as U+FFFD.
	var wantRecs []Record
	for _, rec := range r.Records() {
		wantRecs = append(wantRecs, Record{Buyer: string([]rune(rec.Buyer)), Value: rec.Value})
	}
	slices.SortFunc(wantRecs, func(x, y Record) int { return strings.Compare(x.Buyer, y.Buyer) })
	if got := r2.Records(); !reflect.DeepEqual(got, wantRecs) {
		t.Errorf("loaded records %q, want %q", got, wantRecs)
	}
}

// checkSnapshotJSON checks AppendJSON against encoding/json's map encoding
// byte for byte, first on the empty registry (fuzzed design and digest,
// `"issued": {}`), then on one built from fuzzed names and values — any
// bytes, not only decimals — merged in two batches through insert: the
// kept record order must be the order encoding/json gives map keys.
func checkSnapshotJSON(t *testing.T, names, values, design, digest string) {
	t.Helper()
	r := &Registry{Design: design, Digest: digest}
	issued := map[string]string{}
	want := func() []byte {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(map[string]any{"design": design, "digest": digest, "issued": issued}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if got := r.AppendJSON(nil); !bytes.Equal(got, want()) {
		t.Fatalf("empty AppendJSON:\n got %q\nwant %q", got, want())
	}
	vals := strings.Split(values, ",")
	var batches [2][]entry
	for i, n := range strings.Split(names, ",") {
		if _, dup := issued[n]; dup {
			continue
		}
		issued[n] = vals[i%len(vals)]
		batches[i%2] = append(batches[i%2], entry{Record: Record{Buyer: n, Value: issued[n]}})
	}
	for _, add := range batches {
		slices.SortFunc(add, compareEntries)
		r.insert(add)
	}
	if got := r.AppendJSON(nil); !bytes.Equal(got, want()) {
		t.Fatalf("AppendJSON:\n got %q\nwant %q", got, want())
	}
}

// FuzzSnapshotJSON: registry snapshots over fuzzed buyer names and values
// match encoding/json byte for byte.
func FuzzSnapshotJSON(f *testing.F) {
	f.Add("alice,bob,carol", "1,22,333", "c880", "ebb615f0")
	f.Add("<b>&co,line\xe2\x80\xa8sep\xe2\x80\xa9,Zo\xc3\xab", "bad\xff\xfe, ", "", "")
	f.Add("", "", "x", "y")
	f.Add("b,a,b,c,a,\x00,\xff", "9,8,7", "\x7f\"\\", ",")
	f.Fuzz(checkSnapshotJSON)
}

// TestSnapshotJSONRandom runs the fuzz check over 2 000 seeded random
// inputs on every plain test run.
func TestSnapshotJSONRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pieces := []string{"a", "bob", ",", "<", ">", "&", "\"", "\\", "\n", "\x01", "\xc3\xa9", "\xe2\x80\xa8", "\xe2\x80\xa9", "\xff", "\xe6\x97", "7"}
	str := func() string {
		var sb strings.Builder
		for n := rng.Intn(30); n > 0; n-- {
			sb.WriteString(pieces[rng.Intn(len(pieces))])
		}
		return sb.String()
	}
	for i := 0; i < 2000; i++ {
		checkSnapshotJSON(t, str(), str(), str(), str())
	}
}

// FuzzSnapshotLoad: a fuzzed c432 snapshot either fails to load, or loads
// the records encoding/json decodes from it into a map, in a registry in
// which no two records name one number and which AppendJSON then Load
// carry over unchanged. The seeds hold a buyer listed with two values and
// two spellings of one number, both of which must fail.
func FuzzSnapshotLoad(f *testing.F) {
	a := analyzed(f, "c432")
	snapshot := func(issued string) []byte {
		return []byte(`{"design": "c432", "digest": "` + a.Digest() + `", "issued": {` + issued + `}}`)
	}
	f.Add(snapshot(`"alice": "5", "bob": "8", "alice": "3411"`))
	f.Add(snapshot(`"alice": "5", "bob": "05"`))
	f.Add(snapshot(`"alice": "5", "bob": "0", "alice": "5"`))
	f.Add(snapshot(`"<b>&co": "12", "Zo\u00eb \u2028": "7", "q\"\\": "31", ` + "\"bad\xff\": \"9\""))
	f.Add(snapshot(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := Load(bytes.NewReader(data), a)
		if err != nil {
			return
		}
		var oracle struct {
			Issued map[string]string `json:"issued"`
		}
		if err := json.NewDecoder(bytes.NewReader(data)).Decode(&oracle); err != nil {
			t.Fatalf("loaded a snapshot encoding/json rejects: %v", err)
		}
		if got := r.Records(); len(got) != len(oracle.Issued) {
			t.Fatalf("loaded %q, encoding/json decodes %q", got, oracle.Issued)
		}
		owner := map[string]string{}
		for _, rec := range r.Records() {
			v, ok := new(big.Int).SetString(rec.Value, 10)
			if !ok {
				t.Fatalf("loaded %q with value %q", rec.Buyer, rec.Value)
			}
			if other, dup := owner[v.String()]; dup {
				t.Fatalf("%q and %q both record %s", other, rec.Buyer, v)
			}
			owner[v.String()] = rec.Buyer
			if want := oracle.Issued[rec.Buyer]; rec.Value != want {
				t.Fatalf("loaded %q = %q, encoding/json decodes %q", rec.Buyer, rec.Value, want)
			}
		}
		snap := r.AppendJSON(nil)
		r2, err := Load(bytes.NewReader(snap), a)
		if err != nil {
			t.Fatalf("reloading %q: %v", snap, err)
		}
		if got, want := r2.Records(), r.Records(); !reflect.DeepEqual(got, want) {
			t.Fatalf("reloaded %q, want %q", got, want)
		}
		if again := r2.AppendJSON(nil); !bytes.Equal(again, snap) {
			t.Fatalf("second snapshot %q, want %q", again, snap)
		}
	})
}
