package registry

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
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
	wantIssued := map[string]string{}
	for b, v := range r.Issued {
		wantIssued[string([]rune(b))] = v
	}
	if !reflect.DeepEqual(r2.Issued, wantIssued) {
		t.Errorf("loaded records %q, want %q", r2.Issued, wantIssued)
	}
}
