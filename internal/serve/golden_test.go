package serve

import (
	"bytes"
	"flag"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/benchfmt"
	"repro/internal/circuit"
	"repro/internal/redteam"
)

var update = flag.Bool("update", false, "rewrite the golden /trace bodies under testdata/trace")

// goldenBuyers is the fixed registry behind the golden /trace bodies: the
// five buyers of TestServeEndToEnd plus names that exercise every escaping
// rule of the encoder (HTML-unsafe bytes, U+2028/U+2029, multi-byte runes
// and invalid UTF-8, which encodes as \ufffd).
var goldenBuyers = []string{
	"alice", "bob", "carol", "dave", "erin",
	"<b>&co",
	"line\u2028sep\u2029",
	"Zoë 日本",
	"bad\xff\xfeutf8",
}

// TestTraceGolden: /trace bodies (exact and ?scores=1) and the registry
// snapshot the store writes are byte-identical to the committed fixtures,
// which were produced by the encoding/json encoder. Regenerate with
// `go test ./internal/serve -run TestTraceGolden -update` only when the
// wire format is meant to change.
func TestTraceGolden(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{StoreDir: dir})
	master := benchBytes(t, "c880")
	info, _ := uploadDesign(t, ts.URL, master)
	copies := map[string][]byte{}
	for _, b := range goldenBuyers {
		copies[b], _ = issueCopy(t, ts.URL, info.Digest, url.QueryEscape(b), "")
	}
	coll, err := redteam.Coalition([]*circuit.Circuit{
		parseBench(t, copies["alice"]), parseBench(t, copies["bob"]),
	}, redteam.StrategyFewestPins)
	if err != nil {
		t.Fatal(err)
	}
	var forged bytes.Buffer
	if err := benchfmt.Write(&forged, coll.Forged); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		file, query string
		suspect     []byte
	}{
		{"verbatim.json", "?scores=1", copies["alice"]},
		{"collusion.json", "?scores=1&threshold=0.4", forged.Bytes()},
		{"master.json", "?scores=1", master},
		{"names.json", "?scores=1&threshold=0.75", copies["line\u2028sep\u2029"]},
		{"threshold0.json", "?scores=1&threshold=0", copies["Zoë 日本"]},
		{"exact.json", "", copies["bad\xff\xfeutf8"]},
		{"exact_html.json", "", copies["<b>&co"]},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/designs/"+info.Digest+"/trace"+tc.query, "text/plain", bytes.NewReader(tc.suspect))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.file, resp.StatusCode, body)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type = %q", tc.file, ct)
		}
		checkGolden(t, tc.file, body)
	}
	snap, err := os.ReadFile(filepath.Join(dir, info.Digest+".registry.json"))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "snapshot.json", snap)
}

// checkGolden compares got with testdata/trace/name, rewriting the file
// instead under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "trace", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: body differs from the golden fixture\n got: %q\nwant: %q", name, truncate(got), truncate(want))
	}
}

func truncate(b []byte) []byte {
	if len(b) > 400 {
		return b[:400]
	}
	return b
}
