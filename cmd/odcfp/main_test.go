package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro"
	"repro/internal/atomicfile"
	"repro/internal/registry"
)

func runCLI(t *testing.T, args ...string) string {
	t.Helper()
	out, err := exec.Command("go", append([]string{"run", "."}, args...)...).CombinedOutput()
	if err != nil {
		t.Fatalf("odcfp %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	if len(strings.TrimSpace(string(out))) == 0 {
		t.Fatalf("odcfp %s: empty output", strings.Join(args, " "))
	}
	return string(out)
}

// TestSmoke drives the CLI end to end on the tiny committed netlists:
// stats/analyze, a fingerprint embed + extract round trip, an issue +
// trace round trip through a .bench copy, and the parallel constrain path.
func TestSmoke(t *testing.T) {
	in := filepath.Join("..", "..", "testdata", "c17.bench")

	if out := runCLI(t, "stats", "-in", in); !strings.Contains(out, "gates") {
		t.Errorf("stats output malformed:\n%s", out)
	}
	if out := runCLI(t, "analyze", "-in", in); !strings.Contains(out, "fingerprint locations") {
		t.Errorf("analyze output malformed:\n%s", out)
	}

	dir := t.TempDir()
	fp := filepath.Join(dir, "fp.v")
	if out := runCLI(t, "fingerprint", "-in", in, "-out", fp); !strings.Contains(out, "verified") {
		t.Errorf("fingerprint output malformed:\n%s", out)
	}
	if out := runCLI(t, "extract", "-in", in, "-copy", fp); !strings.Contains(out, "fingerprint value") {
		t.Errorf("extract output malformed:\n%s", out)
	}

	// Issue writes the format -out names, so a .bench copy traces back.
	reg := filepath.Join(dir, "reg.json")
	cp := filepath.Join(dir, "copy.bench")
	if out := runCLI(t, "issue", "-in", in, "-registry", reg, "-buyer", "alice", "-out", cp); !strings.Contains(out, "copy verified") {
		t.Errorf("issue output malformed:\n%s", out)
	}
	if out := runCLI(t, "trace", "-in", in, "-registry", reg, "-copy", cp); !strings.Contains(out, `traces to buyer "alice"`) {
		t.Errorf("trace output malformed:\n%s", out)
	}

	con := filepath.Join(dir, "con.v")
	out := runCLI(t, "constrain", "-in", in, "-out", con, "-budget", "0.10", "-j", "4")
	if !strings.Contains(out, "reactive heuristic") {
		t.Errorf("constrain output malformed:\n%s", out)
	}
}

// TestWriteCircuitRejectsUnknownExtension: an output extension with no
// writer is an error naming the supported ones, and no file is created.
func TestWriteCircuitRejectsUnknownExtension(t *testing.T) {
	f, err := os.Open(filepath.Join("..", "..", "testdata", "c17.bench"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	c, err := odcfp.ReadBench(f)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "copy.blif")
	if err := writeCircuit(path, c); err == nil || !strings.Contains(err.Error(), ".v or .bench") {
		t.Fatalf("writeCircuit(%s) = %v, want an error naming .v and .bench", path, err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("rejected write left %s behind (%v)", path, err)
	}
}

// TestIssueRegistryWriteFailure: a registry write that fails returns an
// error and leaves the earlier registry byte-identical and loadable, with
// no temporary file behind.
func TestIssueRegistryWriteFailure(t *testing.T) {
	in := filepath.Join("..", "..", "testdata", "c17.bench")
	dir := t.TempDir()
	reg := filepath.Join(dir, "reg.json")
	if err := cmdIssue([]string{"-in", in, "-registry", reg, "-buyer", "alice", "-out", filepath.Join(dir, "alice.v")}); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(reg)
	if err != nil {
		t.Fatal(err)
	}

	// The registry's directory is a regular file: creating the temporary
	// file fails.
	notDir := filepath.Join(dir, "plain")
	if err := os.WriteFile(notDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	err = cmdIssue([]string{"-in", in, "-registry", filepath.Join(notDir, "reg.json"), "-buyer", "bob", "-out", filepath.Join(dir, "bob.v")})
	if err == nil || !strings.Contains(err.Error(), "writing registry") {
		t.Fatalf("issue into %s: err = %v, want a registry write error", notDir, err)
	}

	// The encoder fails halfway through: the earlier registry stays.
	failing := func(w io.Writer) error {
		w.Write(before[:len(before)/2])
		return errors.New("disk full")
	}
	if err := atomicfile.Write(reg, 0o644, failing); err == nil {
		t.Fatal("atomicfile.Write reported success for a failed write")
	}
	after, err := os.ReadFile(reg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, before) {
		t.Fatalf("failed write changed the registry:\n%s\nwant:\n%s", after, before)
	}
	a, err := loadAnalysis(in)
	if err != nil {
		t.Fatal(err)
	}
	r, err := registry.Load(bytes.NewReader(after), a)
	if err != nil {
		t.Fatalf("registry no longer loads: %v", err)
	}
	if buyers := r.Buyers(); len(buyers) != 1 || buyers[0] != "alice" {
		t.Errorf("buyers %v, want [alice]", buyers)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Errorf("temporary file %s left behind", e.Name())
		}
	}
}
