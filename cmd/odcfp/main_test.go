package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro"
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
