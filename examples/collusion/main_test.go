package main

import (
	"os/exec"
	"sort"
	"strings"
	"testing"
)

func TestSmoke(t *testing.T) {
	out, err := exec.Command("go", "run", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("collusion: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "fingerprint locations") {
		t.Fatalf("unexpected output:\n%s", out)
	}
	// The accused set is exactly the coalition, in whatever score order.
	_, line, ok := strings.Cut(string(out), "accused (score = 1.0): [")
	if !ok {
		t.Fatalf("no accusation line:\n%s", out)
	}
	line, _, _ = strings.Cut(line, "]")
	accused := strings.Fields(line)
	sort.Strings(accused)
	if got := strings.Join(accused, " "); got != "alpha bravo charlie" {
		t.Fatalf("accused {%s}, want exactly {alpha bravo charlie}:\n%s", got, out)
	}
}
