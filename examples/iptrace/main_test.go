package main

import (
	"os/exec"
	"strings"
	"testing"
)

func TestSmoke(t *testing.T) {
	out, err := exec.Command("go", "run", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("iptrace: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "fingerprint locations") {
		t.Fatalf("unexpected output:\n%s", out)
	}
	if !strings.Contains(string(out), "leak attributed to cygnus") {
		t.Fatalf("leak not attributed to cygnus:\n%s", out)
	}
}
