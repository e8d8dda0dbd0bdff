package atomicfile

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestWriteReplaces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f.json")
	for _, body := range []string{"first\n", "second, longer\n"} {
		err := Write(path, 0o640, func(w io.Writer) error {
			_, err := io.WriteString(w, body)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != body {
			t.Fatalf("file holds %q, want %q", got, body)
		}
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode().Perm() != 0o640 {
		t.Errorf("mode %v, want 0640", fi.Mode().Perm())
	}
	assertNoTemp(t, filepath.Dir(path))
}

// TestWriteFailureKeepsOld fails the write halfway: the earlier file stays
// byte-identical and no temporary file is left.
func TestWriteFailureKeepsOld(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.json")
	if err := os.WriteFile(path, []byte("old contents\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	errFull := errors.New("disk full")
	err := Write(path, 0o644, func(w io.Writer) error {
		io.WriteString(w, "new con")
		return errFull
	})
	if !errors.Is(err, errFull) {
		t.Fatalf("err = %v, want %v", err, errFull)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "old contents\n" {
		t.Fatalf("failed write changed the file to %q", got)
	}
	assertNoTemp(t, dir)
}

// TestWriteNoDirectory: a path whose parent is a regular file fails before
// anything is written.
func TestWriteNoDirectory(t *testing.T) {
	plain := filepath.Join(t.TempDir(), "plain")
	if err := os.WriteFile(plain, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	called := false
	err := Write(filepath.Join(plain, "f.json"), 0o644, func(io.Writer) error {
		called = true
		return nil
	})
	if err == nil || called {
		t.Fatalf("err = %v, write called = %v; want an error before writing", err, called)
	}
}

func assertNoTemp(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), TmpMarker) {
			t.Errorf("temporary file %s left behind", e.Name())
		}
	}
}
