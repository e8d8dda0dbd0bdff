package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// runRecord says on which machine, toolchain and source a run was made,
// and how the host behaved during it; it is printed to standard error.
type runRecord struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	CPUModel   string  `json:"cpu_model"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	StoreFS    string  `json:"store_fs"`
	// StealPct is the hypervisor's share of all CPU time over the run.
	StealPct float64 `json:"steal_pct"`
	// RefMsBefore and RefMsAfter time refKernel before and after the run.
	RefMsBefore float64 `json:"ref_ms_before"`
	RefMsAfter  float64 `json:"ref_ms_after"`
	// Steps and PhaseS are the timed phase's mix steps and wall seconds.
	Steps    int               `json:"steps"`
	PhaseS   float64           `json:"phase_s"`
	SetupS   []float64         `json:"setup_s"`
	RecoverS []float64         `json:"recover_s"`
	Samples  map[string]int    `json:"samples"`
	Tails    map[string]string `json:"tails,omitempty"`
	Counters map[string]int64  `json:"counters"`
	Failures []string          `json:"failures,omitempty"`
}

var refSink int

// refKernel is a fixed allocation-heavy computation (map building, slice
// growth, sorting) whose time tracks host speed and memory pressure, not
// the program under test. It returns milliseconds.
func refKernel() float64 {
	t := time.Now()
	m := make(map[int][]byte)
	for i := 0; i < 150000; i++ {
		m[i] = make([]byte, 32+i%96)
	}
	keys := make([]int, 0, len(m))
	for k, v := range m {
		keys = append(keys, k^len(v))
	}
	sort.Ints(keys)
	refSink = keys[len(keys)/2]
	return float64(time.Since(t)) / float64(time.Millisecond)
}

// refKernelMs times n runs of refKernel.
func refKernelMs(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = refKernel()
	}
	return out
}

// sourceCommit names the source under test: the git commit when the
// checkout is a repository, else a digest of every Go source and module
// file under root.
func sourceCommit(root string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, p+"\x00")
		io.Copy(h, f)
		f.Close()
	}
	return "source-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", st.Type)
}
