package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one odcfpd process serving a store directory on loopback.
type daemon struct {
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has been reaped
	base string        // http://host:port
	log  string
}

// startDaemon execs bin on store and waits until it has bound its
// ephemeral port. gomaxprocs is passed through the environment; the
// daemon's own flags stay at their defaults.
func startDaemon(bin, store, logPath string, gomaxprocs int) (*daemon, error) {
	addrFile := filepath.Join(filepath.Dir(store), "addr")
	if err := os.Remove(addrFile); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-store", store, "-addr-file", addrFile)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	cmd.Stdout, cmd.Stderr = logf, logf
	// The daemon must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting odcfpd: %w", err)
	}
	logf.Close() // the child holds its own descriptor
	d := &daemon{cmd: cmd, done: make(chan struct{}), log: logPath}
	go func() {
		cmd.Wait()
		close(d.done)
	}()
	deadline := time.Now().Add(60 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && strings.HasSuffix(string(b), "\n") {
			d.base = "http://" + strings.TrimSpace(string(b))
			return d, nil
		}
		select {
		case <-d.done:
			return nil, fmt.Errorf("odcfpd exited during start-up: %s", d.logTail())
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("odcfpd did not bind within 60s: %s", d.logTail())
		}
	}
}

// kill sends SIGKILL and waits until the process is reaped.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.done
}

// stop asks for a graceful drain (SIGTERM) and falls back to SIGKILL.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(30 * time.Second):
		d.kill()
	}
}

// cpuTicks is the daemon's user+system CPU time so far, in clock ticks.
func (d *daemon) cpuTicks() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseProcStatCPU(string(b))
}

// cpuNS is the daemon's CPU time so far in nanoseconds: the sum of its
// threads' run times from /proc/<pid>/task/*/schedstat. Unlike cpuTicks it
// is exact enough to charge single requests.
func (d *daemon) cpuNS() (int64, error) {
	dir := fmt.Sprintf("/proc/%d/task", d.cmd.Process.Pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var sum int64
	for _, t := range tasks {
		b, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			continue // the thread exited after the listing
		}
		ns, err := parseSchedstat(string(b))
		if err != nil {
			return 0, err
		}
		sum += ns
	}
	return sum, nil
}

// peakRSSKB is the daemon's resident-set high-water mark (VmHWM), in kB.
func (d *daemon) peakRSSKB() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseStatusKB(string(b), "VmHWM")
}

// logTail returns the end of the daemon's log for error messages.
func (d *daemon) logTail() string {
	b, _ := os.ReadFile(d.log)
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return strings.TrimSpace(string(b))
}
