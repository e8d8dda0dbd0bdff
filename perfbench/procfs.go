package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// clockTicks is USER_HZ, the unit of /proc CPU times; it is 100 on every
// Linux architecture the toolchain targets.
const clockTicks = 100

// parseProcStatCPU returns utime+stime, in clock ticks, from the contents
// of /proc/<pid>/stat. The command name (field 2) may hold spaces and
// parentheses, so fields are counted from the last ')'.
func parseProcStatCPU(stat string) (int64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", stat)
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command, want at least 13", len(f))
	}
	ut, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	st, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return ut + st, nil
}

// parseSchedstat returns the run time, in nanoseconds, from the contents of
// a /proc/<pid>/task/<tid>/schedstat file ("runtime wait timeslices").
func parseSchedstat(s string) (int64, error) {
	f := strings.Fields(s)
	if len(f) != 3 {
		return 0, fmt.Errorf("schedstat: %q has %d fields, want 3", s, len(f))
	}
	ns, err := strconv.ParseInt(f[0], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("schedstat: %w", err)
	}
	return ns, nil
}

// parseStatusKB returns the value, in kB, of one "Key:   N kB" line of
// /proc/<pid>/status (VmHWM is the peak resident set).
func parseStatusKB(status, key string) (int64, error) {
	sc := bufio.NewScanner(strings.NewReader(status))
	for sc.Scan() {
		line := sc.Text()
		rest, ok := strings.CutPrefix(line, key+":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed %s line %q", key, line)
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, fmt.Errorf("proc status: no %s line", key)
}

// hostCPU is the machine-wide CPU time split of /proc/stat's "cpu" line.
type hostCPU struct {
	total, steal int64
}

// parseHostCPU reads the aggregate "cpu" line of /proc/stat: total is the
// sum of user, nice, system, idle, iowait, irq, softirq and steal (guest
// time is already inside user), steal the time the hypervisor gave away.
func parseHostCPU(stat string) (hostCPU, error) {
	line, _, _ := strings.Cut(stat, "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostCPU{}, fmt.Errorf("proc stat: first line %q is not the aggregate cpu line", line)
	}
	var h hostCPU
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseInt(f[i], 10, 64)
		if err != nil {
			return hostCPU{}, fmt.Errorf("proc stat cpu field %d: %w", i, err)
		}
		h.total += v
		if i == 8 {
			h.steal = v
		}
	}
	return h, nil
}

// readHostCPU samples /proc/stat.
func readHostCPU() (hostCPU, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}, err
	}
	return parseHostCPU(string(b))
}

// stealPct is the share of CPU time stolen by the hypervisor between two
// samples, in percent.
func stealPct(a, b hostCPU) float64 {
	if b.total <= a.total {
		return 0
	}
	return 100 * float64(b.steal-a.steal) / float64(b.total-a.total)
}

// cpuModel returns the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
