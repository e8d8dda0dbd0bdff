package main

import "testing"

func TestParseProcStatCPU(t *testing.T) {
	// The command name may contain spaces and parentheses.
	stat := "4242 (odc fpd (x)) S 1 4242 4242 0 -1 4194560 5181 0 0 0 731 95 0 0 20 0 9 0 1234 1 2 3"
	got, err := parseProcStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if got != 731+95 {
		t.Errorf("utime+stime = %d, want %d", got, 731+95)
	}
	for _, bad := range []string{"", "12 odcfpd S 1", "1 (x) S 1 2 3", "1 (x) S 1 1 1 0 -1 4 5 0 0 0 u 95 0"} {
		if _, err := parseProcStatCPU(bad); err == nil {
			t.Errorf("parseProcStatCPU(%q) did not fail", bad)
		}
	}
}

func TestParseStatusKB(t *testing.T) {
	status := "Name:\todcfpd\nVmPeak:\t  812340 kB\nVmHWM:\t  642512 kB\nVmRSS:\t  600000 kB\n"
	got, err := parseStatusKB(status, "VmHWM")
	if err != nil || got != 642512 {
		t.Errorf("VmHWM = %d, %v; want 642512", got, err)
	}
	if _, err := parseStatusKB(status, "VmSwap"); err == nil {
		t.Error("missing key did not fail")
	}
	if _, err := parseStatusKB("VmHWM:\t12 MB\n", "VmHWM"); err == nil {
		t.Error("wrong unit did not fail")
	}
}

func TestParseHostCPU(t *testing.T) {
	stat := "cpu  91543 0 11049 595311 1041 0 1969 19861 7 0\ncpu0 1 2 3 4 5 6 7 8 0 0\n"
	h, err := parseHostCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(91543 + 11049 + 595311 + 1041 + 1969 + 19861); h.total != want || h.steal != 19861 {
		t.Errorf("got %+v, want total %d steal 19861", h, want)
	}
	later := hostCPU{total: h.total + 1000, steal: h.steal + 50}
	if got := stealPct(h, later); got != 5 {
		t.Errorf("stealPct = %v, want 5", got)
	}
	if got := stealPct(h, h); got != 0 {
		t.Errorf("stealPct over no time = %v, want 0", got)
	}
	if _, err := parseHostCPU("cpu0 1 2 3 4 5 6 7 8\n"); err == nil {
		t.Error("per-CPU line accepted as the aggregate")
	}
}

func TestParseSchedstat(t *testing.T) {
	got, err := parseSchedstat("76173979 38703998 387\n")
	if err != nil || got != 76173979 {
		t.Errorf("parseSchedstat = %d, %v; want 76173979", got, err)
	}
	for _, bad := range []string{"", "1 2", "x 2 3"} {
		if _, err := parseSchedstat(bad); err == nil {
			t.Errorf("parseSchedstat(%q) did not fail", bad)
		}
	}
}
