package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
)

// clockTicks is USER_HZ, the unit of the CPU fields in /proc/<pid>/stat.
// It is 100 on every Linux architecture Go supports.
const clockTicks = 100

// procCPU returns the user+system CPU seconds /proc/<pid>/stat reports
// for pid.
func procCPU(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name is parenthesised and may hold spaces; the fields
	// after it start with the state (field 3). utime and stime are
	// fields 14 and 15.
	s := string(b)
	end := strings.LastIndexByte(s, ')')
	if end < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[end+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat cpu fields", pid)
	}
	return (ut + st) / clockTicks, nil
}

// selfCPU returns this process's user+system CPU seconds from getrusage.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// procFields reads the "key: value" lines of a /proc file as numbers,
// keeping the first whitespace-separated token of each value.
func procFields(path string) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		if fs := strings.Fields(v); len(fs) > 0 {
			if x, err := strconv.ParseFloat(fs[0], 64); err == nil {
				out[k] = x
			}
		}
	}
	return out, sc.Err()
}

// peakRSSMB returns VmHWM, the resident-set high-water mark, in MiB.
// pid 0 means this process.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	m, err := procFields(path)
	if err != nil {
		return 0, err
	}
	kb, ok := m["VmHWM"]
	if !ok {
		return 0, fmt.Errorf("%s has no VmHWM", path)
	}
	return kb / 1024, nil
}

// resetPeakRSS restarts this process's VmHWM from its current RSS, so the
// high-water mark covers only what follows.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// procIO is the subset of /proc/<pid>/io the benchmark reports.
type procIO struct {
	rchar, writeBytes float64
}

func readProcIO(pid int) (procIO, error) {
	m, err := procFields(fmt.Sprintf("/proc/%d/io", pid))
	if err != nil {
		return procIO{}, err
	}
	return procIO{rchar: m["rchar"], writeBytes: m["write_bytes"]}, nil
}
