package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one heterosimd process started from the built binary with
// default flags apart from its listen and pprof addresses. Its stderr —
// start-up lines and one access-log line per request — goes to the null
// device, or to a file in the work directory when the run joins the
// access log to its own requests (traced passes).
type daemon struct {
	cmd     *exec.Cmd
	logPath string // "" when the log is discarded
	base    string // http://host:port
	pprof   string // http://host:port of the pprof listener
	exited  chan struct{}
	waitErr error // valid once exited is closed
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startDaemon execs heterosimd on two free loopback ports and waits
// until /healthz answers. A port taken in between makes the daemon exit
// at once; it is retried on fresh ports.
func startDaemon(bin, work string, n int, keepLog bool) (*daemon, error) {
	var err error
	for try := 0; try < 3; try++ {
		var d *daemon
		if d, err = startDaemonOnce(bin, work, n, keepLog); err == nil {
			return d, nil
		}
	}
	return nil, err
}

func startDaemonOnce(bin, work string, n int, keepLog bool) (*daemon, error) {
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	paddr, err := freePort()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(bin, "heterosimd"), "serve", "-addr", addr, "-pprof-addr", paddr)
	cmd.SysProcAttr = childAttr()
	d := &daemon{cmd: cmd, base: "http://" + addr, pprof: "http://" + paddr, exited: make(chan struct{})}
	if keepLog {
		d.logPath = filepath.Join(work, fmt.Sprintf("heterosimd-%d.log", n))
		lf, err := os.Create(d.logPath)
		if err != nil {
			return nil, err
		}
		defer lf.Close() // the child holds its own descriptor
		cmd.Stderr = lf
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	go func() { d.waitErr = cmd.Wait(); close(d.exited) }()
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if res, err := hc.Get(d.base + "/healthz"); err == nil {
			res.Body.Close()
			if res.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("heterosimd exited during start-up: %v", d.waitErr)
		case <-time.After(250 * time.Microsecond):
		}
	}
	d.stop()
	return nil, fmt.Errorf("heterosimd did not answer /healthz within 20s")
}

// childAttr makes the kernel kill a child if the benchmark itself dies,
// so no daemon outlives a crashed run.
func childAttr() *syscall.SysProcAttr { return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} }

// removeLog deletes the daemon's log file, if it kept one.
func (d *daemon) removeLog() {
	if d.logPath != "" {
		os.Remove(d.logPath)
	}
}

// stop sends SIGTERM, waits for a clean drain, and kills the process if
// it has not exited after ten seconds.
func (d *daemon) stop() error {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
		return d.waitErr
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
		return fmt.Errorf("heterosimd did not drain within 10s")
	}
}

// procStat reads the daemon's cumulative user+system CPU in clock ticks
// (USER_HZ, 100 on Linux) from /proc.
func procCPUTicks(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	u, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat: %v %v", err1, err2)
	}
	return u + st, nil
}

const ticksPerSecond = 100

// systemTicks reads the machine-wide CPU time from /proc/stat: the ticks
// the CPUs sat idle, the ticks the hypervisor stole from them, and all
// ticks.
func systemTicks() (idle, steal, total int64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i, v := range f[1:] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, 0, 0, err
		}
		total += n
		switch i {
		case 3:
			idle = n
		case 7:
			steal = n
		}
	}
	return idle, steal, total, nil
}

// vmHWM is the process's peak resident set in MB.
func vmHWM(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

func httpGet(url string) ([]byte, error) {
	res, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer res.Body.Close()
	b, err := io.ReadAll(res.Body)
	if err != nil {
		return nil, err
	}
	if res.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, res.Status)
	}
	return b, nil
}

// promScrape reads /metrics?format=prometheus into series -> value,
// keyed by the series text as exposed, e.g.
// `heterosimd_stage_duration_seconds_sum{stage="decode"}`.
func (d *daemon) promScrape() (map[string]float64, error) {
	b, err := httpGet(d.base + "/metrics?format=prometheus")
	if err != nil {
		return nil, err
	}
	m := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("prometheus line %q: %v", line, err)
		}
		m[line[:i]] = v
	}
	return m, sc.Err()
}

// memStats is the part of the runtime.MemStats dump (pprof heap profile,
// debug=1) the benchmark reads.
type memStats struct {
	mallocs, totalAlloc, numGC uint64
	pauseNs                    []uint64 // circular, indexed by GC number mod 256
}

var reMemStat = regexp.MustCompile(`(?m)^# (Mallocs|TotalAlloc|NumGC|PauseNs) = (.*)$`)

func (d *daemon) memStats() (memStats, error) {
	b, err := httpGet(d.pprof + "/debug/pprof/heap?debug=1")
	if err != nil {
		return memStats{}, err
	}
	var ms memStats
	found := 0
	for _, m := range reMemStat.FindAllSubmatch(b, -1) {
		val := string(m[2])
		switch string(m[1]) {
		case "PauseNs":
			for _, f := range strings.Fields(strings.Trim(val, "[]")) {
				n, _ := strconv.ParseUint(f, 10, 64)
				ms.pauseNs = append(ms.pauseNs, n)
			}
		default:
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return ms, fmt.Errorf("MemStats %s: %v", m[1], err)
			}
			switch string(m[1]) {
			case "Mallocs":
				ms.mallocs = n
			case "TotalAlloc":
				ms.totalAlloc = n
			case "NumGC":
				ms.numGC = n
			}
		}
		found++
	}
	if found < 4 {
		return ms, fmt.Errorf("MemStats dump is missing fields")
	}
	return ms, nil
}

// pauseBetween sums the stop-the-world pauses of the GC cycles that ran
// between two dumps (at most the 256 the runtime keeps).
func pauseBetween(a, b memStats) (cycles uint64, total time.Duration) {
	cycles = b.numGC - a.numGC
	n := cycles
	if n > uint64(len(b.pauseNs)) {
		n = uint64(len(b.pauseNs))
	}
	for g := b.numGC - n + 1; g <= b.numGC && len(b.pauseNs) > 0; g++ {
		total += time.Duration(b.pauseNs[(g+255)%256])
	}
	return cycles, total
}

var reAccess = regexp.MustCompile(`msg=request id=(\S+) .* durMs=(\S+)`)

// accessDurations reads the daemon's access log: request ID -> the
// daemon's own logged duration in ms.
func accessDurations(logPath string) (map[string]float64, error) {
	f, err := os.Open(logPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		m := reAccess.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		v, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, err
		}
		out[m[1]] = v
	}
	return out, sc.Err()
}
