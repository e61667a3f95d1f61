package main

import (
	"bufio"
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
	"sync"
	"syscall"
	"time"

	"repro/internal/client"
)

// daemon is one spawned wukongsd process.
type daemon struct {
	rank     int
	addr     string // line-protocol address
	wireAddr string // cluster wire address ("" for a single daemon)
	httpAddr string // -metrics-addr: /debug/pprof, /debug/traces, /healthz
	cmd      *exec.Cmd
	done     chan struct{} // closed once cmd.Wait has returned
	logPath  string
}

// fleet owns every daemon the benchmark starts. Its reap runs on every exit
// path: normal return, failed check, panic (main defers it) and SIGINT or
// SIGTERM (main's signal handler calls it). Daemons also get SIGKILL from the
// kernel if the benchmark process dies first (Pdeathsig).
type fleet struct {
	bin     string
	workdir string

	mu      sync.Mutex
	daemons []*daemon
	spawned int
}

// freeAddrs reserves n distinct loopback ports by binding them all at once
// and releasing them together, so one call never hands out a port twice.
func freeAddrs(n int) ([]string, error) {
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserving a loopback port: %w", err)
		}
		lns = append(lns, ln)
		out = append(out, ln.Addr().String())
	}
	return out, nil
}

// readyLine is what wukongsd prints right before it starts serving the line
// protocol; cluster daemons print it only after joining.
const readyLine = "-node engine listening on "

// spawn starts one daemon with the given extra flags (and a cluster wire
// address when clustered) and blocks until it announces readiness on its
// standard output. Tracing is off unless the caller's flags turn it on
// (later flags override earlier ones).
func (f *fleet) spawn(rank int, clustered bool, extra ...string) (*daemon, error) {
	addrs, err := freeAddrs(3)
	if err != nil {
		return nil, err
	}
	d := &daemon{rank: rank, addr: addrs[0], httpAddr: addrs[2], done: make(chan struct{})}
	args := []string{"-addr", d.addr, "-metrics-addr", d.httpAddr, "-trace-sample", "0", "-trace-slow", "0"}
	if clustered {
		d.wireAddr = addrs[1]
		args = append(args, "-listen", d.wireAddr)
	}
	args = append(args, extra...)

	f.mu.Lock()
	f.spawned++
	d.logPath = filepath.Join(f.workdir, fmt.Sprintf("daemon-%d-%d.log", os.Getpid(), f.spawned))
	f.mu.Unlock()
	logFile, err := os.Create(d.logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(f.bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL, Setpgid: true}
	cmd.Stderr = logFile
	out, err := cmd.StdoutPipe()
	if err != nil {
		logFile.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, err
	}
	d.cmd = cmd
	f.mu.Lock()
	f.daemons = append(f.daemons, d)
	f.mu.Unlock()

	// The copier owns the pipe until EOF; Wait runs after it so the pipe is
	// fully drained first.
	ready := make(chan struct{})
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(out)
		announced := false
		for sc.Scan() {
			fmt.Fprintln(logFile, sc.Text())
			if !announced && strings.Contains(sc.Text(), readyLine) {
				announced = true
				close(ready)
			}
		}
		io.Copy(logFile, out)
		cmd.Wait()
		logFile.Close()
	}()
	select {
	case <-ready:
	case <-d.done:
		return nil, fmt.Errorf("daemon %d exited before it was ready (log %s): %s", rank, d.logPath, tail(d.logPath))
	case <-time.After(60 * time.Second):
		return nil, fmt.Errorf("daemon %d not ready after 60s (log %s)", rank, d.logPath)
	}
	// The announcement precedes the listen call by a few instructions, so
	// the first dials may still be refused; bridge that gap only.
	deadline := time.Now().Add(5 * time.Second)
	for {
		c, err := net.DialTimeout("tcp", d.addr, time.Second)
		if err == nil {
			c.Close()
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("daemon %d announced readiness but %s refuses connections: %w", rank, d.addr, err)
		}
		time.Sleep(time.Millisecond)
	}
	return d, nil
}

// tail returns the last lines of a log for error messages.
func tail(path string) string {
	b, _ := os.ReadFile(path)
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) > 5 {
		lines = lines[len(lines)-5:]
	}
	return strings.Join(lines, " | ")
}

// stop kills one daemon and waits until it has exited.
func (f *fleet) stop(d *daemon) {
	if d == nil || d.cmd == nil || d.cmd.Process == nil {
		return
	}
	d.cmd.Process.Kill()
	<-d.done
}

// reap stops every daemon still running and waits for each. With keepLogs
// false (a run that succeeded) the daemons' logs are removed too.
func (f *fleet) reap(keepLogs bool) {
	f.mu.Lock()
	ds := f.daemons
	f.daemons = nil
	f.mu.Unlock()
	for _, d := range ds {
		f.stop(d)
		if !keepLogs {
			os.Remove(d.logPath)
		}
	}
}

// dial opens a client connection with the default options users run.
func (d *daemon) dial() (*client.Client, error) {
	return client.Dial(d.addr)
}

// procCPU returns the daemon's user+system CPU time from /proc/<pid>/stat.
func (d *daemon) procCPU() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc stat %q", s)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat %q", s)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad utime/stime in %q", s)
	}
	const clkTck = 100 // USER_HZ on Linux
	return time.Duration(ut+st) * time.Second / clkTck, nil
}

// hostCPU reads the host's CPU time counters from /proc/stat: steal (time
// the hypervisor gave the host's CPUs to other tenants) and the total.
func hostCPU() (steal, total int64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("malformed /proc/stat line %q", line)
	}
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseInt(f[i], 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("malformed /proc/stat line %q", line)
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total, nil
}

// memStats are the runtime.MemStats lines of /debug/pprof/heap?debug=1.
type memStats struct {
	Mallocs   int64
	HeapAlloc int64
	NumGC     int64
}

var memLine = regexp.MustCompile(`^# (Mallocs|HeapAlloc|NumGC) = (\d+)`)

// heap reads the daemon's runtime memory statistics. gc forces a collection
// first, so HeapAlloc is the live heap.
func (d *daemon) heap(gc bool) (memStats, error) {
	url := "http://" + d.httpAddr + "/debug/pprof/heap?debug=1"
	if gc {
		url += "&gc=1"
	}
	hc := http.Client{Timeout: 30 * time.Second}
	resp, err := hc.Get(url)
	if err != nil {
		return memStats{}, err
	}
	defer resp.Body.Close()
	var ms memStats
	seen := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		m := memLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		v, _ := strconv.ParseInt(m[2], 10, 64)
		switch m[1] {
		case "Mallocs":
			ms.Mallocs = v
		case "HeapAlloc":
			ms.HeapAlloc = v
		case "NumGC":
			ms.NumGC = v
		}
		seen++
	}
	if err := sc.Err(); err != nil {
		return memStats{}, err
	}
	if seen < 3 {
		return memStats{}, fmt.Errorf("heap profile of daemon %d lacks runtime.MemStats", d.rank)
	}
	return ms, nil
}

// metrics reads the daemon's METRICS registry into series name → value
// (histogram buckets are skipped; _sum and _count are kept).
func (d *daemon) metrics() (map[string]float64, error) {
	c, err := d.dial()
	if err != nil {
		return nil, err
	}
	defer c.Close()
	lines, err := c.Metrics()
	if err != nil {
		return nil, err
	}
	return parseProm(lines), nil
}

func parseProm(lines []string) map[string]float64 {
	out := make(map[string]float64, len(lines))
	for _, l := range lines {
		if strings.HasPrefix(l, "#") {
			continue
		}
		sp := strings.LastIndexByte(l, ' ')
		if sp < 0 {
			continue
		}
		name := l[:sp]
		if strings.Contains(name, "_bucket{") || strings.HasSuffix(name, "_bucket") {
			continue
		}
		v, err := strconv.ParseFloat(l[sp+1:], 64)
		if err != nil {
			continue
		}
		out[strings.TrimPrefix(name, "wukongs_")] = v
	}
	return out
}
