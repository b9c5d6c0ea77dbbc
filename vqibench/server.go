package main

// The vqiserve process under test: boot on a loopback port, wait for
// readiness, scrape /metrics, read its peak RSS, stop it.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
)

type serverProc struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	logPath string
	done    chan error
	ready   time.Duration // exec to first 200 from /readyz
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startServer execs vqiserve with args plus a loopback -addr and waits
// until /readyz answers 200.
func startServer(bin, logPath string, args []string) (*serverProc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, append(args, "-addr", addr)...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	// The server dies with the benchmark, even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	p := &serverProc{cmd: cmd, base: "http://" + addr, logPath: logPath, done: make(chan error, 1)}
	go func() { p.done <- cmd.Wait(); logf.Close() }()
	client := &http.Client{Timeout: time.Second}
	deadline := start.Add(60 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-p.done:
			p.done <- err
			return nil, fmt.Errorf("vqiserve exited during boot (%v); log %s:\n%s", err, logPath, tail(logPath))
		default:
		}
		resp, err := client.Get(p.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				p.ready = time.Since(start)
				client.CloseIdleConnections()
				return p, nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	p.kill()
	return nil, fmt.Errorf("vqiserve not ready after 60s; log %s:\n%s", logPath, tail(logPath))
}

func tail(path string) string {
	b, _ := os.ReadFile(path)
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// peakRSSMB reads VmHWM of the live process.
func (p *serverProc) peakRSSMB() float64 {
	return vmHWM(p.cmd.Process.Pid)
}

func vmHWM(pid int) float64 {
	f, err := os.Open(filepath.Join("/proc", strconv.Itoa(pid), "status"))
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "VmHWM:") {
			fs := strings.Fields(line)
			kb, _ := strconv.ParseFloat(fs[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// stop sends SIGTERM (graceful drain) and waits for the exit.
func (p *serverProc) stop() error {
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-p.done:
		return err
	case <-time.After(20 * time.Second):
		p.kill()
		return fmt.Errorf("vqiserve did not drain within 20s")
	}
}

// kill sends SIGKILL and waits for the exit.
func (p *serverProc) kill() {
	p.cmd.Process.Kill()
	<-p.done
}

// metrics scrapes /metrics as an obs.Snapshot.
func (p *serverProc) metrics() (obs.Snapshot, error) {
	var snap obs.Snapshot
	resp, err := http.Get(p.base + "/metrics")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return snap, err
	}
	err = json.NewDecoder(bytes.NewReader(body)).Decode(&snap)
	return snap, err
}

// metricDelta is the per-layer view of two /metrics scrapes: counter and
// gauge differences plus histogram count/sum differences.
type metricDelta struct {
	before, after obs.Snapshot
}

func labelsMatch(have map[string]string, kv []string) bool {
	if len(have) != len(kv)/2 {
		return false
	}
	for i := 0; i+1 < len(kv); i += 2 {
		if have[kv[i]] != kv[i+1] {
			return false
		}
	}
	return true
}

func counterValue(s obs.Snapshot, name string, kv ...string) float64 {
	for _, c := range s.Counters {
		if c.Name == name && labelsMatch(c.Labels, kv) {
			return float64(c.Value)
		}
	}
	for _, g := range s.Gauges {
		if g.Name == name && labelsMatch(g.Labels, kv) {
			return g.Value
		}
	}
	return 0
}

// sumCounters adds every series of a family regardless of labels.
func sumCounters(s obs.Snapshot, name string) float64 {
	t := 0.0
	for _, c := range s.Counters {
		if c.Name == name {
			t += float64(c.Value)
		}
	}
	return t
}

func histValue(s obs.Snapshot, name string, kv ...string) (count, sum float64) {
	for _, h := range s.Histograms {
		if h.Name == name && labelsMatch(h.Labels, kv) {
			return float64(h.Count), h.Sum
		}
	}
	return 0, 0
}

func (d metricDelta) counter(name string, kv ...string) float64 {
	return counterValue(d.after, name, kv...) - counterValue(d.before, name, kv...)
}

func (d metricDelta) family(name string) float64 {
	return sumCounters(d.after, name) - sumCounters(d.before, name)
}

func (d metricDelta) hist(name string, kv ...string) (count, sum float64) {
	c1, s1 := histValue(d.after, name, kv...)
	c0, s0 := histValue(d.before, name, kv...)
	return c1 - c0, s1 - s0
}

// cacheHitRatio is hits/(hits+misses) of a vqiserve_<prefix>_* gauge
// family over the delta, 0 when the cache saw no lookups.
func (d metricDelta) cacheHitRatio(prefix string) float64 {
	h := d.counter("vqiserve_" + prefix + "_hits")
	m := d.counter("vqiserve_" + prefix + "_misses")
	if h+m == 0 {
		return 0
	}
	return h / (h + m)
}
