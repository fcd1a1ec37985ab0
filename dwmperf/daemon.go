package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one dwmserved process started by the benchmark.
type daemon struct {
	cmd  *exec.Cmd
	log  *os.File
	base string // http://host:port
}

// readyPoll is how often startDaemon probes for the bound address and
// for /readyz; it bounds the error of the measured start-up time.
const readyPoll = 200 * time.Microsecond

// startDaemon starts dwmserved with a fresh journal under dir and
// default flags otherwise, except -events (0 turns tracing off). It
// returns once /readyz answers 200.
func startDaemon(ctx context.Context, bin, dir string, events int) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "dwmserved.log"))
	if err != nil {
		return nil, err
	}
	addrFile := filepath.Join(dir, "addr")
	cmd := exec.Command(filepath.Join(bin, "dwmserved"),
		"-addr", "127.0.0.1:0",
		"-addrfile", addrFile,
		"-journal", filepath.Join(dir, "journal"),
		"-events", fmt.Sprint(events))
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	d := &daemon{cmd: cmd, log: logf}
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	probe := &http.Client{Timeout: time.Second}
	for {
		if d.base == "" {
			if raw, err := os.ReadFile(addrFile); err == nil && strings.HasSuffix(string(raw), "\n") {
				d.base = "http://" + strings.TrimSpace(string(raw))
			}
		}
		if d.base != "" {
			if resp, err := probe.Get(d.base + "/readyz"); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					probe.CloseIdleConnections()
					return d, nil
				}
			}
		}
		select {
		case <-ctx.Done():
			d.kill()
			return nil, fmt.Errorf("dwmserved not ready: %w (log in %s)", ctx.Err(), logf.Name())
		case <-time.After(readyPoll):
		}
	}
}

// stop sends SIGTERM, waits for the graceful drain, and returns the
// process's peak resident set in MiB.
func (d *daemon) stop() (float64, error) {
	defer d.log.Close()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return 0, err
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(60 * time.Second):
		d.cmd.Process.Kill()
		<-done
		return 0, errors.New("dwmserved did not exit within 60s of SIGTERM")
	}
	if err != nil {
		return 0, fmt.Errorf("dwmserved: %w (log in %s)", err, d.log.Name())
	}
	return peakRSSMiB(d.cmd.ProcessState), nil
}

// kill ends the process without a drain; for error paths.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	d.cmd.Wait()
	d.log.Close()
}

// peakRSSMiB reads a finished child's peak resident set (Linux reports
// ru_maxrss in KiB).
func peakRSSMiB(ps *os.ProcessState) float64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat's
// CPU times; 100 on every Linux platform Go supports.
const clockTicks = 100

// cpuSeconds is the daemon's user plus system CPU time so far.
func (d *daemon) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th fields of the whole line.
	i := strings.LastIndexByte(string(raw), ')')
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", raw)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat line %q", raw)
	}
	return float64(ut+st) / clockTicks, nil
}

// get fetches path from the daemon with c and returns the body.
func (d *daemon) get(ctx context.Context, c *http.Client, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return body, nil
}

// metrics scrapes /metrics.
func (d *daemon) metrics(ctx context.Context, c *http.Client) (map[string]float64, error) {
	body, err := d.get(ctx, c, "/metrics")
	if err != nil {
		return nil, err
	}
	return parseExposition(string(body))
}
