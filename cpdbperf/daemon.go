package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// A daemon is a cpdbd child process listening on a loopback port.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	log    string // the daemon's standard error: its request log
	exited chan struct{}
	hc     *http.Client
}

// startDaemon runs bin on an ephemeral loopback port and waits until it
// answers /v1/ping. Its log goes to a file in dir.
func startDaemon(bin, dir string, args ...string) (*daemon, error) {
	if bin == "" {
		return nil, errors.New("the remote workload needs -cpdbd, the daemon binary")
	}
	logf, err := os.CreateTemp(dir, "cpdbd-*.log")
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0", "-shutdown-timeout", "5s"}, args...)...)
	pr, pw := io.Pipe()
	cmd.Stderr = io.MultiWriter(logf, pw)
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start cpdbd: %w", err)
	}
	d := &daemon{cmd: cmd, log: logf.Name(), exited: make(chan struct{}), hc: &http.Client{Timeout: 30 * time.Second}}
	go func() {
		cmd.Wait()
		pw.Close()
		logf.Close()
		close(d.exited)
	}()
	addr := make(chan string, 1)
	go func() {
		// Read the address from the "serving … at cpdb://ADDR" line, then
		// keep draining so the child never blocks on a full pipe.
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			if i := strings.Index(sc.Text(), " at cpdb://"); i >= 0 && strings.Contains(sc.Text(), "serving") {
				addr <- strings.TrimSpace(sc.Text()[i+len(" at cpdb://"):])
				break
			}
		}
		io.Copy(io.Discard, pr)
	}()
	select {
	case d.addr = <-addr:
	case <-d.exited:
		return nil, fmt.Errorf("cpdbd exited before serving (log in %s)", logf.Name())
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, errors.New("cpdbd did not report its address within 30s")
	}
	for deadline := time.Now().Add(30 * time.Second); ; {
		resp, err := d.hc.Get("http://" + d.addr + "/v1/ping")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("cpdbd at %s not ready: %v", d.addr, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop asks the daemon to shut down and waits until it has exited.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case <-d.exited:
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
	return nil
}

// stats fetches the daemon's /v1/stats counters.
func (d *daemon) stats(ctx context.Context) (map[string]int64, error) {
	body, err := d.get(ctx, "/v1/stats")
	if err != nil {
		return nil, err
	}
	var m map[string]int64
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, fmt.Errorf("decode /v1/stats: %w", err)
	}
	return m, nil
}

// metrics fetches /metrics and returns its samples keyed by the series
// line's name and labels, as printed ("cpdb_cache_hits_total{cache=\"page\"}").
func (d *daemon) metrics(ctx context.Context) (map[string]float64, error) {
	body, err := d.get(ctx, "/metrics")
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		if i := strings.Index(line, " # "); i >= 0 {
			line = line[:i] // drop an exemplar
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, nil
}

func (d *daemon) get(ctx context.Context, p string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+d.addr+p, nil)
	if err != nil {
		return nil, err
	}
	resp, err := d.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", p, resp.Status)
	}
	return body, nil
}

// peakRSSMB reads a process's peak resident set size (VmHWM) in MB.
func peakRSSMB(pid string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/" + pid + "/status")
}

func (d *daemon) peakRSSMB() (float64, error) { return peakRSSMB(strconv.Itoa(d.cmd.Process.Pid)) }
