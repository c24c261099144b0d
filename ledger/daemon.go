package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dynsum/internal/serve"
)

const (
	readyTimeout = 60 * time.Second
	drainTimeout = 60 * time.Second
)

// buildDynsumd compiles ./cmd/dynsumd from the checkout at root.
func buildDynsumd(root, dir string) (string, error) {
	bin, err := filepath.Abs(filepath.Join(dir, "dynsumd"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/dynsumd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build dynsumd: %v\n%s", err, out)
	}
	return bin, nil
}

// daemon is one running dynsumd process.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	stderr bytes.Buffer // written by the exec copier; read only after done
	done   chan struct{}
	err    error // the process's exit status, set before done closes
	// ctl carries readiness polls and /metrics reads; it never keeps a
	// connection idle, so it cannot hold up the daemon's drain.
	ctl *http.Client
}

// startDaemon launches dynsumd on the program file alone (plus a state
// directory when the workload persists) and waits until /readyz answers
// 200, polling every millisecond. It returns the time from exec to that
// first 200. The caller's heap is collected first so the launch measures
// dynsumd, not a GC pause in the poller.
func startDaemon(bin, pagPath, stateDir string) (*daemon, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	args := []string{"-addr", addr}
	if stateDir != "" {
		args = append(args, "-state-dir", stateDir)
	}
	args = append(args, pagPath)
	d := &daemon{
		cmd:  exec.Command(bin, args...),
		url:  "http://" + addr,
		done: make(chan struct{}),
		ctl:  &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 10 * time.Second},
	}
	d.cmd.Stderr = &d.stderr
	// Should the ledger itself be killed, take the daemon with it.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	runtime.GC()
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start dynsumd: %w", err)
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.done)
	}()
	for {
		select {
		case <-d.done:
			return nil, 0, fmt.Errorf("dynsumd exited before ready: %v\n%s", d.err, d.stderr.String())
		default:
		}
		if resp, err := d.ctl.Get(d.url + "/readyz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		if time.Since(start) > readyTimeout {
			d.kill()
			return nil, 0, fmt.Errorf("dynsumd not ready after %s\n%s", readyTimeout, d.stderr.String())
		}
		time.Sleep(time.Millisecond)
	}
}

// freeAddr picks a loopback port the kernel reports free.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// stop sends SIGTERM and waits for the process to exit, returning the
// drain time. The caller must have closed its idle client connections:
// http.Server.Shutdown waits for every open connection to go idle, and a
// keep-alive connection that was opened but never used holds it for
// seconds.
func (d *daemon) stop() (time.Duration, error) {
	start := time.Now()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return 0, fmt.Errorf("signal dynsumd: %w", err)
	}
	select {
	case <-d.done:
	case <-time.After(drainTimeout):
		d.kill()
		return 0, fmt.Errorf("dynsumd did not drain within %s", drainTimeout)
	}
	drain := time.Since(start)
	if d.err != nil {
		return drain, fmt.Errorf("dynsumd exited: %v\n%s", d.err, d.stderr.String())
	}
	return drain, nil
}

// kill ends the process, if still running, and waits for it.
func (d *daemon) kill() {
	select {
	case <-d.done:
	default:
		d.cmd.Process.Kill()
		<-d.done
	}
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func (d *daemon) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// metrics reads the daemon's /metrics snapshot.
func (d *daemon) metrics() (serve.MetricsSnapshot, error) {
	var snap serve.MetricsSnapshot
	resp, err := d.ctl.Get(d.url + "/metrics")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return snap, json.NewDecoder(resp.Body).Decode(&snap)
}
