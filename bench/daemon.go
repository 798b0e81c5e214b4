package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/version"
)

// daemon is one sirod subprocess on a loopback port.
type daemon struct {
	cmd    *exec.Cmd
	base   string        // http://127.0.0.1:port
	setup  time.Duration // exec → first 200 from /readyz
	stderr bytes.Buffer  // written by exec's copier; read only after done
	done   chan struct{} // closed once the process has been reaped
}

// startDaemon execs sirod with its default flags plus -addr and, when
// warm is non-empty, -warm for those pairs, and waits until /readyz
// answers 200. sirod synthesizes -warm pairs before it opens its
// listener, so the setup time includes that synthesis.
func startDaemon(bin string, warm []version.Pair) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := net.JoinHostPort("127.0.0.1", strconv.Itoa(port))
	args := []string{"-addr", addr}
	if len(warm) > 0 {
		specs := make([]string, len(warm))
		for i, p := range warm {
			specs[i] = p.Source.String() + ">" + p.Target.String()
		}
		args = append(args, "-warm", strings.Join(specs, ","))
	}
	d := &daemon{base: "http://" + addr, done: make(chan struct{})}
	d.cmd = exec.Command(bin, args...)
	d.cmd.Stderr = &d.stderr
	// If the benchmark dies, the kernel kills its daemon too. The
	// signal follows the forking thread, and no thread here exits early:
	// the only locked goroutine, the pacer, unlocks before it returns.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	probe := &http.Client{Timeout: time.Second}
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting sirod: %w", err)
	}
	go func() {
		_ = d.cmd.Wait() // the exit status is reported through stderr and done
		close(d.done)
	}()
	for {
		select {
		case <-d.done:
			return nil, fmt.Errorf("sirod exited before it was ready: %s", d.stderr.String())
		default:
		}
		if time.Since(start) > 2*time.Minute {
			d.stop()
			return nil, fmt.Errorf("sirod not ready after 2m")
		}
		if resp, err := probe.Get(d.base + "/readyz"); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.setup = time.Since(start)
				probe.CloseIdleConnections()
				return d, nil
			}
		}
		time.Sleep(time.Millisecond)
	}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("finding a free port: %w", err)
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// peakRSSMB reads the daemon's VmHWM (peak resident set) in MB.
func (d *daemon) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("reading sirod status: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}

// stop drains the daemon with SIGTERM, kills it if the drain hangs, and
// returns once the process has been reaped.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

// getJSON fetches a daemon endpoint into v.
func getJSON(ctx context.Context, hc *http.Client, url string, v any) error {
	body, err := get(ctx, hc, url)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("decoding %s: %w", url, err)
	}
	return nil
}

func get(ctx context.Context, hc *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return body, nil
}
