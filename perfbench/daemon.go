package main

import (
	"bytes"
	"context"
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
	"sync"
	"syscall"
	"time"

	"physched/client"
)

// daemon is one booted physchedd process with its own fresh cache and
// state directories.
type daemon struct {
	cmd      *exec.Cmd
	stateDir string
	tap      *tap
	api      *client.Client
	deadline time.Time     // requests to this daemon give up at this time
	exited   chan struct{} // closed when the process has exited
	waitErr  error
	log      *os.File
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon execs bin the way the README deploys physchedd: an
// on-disk result cache (unless memCache) and a job state directory, both
// fresh under dir, and one pool worker per CPU. It returns once /healthz
// answers.
func startDaemon(bin, dir string, memCache bool, deadline time.Time) (*daemon, error) {
	d := &daemon{stateDir: filepath.Join(dir, "state"), deadline: deadline, exited: make(chan struct{})}
	if err := os.MkdirAll(d.stateDir, 0o755); err != nil {
		return nil, err
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	d.log, err = os.Create(filepath.Join(dir, "physchedd.log"))
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	args := []string{"-addr", addr, "-state-dir", d.stateDir, "-parallel", strconv.Itoa(runtime.NumCPU())}
	if !memCache {
		args = append(args, "-cache-dir", filepath.Join(dir, "cache"))
	}
	d.cmd = exec.Command(bin, args...)
	d.cmd.Stdout = d.log
	d.cmd.Stderr = d.log
	if err := d.cmd.Start(); err != nil {
		d.log.Close()
		return nil, err
	}
	go func() {
		d.waitErr = d.cmd.Wait()
		d.log.Close()
		close(d.exited)
	}()
	d.tap = &tap{base: &http.Transport{MaxIdleConnsPerHost: 4}}
	d.api = client.New("http://"+addr, client.WithHTTPClient(&http.Client{Transport: d.tap}))
	boot := time.Now().Add(20 * time.Second)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		err := d.api.Health(ctx)
		cancel()
		if err == nil {
			return d, nil
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("physchedd exited during boot: %v (log %s)", d.waitErr, d.log.Name())
		default:
		}
		if time.Now().After(boot) {
			d.kill()
			return nil, fmt.Errorf("physchedd did not answer /healthz within 20s: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// alive reports whether the process is still running.
func (d *daemon) alive() bool {
	select {
	case <-d.exited:
		return false
	default:
		return true
	}
}

// stop shuts the daemon down with SIGTERM, as an operator would, and
// waits for it. A daemon that had already died, or that exits unclean,
// is an error: the run then cannot vouch for its numbers.
func (d *daemon) stop() error {
	if !d.alive() {
		return fmt.Errorf("physchedd exited before the benchmark stopped it: %v", d.waitErr)
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(30 * time.Second):
		d.kill()
		return errors.New("physchedd did not exit within 30s of SIGTERM")
	}
	if d.waitErr != nil {
		return fmt.Errorf("physchedd shutdown was not clean: %v", d.waitErr)
	}
	return nil
}

// kill ends the process unconditionally and waits for it.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.exited
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux architecture Go supports.
const clockTicks = 100

// cpuSeconds reads the process's user+system CPU time.
func (d *daemon) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := string(b[bytes.LastIndexByte(b, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat line")
	}
	return (ut + st) / clockTicks, nil
}

// peakRSSMB reads VmHWM, the process's peak resident set size.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// tap is the client's transport: it keeps the raw bytes of the most
// recent response body, so the harness checks the exact terminal line
// the daemon wrote rather than a re-encoding of the client's decoded
// value. For the self-test it can corrupt one response in flight.
type tap struct {
	base http.RoundTripper

	mu        sync.Mutex
	body      bytes.Buffer
	responses int // answers that end in a terminal line
	corruptAt int // 1-based answer number to corrupt; 0 = never
}

// corruptNext arranges for the k-th answer from now to be corrupted.
func (t *tap) corruptNext(k int) {
	t.mu.Lock()
	t.corruptAt = t.responses + k
	t.mu.Unlock()
}

func (t *tap) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(r)
	if err != nil {
		return resp, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.body.Reset()
	if r.URL.Path != "/v1/grids" && !strings.HasSuffix(r.URL.Path, "/stream") {
		return resp, nil
	}
	t.responses++
	if t.responses == t.corruptAt {
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		corruptLastLine(b)
		resp.Body = io.NopCloser(bytes.NewReader(b))
	}
	resp.Body = &tee{rc: resp.Body, t: t}
	return resp, nil
}

// tee records everything read from a response body into its tap.
type tee struct {
	rc io.ReadCloser
	t  *tap
}

func (e *tee) Read(p []byte) (int, error) {
	n, err := e.rc.Read(p)
	e.t.mu.Lock()
	e.t.body.Write(p[:n])
	e.t.mu.Unlock()
	return n, err
}

func (e *tee) Close() error { return e.rc.Close() }

// lastLine returns a copy of the last complete NDJSON line of the most
// recent response, without its newline.
func (t *tap) lastLine() []byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	b := bytes.TrimRight(t.body.Bytes(), "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		b = b[i+1:]
	}
	return bytes.Clone(b)
}

// corruptLastLine changes the last digit of the body's last line to
// another digit: the line stays valid JSON, so only a byte-level check
// of the answer can catch it.
func corruptLastLine(b []byte) {
	end := len(bytes.TrimRight(b, "\n"))
	start := bytes.LastIndexByte(b[:end], '\n') + 1
	for i := end - 1; i >= start; i-- {
		if c := b[i]; c >= '0' && c <= '9' {
			b[i] = '0' + (c-'0'+1)%10
			return
		}
	}
}
