package main

import (
	"bufio"
	"context"
	"errors"
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
)

// proc is one server child process. Children run in their own process
// group and die with the benchmark (Pdeathsig), so neither a crash nor a
// SIGKILL of the benchmark leaves a server behind.
type proc struct {
	name string
	addr string // host:port
	log  string
	pid  int
	done chan struct{}
	err  error // exit status, valid after done closes
}

func (p *proc) url() string { return "http://" + p.addr }

// freeAddr picks a free loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// start execs bin from the build directory with -addr addr and args,
// appending its stdout and stderr to logs/<name>.log.
func (e *env) start(name, bin, addr string, args ...string) (*proc, error) {
	logPath := filepath.Join(e.logDir, name+".log")
	f, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(e.o.bin, bin), append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = f, f
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		f.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, addr: addr, log: logPath, pid: cmd.Process.Pid, done: make(chan struct{})}
	e.mu.Lock()
	e.procs = append(e.procs, p)
	e.mu.Unlock()
	go func() {
		p.err = cmd.Wait()
		f.Close()
		close(p.done)
	}()
	return p, nil
}

// failed wraps err with the child's log path, the first place to look.
func (p *proc) failed(err error) error {
	return fmt.Errorf("%s: %w (log: %s)", p.name, err, p.log)
}

// alive reports an error once the child has exited.
func (p *proc) alive() error {
	select {
	case <-p.done:
		return p.failed(fmt.Errorf("exited unexpectedly: %v", p.err))
	default:
		return nil
	}
}

// waitHealthy polls path until it answers 200, the child exits, or 30 s
// pass. A server is ready within a few milliseconds of exec, so the polls
// are 50 µs apart: setup_s must not be a multiple of the interval.
func (e *env) waitHealthy(ctx context.Context, p *proc, path string) error {
	hc := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if err := p.alive(); err != nil {
			return err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.url()+path, nil)
		if err != nil {
			return err
		}
		if resp, err := hc.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return p.failed(errors.New("not healthy after 30s"))
		}
		if err := sleepUntil(ctx, time.Now().Add(50*time.Microsecond)); err != nil {
			return err
		}
	}
}

// stop sends SIGTERM to the child's process group and waits for the exit,
// escalating to SIGKILL after 15 s. A non-zero exit is an error.
func (p *proc) stop() error {
	syscall.Kill(-p.pid, syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(15 * time.Second):
		p.kill()
		return p.failed(errors.New("did not exit within 15s of SIGTERM"))
	}
	if p.err != nil {
		return p.failed(fmt.Errorf("exit after SIGTERM: %v", p.err))
	}
	return nil
}

// pause stops the process group of every running child, newest first, and
// returns the function that continues them oldest first: replicas before
// the router that probes them. A stopped child still dies with a SIGKILL,
// so every exit path's cleanup works while they are paused.
func (e *env) pause() (resume func()) {
	e.mu.Lock()
	var live []*proc
	for _, p := range e.procs {
		if p.alive() == nil {
			live = append(live, p)
		}
	}
	e.mu.Unlock()
	for i := len(live) - 1; i >= 0; i-- {
		syscall.Kill(-live[i].pid, syscall.SIGSTOP)
	}
	return func() {
		for _, p := range live {
			syscall.Kill(-p.pid, syscall.SIGCONT)
		}
	}
}

// kill SIGKILLs the child's process group and waits for the exit.
func (p *proc) kill() {
	syscall.Kill(-p.pid, syscall.SIGKILL)
	<-p.done
}

// peakRSS is the child's VmHWM in MB.
func (p *proc) peakRSS() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.pid))
	if err != nil {
		return 0, p.failed(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 3 && f[0] == "VmHWM:" { // "VmHWM: 1234 kB"
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, p.failed(err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, p.failed(errors.New("no VmHWM in /proc status"))
}

// cpuTime is the child's user plus system CPU time so far.
func (p *proc) cpuTime() (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.pid))
	if err != nil {
		return 0, p.failed(err)
	}
	// Fields after the parenthesized command name: state is field 3, so
	// utime (14) and stime (15) are at offsets 11 and 12.
	s := string(raw)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, p.failed(errors.New("short /proc stat"))
	}
	var ticks int64
	for _, f := range fields[11:13] {
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, p.failed(err)
		}
		ticks += n
	}
	const clockTick = 10 * time.Millisecond // USER_HZ is 100 on Linux
	return time.Duration(ticks) * clockTick, nil
}

// rss is the child's current resident set size in MB.
func (p *proc) rss() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/statm", p.pid))
	if err != nil {
		return 0, p.failed(err)
	}
	fields := strings.Fields(string(raw))
	if len(fields) < 2 {
		return 0, p.failed(errors.New("short /proc statm"))
	}
	pages, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return 0, p.failed(err)
	}
	return pages * float64(os.Getpagesize()) / 1e6, nil
}

// rssSample is the summed resident set of the serving processes, in MB,
// at t.
type rssSample struct {
	t  time.Time
	mb float64
}

// sampleRSS samples the summed resident set of ps every 20 ms until the
// returned function is called; that call returns the samples. A single
// peak (VmHWM) swings with garbage-collector timing; a high percentile of
// the samples repeats from run to run.
func sampleRSS(ps []*proc) func() []rssSample {
	quit := make(chan struct{})
	done := make(chan []rssSample)
	go func() {
		var out []rssSample
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				done <- out
				return
			case <-tick.C:
			}
			total := 0.0
			for _, p := range ps {
				mb, err := p.rss()
				if err != nil {
					total = -1
					break
				}
				total += mb
			}
			if total >= 0 {
				out = append(out, rssSample{time.Now(), total})
			}
		}
	}()
	return func() []rssSample {
		close(quit)
		return <-done
	}
}

// cpuTotal sums the CPU time of ps.
func cpuTotal(ps []*proc) (time.Duration, error) {
	var total time.Duration
	for _, p := range ps {
		d, err := p.cpuTime()
		if err != nil {
			return 0, err
		}
		total += d
	}
	return total, nil
}

func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// sleepUntil waits until at. On a process with nothing else to run, the
// runtime wakes a sleeping goroutine no sooner than about a millisecond
// after a shorter sleep began, which would add up to a millisecond to
// every open-loop send and every readiness poll. So the last two
// milliseconds are slept on the thread with nanosleep, which wakes within
// tens of microseconds.
func sleepUntil(ctx context.Context, at time.Time) error {
	const coarse = 2 * time.Millisecond
	if d := time.Until(at); d > coarse {
		if err := sleep(ctx, d-coarse); err != nil {
			return err
		}
	}
	for d := time.Until(at); d > 0; d = time.Until(at) {
		ts := syscall.NsecToTimespec(int64(d))
		// An interrupted nanosleep (EINTR from a runtime signal) just
		// goes round the loop again.
		_ = syscall.Nanosleep(&ts, nil)
	}
	return ctx.Err()
}
