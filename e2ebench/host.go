package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// A shared host's speed drifts while other tenants load it: on the 2-vCPU
// host the README's ledger was measured on, second to second, and by up
// to a factor of two over minutes. Compute, cache and memory, page
// faults, loopback networking and the garbage collector all slow
// together, though not by the same amount. Time-based end-to-end metrics
// are therefore scaled to a reference host speed. The measured phase is
// cut into slices, and before each slice and after the last a fresh child
// process runs a fixed set of kernels, one per kind of resource; the host
// speed is the geometric mean of their rates relative to the reference
// host, and a slice's speed the mean of the timings around it. The kernels
// use only the standard library and run while the servers are stopped, so
// they measure the host and never the program. The raw values stay in the
// report as raw.<name>.

// calibrateEnv, when set, makes the process run every calibration kernel
// for that long, print the host speed and exit. The benchmark times the
// host in a fresh child so that its own heap and collector do not color
// the result.
const calibrateEnv = "E2EBENCH_CALIBRATE"

// kernel is one calibration kernel: op does one unit of work, and ref is
// the units per second reached on the 2-vCPU reference host while no other
// tenant is busy.
type kernel struct {
	name    string
	workers int // 0 = GOMAXPROCS
	ref     float64
	op      func(r *rand.Rand) error
	// setup, when set, prepares state op uses and returns its teardown.
	setup func() (func(), error)
}

var (
	shaInput [64 << 10]byte
	// chase is the memory kernel's table: a full-period pseudo-random
	// cycle over 64 MiB, far larger than the per-core caches.
	chase []uint32
	// echo is the loopback kernel's connection to an in-process echo
	// server.
	echo net.Conn
)

var kernels = []kernel{
	{name: "sha256", ref: 43000, op: func(*rand.Rand) error {
		sha256.Sum256(shaInput[:])
		return nil
	}},
	{name: "alloc", ref: 1600, op: func(r *rand.Rand) error {
		m := make(map[uint64]int, 1024)
		s := make([]uint64, 0, 4096)
		for i := 0; i < 4096; i++ {
			v := r.Uint64()
			m[v>>40] = i
			s = append(s, v)
		}
		slices.Sort(s)
		raw, err := json.Marshal(s[:2048])
		if err != nil {
			return err
		}
		var back []uint64
		return json.Unmarshal(raw, &back)
	}},
	{name: "gc", ref: 14000, op: func(*rand.Rand) error {
		tree(12)
		return nil
	}},
	{name: "memory", workers: 1, ref: 5400, op: func(*rand.Rand) error {
		j := uint32(1)
		for i := 0; i < 10000; i++ {
			j = chase[j]
		}
		runtime.KeepAlive(j)
		return nil
	}, setup: func() (func(), error) {
		const n = 16 << 20
		chase = make([]uint32, n)
		for i := range chase {
			chase[i] = uint32((uint64(i)*2654435761 + 12345) % n)
		}
		return func() { chase = nil }, nil
	}},
	{name: "faults", workers: 1, ref: 800, op: func(*rand.Rand) error {
		m, err := syscall.Mmap(-1, 0, 4<<20, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			return err
		}
		for i := 0; i < len(m); i += os.Getpagesize() {
			m[i] = 1
		}
		return syscall.Munmap(m)
	}},
	{name: "loopback", workers: 1, ref: 120000, op: func(*rand.Rand) error {
		var msg [1024]byte
		if _, err := echo.Write(msg[:]); err != nil {
			return err
		}
		_, err := io.ReadFull(echo, msg[:])
		return err
	}, setup: func() (func(), error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		go func() {
			if c, err := ln.Accept(); err == nil {
				io.Copy(c, c)
				c.Close()
			}
		}()
		if echo, err = net.Dial("tcp", ln.Addr().String()); err != nil {
			ln.Close()
			return nil, err
		}
		return func() { echo.Close(); ln.Close() }, nil
	}},
}

type treeNode struct {
	l, r *treeNode
	v    [4]uint64
}

// tree builds a complete binary tree of the given depth: allocation and
// pointers for the collector to trace.
func tree(depth int) *treeNode {
	if depth == 0 {
		return nil
	}
	return &treeNode{l: tree(depth - 1), r: tree(depth - 1)}
}

// calibrationChild runs the child side of hostSpeed when this process was
// started for it, and reports whether it was.
func calibrationChild() bool {
	v := os.Getenv(calibrateEnv)
	if v == "" {
		return false
	}
	d, err := time.ParseDuration(v)
	if err != nil || d <= 0 {
		fmt.Fprintf(os.Stderr, "e2ebench: bad %s=%q\n", calibrateEnv, v)
		os.Exit(2)
	}
	logSum := 0.0
	for _, k := range kernels {
		r, err := k.rate(d)
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: calibration kernel %s: %v\n", k.name, err)
			os.Exit(1)
		}
		logSum += math.Log(r / k.ref)
	}
	fmt.Println(math.Exp(logSum / float64(len(kernels))))
	return true
}

// rate runs k on its workers for d and returns units per second.
func (k kernel) rate(d time.Duration) (float64, error) {
	if k.setup != nil {
		teardown, err := k.setup()
		if err != nil {
			return 0, err
		}
		defer teardown()
	}
	workers := k.workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ops := make([]int, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for time.Since(start) < d && errs[w] == nil {
				errs[w] = k.op(r)
				ops[w]++
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for _, n := range ops {
		total += n
	}
	return float64(total) / time.Since(start).Seconds(), errors.Join(errs...)
}

// hostSpeed runs every calibration kernel for 75 ms (5 ms in the smoke
// test) in a child process and returns the host speed: 1 on the reference
// host, 0.5 on a host half as fast. The servers are stopped meanwhile, so
// that whatever they do between slices — a collection finishing, health
// checks, store compaction — runs in the next slice instead of slowing the
// kernels, where it would raise the host-scaled metrics and hide its cost.
func (e *env) hostSpeed(ctx context.Context) (float64, error) {
	resume := e.pause()
	defer resume()
	d := pick(e, 75*time.Millisecond, 5*time.Millisecond)
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), calibrateEnv+"="+d.String())
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("calibration: %w", err)
	}
	speed, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
	if err != nil {
		return 0, fmt.Errorf("calibration: %w", err)
	}
	return speed, nil
}
