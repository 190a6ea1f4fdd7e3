package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/funseeker/funseeker/internal/obs"
)

// client is the benchmark's one HTTP client. Its transport opens at most
// nproc connections per server, so load never comes from more connections
// than the host has CPUs.
type client struct {
	hc     *http.Client
	prefix string
	ids    atomic.Int64
}

func newClient(conns int, prefix string) *client {
	tr := &http.Transport{
		DialContext:           (&net.Dialer{Timeout: 5 * time.Second, KeepAlive: 30 * time.Second}).DialContext,
		MaxConnsPerHost:       conns,
		MaxIdleConnsPerHost:   conns,
		IdleConnTimeout:       90 * time.Second,
		ResponseHeaderTimeout: 60 * time.Second,
		DisableCompression:    true,
	}
	return &client{hc: &http.Client{Transport: tr}, prefix: prefix}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func (c *client) nextID() string { return c.prefix + "-" + strconv.FormatInt(c.ids.Add(1), 10) }

// answer is the part of a funseekerd analysis response the benchmark
// checks.
type answer struct {
	SHA256  string   `json:"sha256"`
	Cached  any      `json:"cached"`
	Entries []uint64 `json:"entries"`
}

// cached returns the response's cache source, or "" for a fresh analysis.
func (a *answer) cached() string {
	s, _ := a.Cached.(string)
	return s
}

// exchange is one timed request.
type exchange struct {
	id         string
	start, end time.Time
}

// analyze POSTs it to base/v1/analyze?config=n and decodes the answer.
func (c *client) analyze(ctx context.Context, base string, it *item, config int) (*answer, exchange, error) {
	x := exchange{id: c.nextID()}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		base+"/v1/analyze?config="+strconv.Itoa(config), bytes.NewReader(it.raw))
	if err != nil {
		return nil, x, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set(obs.RequestIDHeader, x.id)
	x.start = time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, x, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	x.end = time.Now()
	if err != nil {
		return nil, x, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, x, fmt.Errorf("analyze %s: status %d: %.200s", it.name, resp.StatusCode, body)
	}
	var a answer
	if err := json.Unmarshal(body, &a); err != nil {
		return nil, x, fmt.Errorf("analyze %s: %w", it.name, err)
	}
	return &a, x, nil
}

// getJSON GETs url into v.
func (c *client) getJSON(ctx context.Context, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// checkStat is one correctness check's tally.
type checkStat struct {
	Ran    int64  `json:"ran"`
	Failed int64  `json:"failed"`
	First  string `json:"first_failure,omitempty"`
}

// checks tallies named correctness checks; any failure makes the run
// incorrect.
type checks struct {
	mu sync.Mutex
	m  map[string]*checkStat
}

func newChecks() *checks { return &checks{m: map[string]*checkStat{}} }

// expect records one evaluation of check name; detail is only called on
// failure.
func (c *checks) expect(name string, ok bool, detail func() string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.m[name]
	if s == nil {
		s = &checkStat{}
		c.m[name] = s
	}
	s.Ran++
	if !ok {
		s.Failed++
		if s.First == "" {
			s.First = detail()
		}
	}
}

func (c *checks) snapshot() map[string]*checkStat {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]*checkStat, len(c.m))
	for k, v := range c.m {
		cp := *v
		out[k] = &cp
	}
	return out
}

type answerKey struct {
	it     *item
	config int
}

// scorer checks answers against the benchmark's own hashes and the
// generators' ground truth. The entry counts are kept per configuration
// and count each distinct (binary, config) answer once; later answers for
// the same key must repeat it.
type scorer struct {
	checks *checks

	mu     sync.Mutex
	first  map[answerKey][]uint64
	counts map[int]*[3]int64 // config → TP, FP, FN
}

func (s *scorer) score(it *item, config int, a *answer) {
	s.checks.expect("sha256", a.SHA256 == it.sumHex, func() string {
		return fmt.Sprintf("%s: answered sha256 %s, body hashes to %s", it.name, a.SHA256, it.sumHex)
	})
	k := answerKey{it, config}
	s.mu.Lock()
	prev, seen := s.first[k]
	if !seen {
		s.first[k] = a.Entries
		c := s.counts[config]
		if c == nil {
			c = &[3]int64{}
			s.counts[config] = c
		}
		tp, fp, fn := compareEntries(a.Entries, it.truth)
		c[0], c[1], c[2] = c[0]+tp, c[1]+fp, c[2]+fn
	}
	s.mu.Unlock()
	if !seen {
		s.checks.expect("ground-truth", slices.IsSorted(a.Entries), func() string {
			return it.name + ": entries not sorted"
		})
		return
	}
	s.checks.expect("stable-answers", slices.Equal(prev, a.Entries), func() string {
		return fmt.Sprintf("%s config %d: answer changed between requests", it.name, config)
	})
}

// record sets f1_pct, the entry F1 in percent over the distinct answers at
// the workload's primary config, and per-config F1 and counts as
// diagnostics. Other configs' answer counts depend on how far a
// time-bounded phase got, so they stay out of the gated metric.
func (s *scorer) record(e *env, primary int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for config, c := range s.counts {
		f1 := 0.0
		if c[0] > 0 {
			f1 = 100 * 2 * float64(c[0]) / float64(2*c[0]+c[1]+c[2])
		}
		tag := fmt.Sprintf("gt.config%d.", config)
		e.set(tag+"f1_pct", f1, "%")
		e.set(tag+"tp", float64(c[0]), "count")
		e.set(tag+"fp", float64(c[1]), "count")
		e.set(tag+"fn", float64(c[2]), "count")
		if config == primary {
			e.set("f1_pct", f1, "%")
		}
	}
}

// compareEntries counts true positives, false positives and false
// negatives of the sorted found list against the sorted truth list.
func compareEntries(found, truth []uint64) (tp, fp, fn int64) {
	i, j := 0, 0
	for i < len(found) && j < len(truth) {
		switch {
		case found[i] == truth[j]:
			tp++
			i++
			j++
		case found[i] < truth[j]:
			fp++
			i++
		default:
			fn++
			j++
		}
	}
	return tp, fp + int64(len(found)-i), fn + int64(len(truth)-j)
}

// samples collects per-operation latencies in milliseconds.
type samples struct {
	mu sync.Mutex
	ms []float64
}

func (s *samples) add(d time.Duration) {
	s.mu.Lock()
	s.ms = append(s.ms, float64(d)/float64(time.Millisecond))
	s.mu.Unlock()
}

// addAll adds every sample of o.
func (s *samples) addAll(o *samples) {
	o.mu.Lock()
	ms := slices.Clone(o.ms)
	o.mu.Unlock()
	s.mu.Lock()
	s.ms = append(s.ms, ms...)
	s.mu.Unlock()
}

func (s *samples) quantile(q float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return quantileOf(s.ms, q)
}

func (s *samples) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ms)
}

// quantileOf is the linearly interpolated q-quantile of xs.
func quantileOf(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
