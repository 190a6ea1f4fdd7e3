package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Client spans carry the
// X-Funseeker-Request-Id they sent as their ID; the server spans joined
// from the access logs name it as their parent.
type span struct {
	ID     string `json:"id"`
	Parent string `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run began
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; write saves them once at the end of a
// traced run. Recording starts with the traced phase.
type tracer struct {
	t0 time.Time
	mu sync.Mutex
	on bool
	n  int64
	// spans is the recorded set.
	spans []span
}

func (t *tracer) enable() {
	t.mu.Lock()
	t.on = true
	t.mu.Unlock()
}

// add records a span when tracing is on and returns its ID (id, or a
// fresh one when id is empty).
func (t *tracer) add(name, id, parent string, start, end time.Time) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return ""
	}
	if id == "" {
		t.n++
		id = fmt.Sprintf("s%d", t.n)
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	raw, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// layerSelf is one span name's total and self time: a span's self time is
// its duration minus the part its child spans cover.
type layerSelf struct {
	Count  int64   `json:"count"`
	SelfMS float64 `json:"self_ms"`
	MeanUS float64 `json:"mean_self_us"`
}

func (t *tracer) selfTimes() map[string]layerSelf {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[string][]span{}
	for _, s := range t.spans {
		if s.Parent != "" {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]layerSelf{}
	for _, s := range t.spans {
		self := s.End - s.Start - covered(s, children[s.ID])
		l := out[s.Name]
		l.Count++
		l.SelfMS += float64(self) / 1e6
		out[s.Name] = l
	}
	for n, l := range out {
		l.MeanUS = l.SelfMS * 1000 / float64(l.Count)
		out[n] = l
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	return total + curHi - curLo
}

func printLayers(w io.Writer, layers map[string]layerSelf) {
	names := make([]string, 0, len(layers))
	for n := range layers {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "  %-24s %10s %14s %14s\n", "span (self time)", "count", "total ms", "mean us")
	for _, n := range names {
		l := layers[n]
		fmt.Fprintf(w, "  %-24s %10d %14.3f %14.3f\n", n, l.Count, l.SelfMS, l.MeanUS)
	}
}

// handlerSpans reads a funseekerd JSON access log and returns each request
// ID's handler interval (from the log line's time and duration), for IDs
// with the given prefix.
func handlerSpans(path, prefix string) (map[string][2]time.Time, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][2]time.Time{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if !strings.Contains(string(line), prefix) {
			continue
		}
		var rec struct {
			Time       time.Time `json:"time"`
			Msg        string    `json:"msg"`
			RequestID  string    `json:"request_id"`
			DurationMS float64   `json:"duration_ms"`
		}
		if json.Unmarshal(line, &rec) != nil || rec.Msg != "request" || !strings.HasPrefix(rec.RequestID, prefix) {
			continue
		}
		d := time.Duration(rec.DurationMS * float64(time.Millisecond))
		out[rec.RequestID] = [2]time.Time{rec.Time.Add(-d), rec.Time}
	}
	return out, sc.Err()
}
