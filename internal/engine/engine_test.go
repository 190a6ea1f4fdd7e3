package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/funseeker/funseeker/internal/core"
	"github.com/funseeker/funseeker/internal/corpus"
	"github.com/funseeker/funseeker/internal/elfx"
	"github.com/funseeker/funseeker/internal/obs"
	"github.com/funseeker/funseeker/internal/synth"
	"github.com/funseeker/funseeker/internal/x86"
)

// testBinaries compiles n small distinct CET binaries once per process.
var testBinariesMu sync.Mutex
var testBinariesCache = map[int][][]byte{}

func testBinaries(tb testing.TB, n int) [][]byte {
	tb.Helper()
	testBinariesMu.Lock()
	defer testBinariesMu.Unlock()
	if got, ok := testBinariesCache[n]; ok {
		return got
	}
	specs := corpus.Generate(corpus.Coreutils, corpus.Options{Scale: 0.1, Seed: 77, Programs: n})
	if len(specs) < n {
		tb.Fatalf("corpus generated %d specs, want %d", len(specs), n)
	}
	cfg := synth.Config{Compiler: synth.GCC, Mode: x86.Mode64, Opt: synth.O2}
	out := make([][]byte, n)
	for i := 0; i < n; i++ {
		res, err := synth.Compile(specs[i], cfg)
		if err != nil {
			tb.Fatalf("compile: %v", err)
		}
		out[i] = res.Stripped
	}
	testBinariesCache[n] = out
	return out
}

func TestAnalyzeCacheHit(t *testing.T) {
	raw := testBinaries(t, 1)[0]
	e := New(Config{Jobs: 2})

	first, err := e.Analyze(context.Background(), raw, core.Config4)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheSource != "" {
		t.Fatal("first analysis claims to be cached")
	}
	if len(first.Answer.Entries) == 0 {
		t.Fatal("no entries identified")
	}

	second, err := e.Analyze(context.Background(), raw, core.Config4)
	if err != nil {
		t.Fatal(err)
	}
	if second.CacheSource == "" {
		t.Fatal("identical bytes were re-analyzed instead of served from cache")
	}
	if second.Answer != first.Answer {
		t.Fatal("cache returned a different answer value")
	}
	if second.SHA256 != first.SHA256 || len(second.SHA256) != 64 {
		t.Fatalf("hash mismatch: %q vs %q", second.SHA256, first.SHA256)
	}

	st := e.Stats()
	if st.Cache.Misses != 1 || st.Cache.Hits != 1 || st.Engine.Analyzed != 1 {
		t.Fatalf("stats = misses %d hits %d analyzed %d, want 1/1/1", st.Cache.Misses, st.Cache.Hits, st.Engine.Analyzed)
	}
	if st.Engine.Analysis.Sweep.Computes != 1 {
		t.Fatalf("aggregate sweep computes = %d, want 1", st.Engine.Analysis.Sweep.Computes)
	}
}

func TestAnalyzeOptionsKeyedSeparately(t *testing.T) {
	raw := testBinaries(t, 1)[0]
	e := New(Config{Jobs: 2})
	ctx := context.Background()

	if _, err := e.Analyze(ctx, raw, core.Config1); err != nil {
		t.Fatal(err)
	}
	r4, err := e.Analyze(ctx, raw, core.Config4)
	if err != nil {
		t.Fatal(err)
	}
	if r4.CacheSource != "" {
		t.Fatal("different options must not share a cache entry")
	}
	if st := e.Stats(); st.Cache.Misses != 2 {
		t.Fatalf("misses = %d, want 2", st.Cache.Misses)
	}
}

func TestAnalyzeNotELF(t *testing.T) {
	e := New(Config{})
	_, err := e.Analyze(context.Background(), []byte("definitely not an ELF image"), core.Config4)
	if !errors.Is(err, elfx.ErrNotELF) {
		t.Fatalf("err = %v, want ErrNotELF", err)
	}
	if st := e.Stats(); st.Engine.Failures != 1 {
		t.Fatalf("failures = %d, want 1", st.Engine.Failures)
	}
}

func TestAnalyzePreCanceled(t *testing.T) {
	raw := testBinaries(t, 1)[0]
	e := New(Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Analyze(ctx, raw, core.Config4); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	st := e.Stats()
	if st.Engine.Canceled == 0 {
		t.Fatal("canceled counter not incremented")
	}
	if st.Engine.Analyzed != 0 {
		t.Fatalf("canceled request still analyzed %d binaries", st.Engine.Analyzed)
	}
}

// TestConcurrentCacheHammer drives the LRU from many goroutines with a
// budget small enough to force evictions; run with -race this exercises
// every lock in the engine.
func TestConcurrentCacheHammer(t *testing.T) {
	bins := testBinaries(t, 4)

	// Budget for roughly two of the four reports: constant churn.
	probe := New(Config{Jobs: 2})
	r, err := probe.Analyze(context.Background(), bins[0], core.Config4)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Config{Jobs: 4, CacheBytes: 2 * entrySize(r.Answer)})

	const goroutines = 16
	const iters = 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < iters; i++ {
				raw := bins[rng.Intn(len(bins))]
				res, err := e.Analyze(context.Background(), raw, core.Config4)
				if err != nil {
					errs <- fmt.Errorf("goroutine %d iter %d: %w", g, i, err)
					return
				}
				if len(res.Answer.Entries) == 0 {
					errs <- fmt.Errorf("goroutine %d iter %d: empty report", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := e.Stats()
	total := st.Cache.Hits + st.Cache.Misses + st.Engine.Coalesced
	if total != goroutines*iters {
		t.Fatalf("hits %d + misses %d + coalesced %d = %d, want %d",
			st.Cache.Hits, st.Cache.Misses, st.Engine.Coalesced, total, goroutines*iters)
	}
	if st.Cache.Misses < 4 {
		t.Fatalf("misses = %d, want at least one per distinct binary", st.Cache.Misses)
	}
	if st.Cache.Evictions == 0 {
		t.Fatal("no evictions despite an undersized budget")
	}
	if st.Cache.Bytes > st.Cache.Capacity {
		t.Fatalf("cache size %d exceeds capacity %d", st.Cache.Bytes, st.Cache.Capacity)
	}
	if st.Engine.InFlight != 0 {
		t.Fatalf("in-flight = %d after quiesce", st.Engine.InFlight)
	}
}

func TestFilesBatch(t *testing.T) {
	bins := testBinaries(t, 3)
	dir := t.TempDir()

	// A nested corpus layout with non-ELF clutter that the walk must skip.
	sub := filepath.Join(dir, "corpus", "gcc-O2")
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	var want []string
	for i, raw := range bins[:2] {
		p := filepath.Join(sub, fmt.Sprintf("prog%d", i))
		if err := os.WriteFile(p, raw, 0o755); err != nil {
			t.Fatal(err)
		}
		want = append(want, p)
	}
	if err := os.WriteFile(filepath.Join(sub, "prog0.gt.json"), []byte(`{"entries":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	// One explicitly-named file outside the directory.
	solo := filepath.Join(dir, "solo")
	if err := os.WriteFile(solo, bins[2], 0o755); err != nil {
		t.Fatal(err)
	}

	paths, err := Expand([]string{filepath.Join(dir, "corpus"), solo})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 3 {
		t.Fatalf("Expand found %d files (%v), want 3", len(paths), paths)
	}

	e := New(Config{Jobs: 4})
	var got []string
	err = e.Files(context.Background(), paths, core.Config4, func(fr FileResult) error {
		if fr.Err != nil {
			return fr.Err
		}
		if len(fr.Result.Answer.Entries) == 0 {
			return fmt.Errorf("%s: empty report", fr.Path)
		}
		got = append(got, fr.Path)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(paths) {
		t.Fatalf("delivered %d results, want %d", len(got), len(paths))
	}
	for i := range got {
		if got[i] != paths[i] {
			t.Fatalf("out-of-order delivery: got[%d] = %s, want %s", i, got[i], paths[i])
		}
	}
}

func TestFilesPerFileErrorDoesNotAbort(t *testing.T) {
	bins := testBinaries(t, 1)
	dir := t.TempDir()
	good := filepath.Join(dir, "good")
	bad := filepath.Join(dir, "bad")
	if err := os.WriteFile(good, bins[0], 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bad, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}

	e := New(Config{Jobs: 2})
	var oks, fails int
	err := e.Files(context.Background(), []string{bad, good}, core.Config4, func(fr FileResult) error {
		if fr.Err != nil {
			fails++
		} else {
			oks++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if oks != 1 || fails != 1 {
		t.Fatalf("oks %d fails %d, want 1/1", oks, fails)
	}
}

func TestFilesCallbackStopsBatch(t *testing.T) {
	bins := testBinaries(t, 3)
	dir := t.TempDir()
	var paths []string
	for i, raw := range bins {
		p := filepath.Join(dir, fmt.Sprintf("p%d", i))
		if err := os.WriteFile(p, raw, 0o755); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}

	e := New(Config{Jobs: 1})
	stop := errors.New("stop after first")
	calls := 0
	err := e.Files(context.Background(), paths, core.Config4, func(fr FileResult) error {
		calls++
		return stop
	})
	if !errors.Is(err, stop) {
		t.Fatalf("err = %v, want the callback's error", err)
	}
	if calls != 1 {
		t.Fatalf("callback ran %d times after requesting a stop", calls)
	}
}

// TestAnalyzePanicUnblocksWaiters is the regression test for the
// flight-map cleanup: a panic inside the cold analysis must (1) surface
// as an error on the panicking request, not crash the process, (2)
// unblock every coalesced waiter with that error, and (3) leave the key
// reusable so the next request runs a fresh analysis.
func TestAnalyzePanicUnblocksWaiters(t *testing.T) {
	raw := testBinaries(t, 1)[0]
	e := New(Config{Jobs: 2})

	entered := make(chan struct{})
	release := make(chan struct{})
	var fired atomic.Bool
	e.testHookCold = func([]byte) {
		if fired.CompareAndSwap(false, true) {
			close(entered)
			<-release
			panic("injected analysis panic")
		}
	}

	leaderErr := make(chan error, 1)
	go func() {
		_, err := e.Analyze(context.Background(), raw, core.Config4)
		leaderErr <- err
	}()
	<-entered // the leader holds the flight-map key and is mid-"analysis"

	const waiters = 3
	waiterErrs := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			_, err := e.Analyze(context.Background(), raw, core.Config4)
			waiterErrs <- err
		}()
	}
	time.Sleep(50 * time.Millisecond) // let the waiters coalesce onto the flight entry
	close(release)                    // boom

	deadline := time.After(5 * time.Second)
	collect := func(ch chan error, who string) error {
		select {
		case err := <-ch:
			return err
		case <-deadline:
			t.Fatalf("%s still blocked after the panic — flight map not cleaned up", who)
			return nil
		}
	}
	if err := collect(leaderErr, "panicking request"); err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("leader err = %v, want a recovered panic error", err)
	}
	for i := 0; i < waiters; i++ {
		if err := collect(waiterErrs, fmt.Sprintf("waiter %d", i)); err == nil {
			t.Fatalf("waiter %d got a nil error from a panicked analysis", i)
		}
	}

	e.flightMu.Lock()
	stranded := len(e.flight)
	e.flightMu.Unlock()
	if stranded != 0 {
		t.Fatalf("%d flight entries stranded after the panic", stranded)
	}

	// The key is reusable: the hook only fires once, so this runs clean.
	res, err := e.Analyze(context.Background(), raw, core.Config4)
	if err != nil {
		t.Fatalf("re-analysis after panic: %v", err)
	}
	if res.CacheSource != "" || len(res.Answer.Entries) == 0 {
		t.Fatalf("re-analysis res = source %q, %d entries; want a fresh full answer", res.CacheSource, len(res.Answer.Entries))
	}

	st := e.Stats()
	if st.Engine.Failures != 1+waiters {
		t.Fatalf("failures = %d, want %d (panicking request + every waiter)", st.Engine.Failures, 1+waiters)
	}
	if st.Engine.Analyzed != 1 || st.Cache.Misses != 1 {
		t.Fatalf("analyzed/misses = %d/%d, want 1/1", st.Engine.Analyzed, st.Cache.Misses)
	}
	if sum := st.Cache.Hits + storeHits(st) + st.Cache.Misses + st.Engine.Coalesced + st.Engine.Canceled + st.Engine.Failures; sum != st.Engine.Requests {
		t.Fatalf("counter sum %d != requests %d", sum, st.Engine.Requests)
	}
}

// TestCoalescedAndHitElapsed pins the Elapsed/CacheSource contract: a
// coalesced waiter reports the wall clock it actually blocked for (not
// zero), and an LRU hit reports the (small, nonzero) lookup cost.
func TestCoalescedAndHitElapsed(t *testing.T) {
	raw := testBinaries(t, 1)[0]
	e := New(Config{Jobs: 2})

	entered := make(chan struct{})
	release := make(chan struct{})
	var fired atomic.Bool
	e.testHookCold = func([]byte) {
		if fired.CompareAndSwap(false, true) {
			close(entered)
			<-release
		}
	}

	leaderDone := make(chan error, 1)
	go func() {
		_, err := e.Analyze(context.Background(), raw, core.Config4)
		leaderDone <- err
	}()
	<-entered

	type out struct {
		res *Result
		err error
	}
	waiterDone := make(chan out, 1)
	go func() {
		res, err := e.Analyze(context.Background(), raw, core.Config4)
		waiterDone <- out{res, err}
	}()
	const hold = 50 * time.Millisecond
	time.Sleep(hold)
	close(release)

	if err := <-leaderDone; err != nil {
		t.Fatal(err)
	}
	w := <-waiterDone
	if w.err != nil {
		t.Fatal(w.err)
	}
	if w.res.CacheSource == "" {
		t.Fatal("second identical request was not served from cache/coalescing")
	}
	if w.res.CacheSource != "coalesced" && w.res.CacheSource != "lru" {
		t.Fatalf("CacheSource = %q", w.res.CacheSource)
	}
	if w.res.Elapsed <= 0 {
		t.Fatalf("waiter Elapsed = %v, want the real blocking wait", w.res.Elapsed)
	}
	// The common case — the waiter coalesced — blocked for most of the
	// hold window.
	if w.res.CacheSource == "coalesced" && w.res.Elapsed < hold/5 {
		t.Fatalf("coalesced Elapsed = %v, want roughly the %v analysis hold", w.res.Elapsed, hold)
	}

	hit, err := e.Analyze(context.Background(), raw, core.Config4)
	if err != nil {
		t.Fatal(err)
	}
	if hit.CacheSource != "lru" {
		t.Fatalf("cache hit source = %q, want lru", hit.CacheSource)
	}
	if hit.Elapsed <= 0 {
		t.Fatalf("cache-hit Elapsed = %v, want the (nonzero) lookup cost", hit.Elapsed)
	}
}

// TestCounterConsistency is the property-style invariant check over a
// randomized concurrent workload mixing successes, cache hits,
// coalesced duplicates, malformed inputs, and canceled contexts:
//
//	analyzed == cache_misses
//	hits + misses + coalesced + canceled + failures == requests
//
// A double count anywhere in the retry/coalesce loop breaks one of the
// sums.
func TestCounterConsistency(t *testing.T) {
	bins := testBinaries(t, 3)
	junk := [][]byte{
		[]byte("not an elf at all"),
		{},
		[]byte("\x7fELF but truncated"),
	}
	e := New(Config{Jobs: 3})

	const goroutines = 12
	const iters = 40
	var issued atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + g)))
			for i := 0; i < iters; i++ {
				ctx := context.Background()
				var raw []byte
				switch rng.Intn(10) {
				case 0, 1: // malformed input -> failure
					raw = junk[rng.Intn(len(junk))]
				case 2: // pre-canceled context -> canceled
					var cancel context.CancelFunc
					ctx, cancel = context.WithCancel(ctx)
					cancel()
					raw = bins[rng.Intn(len(bins))]
				case 3: // already-expired deadline -> canceled
					var cancel context.CancelFunc
					ctx, cancel = context.WithDeadline(ctx, time.Now().Add(-time.Second))
					defer cancel()
					raw = bins[rng.Intn(len(bins))]
				default: // good binary -> hit, miss, or coalesced
					raw = bins[rng.Intn(len(bins))]
				}
				issued.Add(1)
				_, _ = e.Analyze(ctx, raw, core.Config4)
			}
		}(g)
	}
	wg.Wait()

	st := e.Stats()
	if st.Engine.Requests != issued.Load() {
		t.Fatalf("requests = %d, issued %d", st.Engine.Requests, issued.Load())
	}
	if st.Engine.Analyzed != st.Cache.Misses {
		t.Fatalf("analyzed %d != cache_misses %d", st.Engine.Analyzed, st.Cache.Misses)
	}
	sum := st.Cache.Hits + storeHits(st) + st.Cache.Misses + st.Engine.Coalesced + st.Engine.Canceled + st.Engine.Failures
	if sum != st.Engine.Requests {
		t.Fatalf("hits %d + store %d + misses %d + coalesced %d + canceled %d + failures %d = %d, want requests %d",
			st.Cache.Hits, storeHits(st), st.Cache.Misses, st.Engine.Coalesced, st.Engine.Canceled, st.Engine.Failures, sum, st.Engine.Requests)
	}
	// The workload genuinely exercised each class.
	if st.Cache.Misses == 0 || st.Cache.Hits == 0 || st.Engine.Canceled == 0 || st.Engine.Failures == 0 {
		t.Fatalf("degenerate workload: misses %d hits %d canceled %d failures %d",
			st.Cache.Misses, st.Cache.Hits, st.Engine.Canceled, st.Engine.Failures)
	}
	if st.Engine.InFlight != 0 {
		t.Fatalf("in-flight = %d after quiesce", st.Engine.InFlight)
	}
}

// TestStageLatencyHistograms checks the engine feeds its per-stage
// histograms: after one cold analysis the sweep stage has a sample and
// the rendered table mentions it.
func TestStageLatencyHistograms(t *testing.T) {
	raw := testBinaries(t, 1)[0]
	reg := obs.NewRegistry()
	e := New(Config{Jobs: 1, Registry: reg})
	if _, err := e.Analyze(context.Background(), raw, core.Config4); err != nil {
		t.Fatal(err)
	}

	snaps := e.StageLatencies()
	if snaps["sweep"].Count != 1 {
		t.Fatalf("sweep histogram count = %d, want 1", snaps["sweep"].Count)
	}
	if snaps["analyze"].Count != 1 || snaps["queue-wait"].Count != 1 {
		t.Fatalf("analyze/queue counts = %d/%d, want 1/1", snaps["analyze"].Count, snaps["queue-wait"].Count)
	}

	table := e.StageLatencyTable()
	for _, want := range []string{"sweep", "analyze", "p50", "p99"} {
		if !strings.Contains(table, want) {
			t.Fatalf("latency table missing %q:\n%s", want, table)
		}
	}

	var b bytes.Buffer
	reg.WriteTo(&b)
	out := b.String()
	for _, want := range []string{
		`funseeker_engine_stage_seconds_bucket{stage="sweep"`,
		"funseeker_engine_analyze_seconds_bucket",
		"funseeker_engine_requests_total 1",
		"funseeker_engine_cache_misses_total 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("registry exposition missing %q:\n%s", want, out)
		}
	}

	// Configuration ⑤ builds the FDE index: its stage gets a histogram
	// sample and a table row like every other stage EachStage names.
	if _, err := e.Analyze(context.Background(), raw, core.Config5); err != nil {
		t.Fatal(err)
	}
	if n := e.StageLatencies()["fde-index"].Count; n != 1 {
		t.Fatalf("fde-index histogram count = %d, want 1", n)
	}
	if table := e.StageLatencyTable(); !strings.Contains(table, "\n  fde-index ") {
		t.Fatalf("latency table has no fde-index row:\n%s", table)
	}
	b.Reset()
	reg.WriteTo(&b)
	out = b.String()
	for _, want := range []string{
		`funseeker_engine_stage_seconds_bucket{stage="fde-index"`,
		"funseeker_engine_analyzed_total 2",
		"funseeker_engine_cache_misses_total 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("registry exposition missing %q:\n%s", want, out)
		}
	}
}

// storeHits reads Store.Hits, which a storeless engine leaves out
// (always zero).
func storeHits(st StatsDoc) uint64 {
	if st.Store == nil {
		return 0
	}
	return st.Store.Hits
}
