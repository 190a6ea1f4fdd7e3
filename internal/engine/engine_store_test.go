package engine

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"github.com/funseeker/funseeker/internal/core"
	"github.com/funseeker/funseeker/internal/elfx"
	"github.com/funseeker/funseeker/internal/store"
)

func newTestStore(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// TestStoreTierWarmRestart is the restart story: a second engine (cold
// LRU, same store directory) serves everything the first one computed
// from the persistent tier, without re-analyzing a single byte.
func TestStoreTierWarmRestart(t *testing.T) {
	bins := testBinaries(t, 3)
	st := newTestStore(t)

	e1 := New(Config{Jobs: 2, Store: st})
	var want []*Result
	for _, raw := range bins {
		res, err := e1.Analyze(context.Background(), raw, core.Config4)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, res)
	}
	if s := e1.Stats(); s.Store.Puts != 3 || s.Store.Hits != 0 {
		t.Fatalf("first engine store puts/hits = %d/%d, want 3/0", s.Store.Puts, s.Store.Hits)
	}

	// "Restart": fresh engine, fresh LRU, same store.
	e2 := New(Config{Jobs: 2, Store: st})
	for i, raw := range bins {
		res, err := e2.Analyze(context.Background(), raw, core.Config4)
		if err != nil {
			t.Fatal(err)
		}
		if res.CacheSource != "store" {
			t.Fatalf("bin %d: source=%q, want a store hit", i, res.CacheSource)
		}
		if res.Elapsed <= 0 {
			t.Fatalf("bin %d: store-hit Elapsed = %v, want the (nonzero) lookup cost", i, res.Elapsed)
		}
		if res.SHA256 != want[i].SHA256 || res.StoreKey != want[i].StoreKey {
			t.Fatalf("bin %d: identity mismatch across the store", i)
		}
		if !reflect.DeepEqual(res.Answer.Entries, want[i].Answer.Entries) ||
			res.Answer.Arch != want[i].Answer.Arch {
			t.Fatalf("bin %d: report round-tripped wrong through the store", i)
		}
	}
	s := e2.Stats()
	if s.Store.Hits != 3 || s.Engine.Analyzed != 0 || s.Cache.Misses != 0 {
		t.Fatalf("restarted engine = %d store hits / %d analyzed / %d misses, want 3/0/0", s.Store.Hits, s.Engine.Analyzed, s.Cache.Misses)
	}
	if s.Store == nil || s.Store.Records != 3 {
		t.Fatalf("store snapshot = %+v, want 3 records", s.Store)
	}

	// A store hit populates the LRU: the next identical request is an
	// LRU hit, not a second disk read.
	res, err := e2.Analyze(context.Background(), bins[0], core.Config4)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheSource != "lru" {
		t.Fatalf("post-store-hit source = %q, want lru", res.CacheSource)
	}
}

// TestStoreTierKeysRespectOptionsAndArch: different option bits must
// not serve each other's stored results.
func TestStoreTierKeysRespectOptionsAndArch(t *testing.T) {
	raw := testBinaries(t, 1)[0]
	st := newTestStore(t)
	e1 := New(Config{Jobs: 1, Store: st})
	if _, err := e1.Analyze(context.Background(), raw, core.Config4); err != nil {
		t.Fatal(err)
	}
	e2 := New(Config{Jobs: 1, Store: st})
	res, err := e2.Analyze(context.Background(), raw, core.Config1)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheSource != "" {
		t.Fatalf("Config1 request served from Config4's stored result (source %q)", res.CacheSource)
	}
	if s := e2.Stats(); s.Store.Hits != 0 || s.Cache.Misses != 1 {
		t.Fatalf("stats = %d store hits / %d misses, want 0/1", s.Store.Hits, s.Cache.Misses)
	}
}

// TestStoreTierWithoutLRU: caching disabled entirely still leaves the
// persistent tier working — every repeat is a store hit.
func TestStoreTierWithoutLRU(t *testing.T) {
	raw := testBinaries(t, 1)[0]
	st := newTestStore(t)
	e := New(Config{Jobs: 1, CacheBytes: -1, Store: st})
	if _, err := e.Analyze(context.Background(), raw, core.Config4); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		res, err := e.Analyze(context.Background(), raw, core.Config4)
		if err != nil {
			t.Fatal(err)
		}
		if res.CacheSource != "store" {
			t.Fatalf("repeat %d source = %q, want store (LRU disabled)", i, res.CacheSource)
		}
	}
	if s := e.Stats(); s.Store.Hits != 3 || s.Cache.Hits != 0 || s.Engine.Analyzed != 1 {
		t.Fatalf("stats = %d store hits / %d lru hits / %d analyzed, want 3/0/1", s.Store.Hits, s.Cache.Hits, s.Engine.Analyzed)
	}
}

// TestStoreDecodeErrorDegradesToCold: a corrupt (foreign-version)
// stored value must degrade to a fresh analysis, counted under
// store_errors — never a request failure.
func TestStoreDecodeErrorDegradesToCold(t *testing.T) {
	raw := testBinaries(t, 1)[0]
	st := newTestStore(t)

	// Poison the exact key the engine will look up.
	k := cacheKey{sum: sha256.Sum256(raw), opts: optsBits(core.Config4), arch: elfx.DetectArch(raw)}
	if err := st.Put(storeKey(k), []byte(`{"v":999}`)); err != nil {
		t.Fatal(err)
	}

	e := New(Config{Jobs: 1, Store: st})
	res, err := e.Analyze(context.Background(), raw, core.Config4)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheSource != "" || len(res.Answer.Entries) == 0 {
		t.Fatalf("poisoned store served source=%q, want a fresh full analysis", res.CacheSource)
	}
	s := e.Stats()
	if s.Store.Errors == 0 {
		t.Fatal("decode failure not counted under store_errors")
	}
	if s.Engine.Failures != 0 || s.Cache.Misses != 1 {
		t.Fatalf("failures/misses = %d/%d, want 0/1", s.Engine.Failures, s.Cache.Misses)
	}
	// The fresh result overwrote the poison: a new engine now store-hits.
	e2 := New(Config{Jobs: 1, Store: st})
	res2, err := e2.Analyze(context.Background(), raw, core.Config4)
	if err != nil {
		t.Fatal(err)
	}
	if res2.CacheSource != "store" {
		t.Fatalf("after overwrite, source = %q, want store", res2.CacheSource)
	}
}

// v1Record is raw's configuration-④ result as the version-1 codec
// wrote it: the sets E, C, J and J′ in full beside the entries.
func v1Record(t *testing.T, raw []byte) []byte {
	t.Helper()
	bin, err := elfx.Load(raw)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := core.Identify(bin, core.Config4)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	val, err := json.Marshal(map[string]any{
		"v":                     1,
		"arch":                  rep.Arch,
		"entries":               rep.Entries,
		"endbrs":                rep.Endbrs,
		"call_targets":          rep.CallTargets,
		"jump_targets":          rep.JumpTargets,
		"tail_call_targets":     rep.TailCallTargets,
		"filtered_landing_pads": rep.FilteredLandingPads,
		"sha256":                hex.EncodeToString(sum[:]),
		"binary_bytes":          len(raw),
	})
	if err != nil {
		t.Fatal(err)
	}
	return val
}

// TestStoreV1RecordIsMiss: a version-1 record is a miss. The engine
// recomputes it, counts one store error and rewrites it as version 2,
// holding no address list but the entries; a fresh engine then serves
// it from the store. The replication path refuses a version-1 value.
func TestStoreV1RecordIsMiss(t *testing.T) {
	raw := testBinaries(t, 1)[0]
	st := newTestStore(t)
	k := cacheKey{sum: sha256.Sum256(raw), opts: optsBits(core.Config4), arch: elfx.DetectArch(raw)}
	key := storeKey(k)
	old := v1Record(t, raw)
	if err := st.Put(key, old); err != nil {
		t.Fatal(err)
	}

	e := New(Config{Jobs: 1, Store: st})
	res, err := e.Analyze(context.Background(), raw, core.Config4)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheSource != "" {
		t.Fatalf("a version-1 record served source %q, want a fresh analysis", res.CacheSource)
	}
	if s := e.Stats(); s.Store.Errors != 1 || s.Store.Hits != 0 || s.Store.Puts != 1 || s.Engine.Analyzed != 1 {
		t.Fatalf("store errors/hits/puts = %d/%d/%d, analyzed %d; want 1/0/1, 1",
			s.Store.Errors, s.Store.Hits, s.Store.Puts, s.Engine.Analyzed)
	}
	val, ok, err := st.Get(key)
	if err != nil || !ok {
		t.Fatalf("rewritten record: ok=%v err=%v", ok, err)
	}
	var rec map[string]any
	if err := json.Unmarshal(val, &rec); err != nil {
		t.Fatal(err)
	}
	if rec["v"] != float64(2) || rec["sha256"] != res.SHA256 {
		t.Fatalf("rewritten record v=%v sha256=%v, want 2 and %s", rec["v"], rec["sha256"], res.SHA256)
	}
	for field, v := range rec {
		if _, isList := v.([]any); isList && field != "entries" && field != "warnings" {
			t.Fatalf("rewritten record keeps the list %q", field)
		}
	}
	if _, isCount := rec["endbrs"].(float64); !isCount {
		t.Fatalf("rewritten record endbrs = %v, want a count", rec["endbrs"])
	}

	e2 := New(Config{Jobs: 1, Store: st})
	res2, err := e2.Analyze(context.Background(), raw, core.Config4)
	if err != nil {
		t.Fatal(err)
	}
	if res2.CacheSource != "store" || !reflect.DeepEqual(*res2.Answer, *res.Answer) {
		t.Fatalf("fresh engine source %q answer %+v, want the rewritten answer from the store", res2.CacheSource, res2.Answer)
	}
	if err := e2.InjectResult(res.StoreKey, old); err == nil {
		t.Fatal("InjectResult accepted a version-1 value")
	}
}

// TestStoredResultCodecQuick: the value codec round-trips arbitrary
// answer shapes bit-exactly.
func TestStoredResultCodecQuick(t *testing.T) {
	const sha = "8d14a573cdbdb212e38b8d83e20b0cd0bbbabd872f1a4445b0f2d72e2a307d12"
	prop := func(entries []uint64, endbrs, calls, jumps, tails uint16, fir, flp, fused int, warnings []string) bool {
		a := &Answer{
			Arch:                   "x86-64",
			Entries:                entries,
			Endbrs:                 int(endbrs),
			CallTargets:            int(calls),
			JumpTargets:            int(jumps),
			TailCallTargets:        int(tails),
			FilteredIndirectReturn: fir,
			FilteredLandingPads:    flp,
			FusedFDEEntries:        fused,
			Warnings:               warnings,
		}
		val, err := encodeStoredResult(a, sha)
		if err != nil {
			return false
		}
		got, gotSHA, err := decodeStoredResult(val)
		if err != nil {
			return false
		}
		want := *a
		want.Entries = nonNil(a.Entries)
		if len(want.Warnings) == 0 {
			want.Warnings = nil
		}
		got.Entries = nonNil(got.Entries)
		return gotSHA == sha && reflect.DeepEqual(*got, want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}

	// Version and shape guards reject foreign records.
	for _, bad := range []string{`{"v":0}`, `{"v":1,"sha256":"` + sha + `"}`, `{"v":2,"sha256":""}`, `not json`, ``} {
		if _, _, err := decodeStoredResult([]byte(bad)); err == nil {
			t.Fatalf("decode accepted %q", bad)
		}
	}
}

func nonNil(s []uint64) []uint64 {
	if s == nil {
		return []uint64{}
	}
	return s
}

// TestCounterConsistencyWithStore extends the PR-5 pinning property to
// the persistent tier: under a randomized concurrent workload with an
// LRU small enough to evict constantly and a store underneath,
//
//	requests == lru_hits + store_hits + misses + coalesced + canceled + failures
//	analyzed == misses
//
// and the store tier genuinely absorbs LRU evictions (store_hits > 0),
// so a store hit misclassified as a cold miss (the skew this test
// exists to catch) breaks the sums.
func TestCounterConsistencyWithStore(t *testing.T) {
	bins := testBinaries(t, 4)
	st := newTestStore(t)

	// Budget for roughly one report: every distinct binary evicts the
	// previous one, so repeats miss the LRU and fall to the store.
	probe := New(Config{Jobs: 2})
	r, err := probe.Analyze(context.Background(), bins[0], core.Config4)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Config{Jobs: 3, CacheBytes: entrySize(r.Answer) + entrySize(r.Answer)/2, Store: st})

	junk := [][]byte{[]byte("not an elf"), {}, []byte("\x7fELF torn")}
	const goroutines = 10
	const iters = 40
	var issued atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(9000 + g)))
			for i := 0; i < iters; i++ {
				ctx := context.Background()
				var raw []byte
				switch rng.Intn(12) {
				case 0: // malformed -> failure
					raw = junk[rng.Intn(len(junk))]
				case 1: // pre-canceled -> canceled
					var cancel context.CancelFunc
					ctx, cancel = context.WithCancel(ctx)
					cancel()
					raw = bins[rng.Intn(len(bins))]
				default: // good -> lru hit, store hit, miss, or coalesced
					raw = bins[rng.Intn(len(bins))]
				}
				issued.Add(1)
				_, _ = e.Analyze(ctx, raw, core.Config4)
			}
		}(g)
	}
	wg.Wait()

	s := e.Stats()
	if s.Engine.Requests != issued.Load() {
		t.Fatalf("requests = %d, issued %d", s.Engine.Requests, issued.Load())
	}
	if s.Engine.Analyzed != s.Cache.Misses {
		t.Fatalf("analyzed %d != cache_misses %d", s.Engine.Analyzed, s.Cache.Misses)
	}
	sum := s.Cache.Hits + s.Store.Hits + s.Cache.Misses + s.Engine.Coalesced + s.Engine.Canceled + s.Engine.Failures
	if sum != s.Engine.Requests {
		t.Fatalf("lru %d + store %d + misses %d + coalesced %d + canceled %d + failures %d = %d, want requests %d",
			s.Cache.Hits, s.Store.Hits, s.Cache.Misses, s.Engine.Coalesced, s.Engine.Canceled, s.Engine.Failures, sum, s.Engine.Requests)
	}
	// The workload exercised the new tier for real.
	if s.Store.Hits == 0 {
		t.Fatal("degenerate workload: no store hits despite constant LRU eviction")
	}
	if s.Cache.Evictions == 0 || s.Cache.Misses == 0 || s.Engine.Canceled == 0 || s.Engine.Failures == 0 {
		t.Fatalf("degenerate workload: evictions %d misses %d canceled %d failures %d",
			s.Cache.Evictions, s.Cache.Misses, s.Engine.Canceled, s.Engine.Failures)
	}
	// Every distinct (binary, options) pair was analyzed cold at most
	// once per store generation: misses never exceed puts + errors.
	if s.Store.Puts < 4 {
		t.Fatalf("store puts = %d, want one per distinct binary at minimum", s.Store.Puts)
	}
	if s.Engine.InFlight != 0 {
		t.Fatalf("in-flight = %d after quiesce", s.Engine.InFlight)
	}

	// And the durability story holds end to end: a fresh engine over
	// the same store serves all four binaries without re-analyzing.
	e2 := New(Config{Jobs: 2, Store: st})
	for i, raw := range bins {
		res, err := e2.Analyze(context.Background(), raw, core.Config4)
		if err != nil {
			t.Fatal(err)
		}
		if res.CacheSource != "store" {
			t.Fatalf("bin %d after restart: source %q, want store", i, res.CacheSource)
		}
	}
	if s2 := e2.Stats(); s2.Engine.Analyzed != 0 {
		t.Fatalf("restarted engine re-analyzed %d binaries", s2.Engine.Analyzed)
	}
}
