package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// buildGarbage fills a store with several generations of the same key
// set so most on-disk bytes are superseded, then closes it. Returns
// the expected newest-per-key map.
func buildGarbage(t *testing.T, dir string, keys, generations int) map[string]string {
	t.Helper()
	st, err := Open(dir, Options{SegmentBytes: 512})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	want := make(map[string]string)
	for gen := 0; gen < generations; gen++ {
		for i := 0; i < keys; i++ {
			k := fmt.Sprintf("key-%03d", i)
			v := fmt.Sprintf("gen-%d-value-%03d-%s", gen, i, string(bytes.Repeat([]byte{'x'}, 20+7*i%50)))
			if err := st.Put([]byte(k), []byte(v)); err != nil {
				t.Fatalf("Put: %v", err)
			}
			want[k] = v
		}
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return want
}

// snapshotDir reads every file in dir into memory.
func snapshotDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	files := make(map[string][]byte)
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("ReadFile: %v", err)
		}
		files[e.Name()] = b
	}
	return files
}

// writeDir materializes a file snapshot into a fresh directory.
func writeDir(t *testing.T, files map[string][]byte) string {
	t.Helper()
	dir := t.TempDir()
	for name, b := range files {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
	}
	return dir
}

// verifyStore opens dir and checks that exactly the expected
// newest-per-key records are live, that no .tmp files survive, and
// that the store still accepts writes.
func verifyStore(t *testing.T, dir string, want map[string]string, label string) {
	t.Helper()
	st, err := Open(dir, Options{SegmentBytes: 512})
	if err != nil {
		t.Fatalf("%s: Open: %v", label, err)
	}
	defer st.Close()
	got := make(map[string]string)
	if err := st.ReadAll(func(k, v []byte) error {
		got[string(k)] = string(v)
		return nil
	}); err != nil {
		t.Fatalf("%s: ReadAll: %v", label, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d live records, want %d", label, len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("%s: key %q = %q, want %q", label, k, got[k], v)
		}
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
		t.Fatalf("%s: leftover tmp files after Open: %v", label, tmps)
	}
	if err := st.Put([]byte("post-crash"), []byte("ok")); err != nil {
		t.Fatalf("%s: Put after recovery: %v", label, err)
	}
	if v, ok, err := st.Get([]byte("post-crash")); err != nil || !ok || string(v) != "ok" {
		t.Fatalf("%s: Get after recovery = %q %v %v", label, v, ok, err)
	}
}

func TestCompactReclaimsGarbage(t *testing.T) {
	dir := t.TempDir()
	want := buildGarbage(t, dir, 12, 4)

	st, err := Open(dir, Options{SegmentBytes: 512})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer st.Close()
	before := st.Stats()
	if before.Compaction.GarbageBytes <= 0 {
		t.Fatalf("expected garbage before compaction, stats %+v", before.Compaction)
	}

	res, err := st.Compact()
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if res.ReclaimedBytes <= 0 {
		t.Fatalf("ReclaimedBytes = %d, want > 0 (%+v)", res.ReclaimedBytes, res)
	}
	if res.RecordsKept != len(want) {
		t.Fatalf("RecordsKept = %d, want %d", res.RecordsKept, len(want))
	}
	after := st.Stats()
	if after.Compaction.Compactions != 1 {
		t.Fatalf("Compactions = %d, want 1", after.Compaction.Compactions)
	}
	if after.Compaction.ReclaimedBytes != res.ReclaimedBytes {
		t.Fatalf("stats reclaimed %d != result %d", after.Compaction.ReclaimedBytes, res.ReclaimedBytes)
	}
	if after.SegmentBytes >= before.SegmentBytes {
		t.Fatalf("SegmentBytes %d not reduced from %d", after.SegmentBytes, before.SegmentBytes)
	}
	// The cold tier is now garbage-free: remaining garbage can only be
	// in the (empty) active segment.
	if after.Compaction.GarbageBytes != 0 {
		t.Fatalf("GarbageBytes = %d after full compaction, want 0", after.Compaction.GarbageBytes)
	}
	for k, v := range want {
		got, ok, err := st.Get([]byte(k))
		if err != nil || !ok || string(got) != v {
			t.Fatalf("Get(%q) = %q %v %v, want %q", k, got, ok, err, v)
		}
	}
	// And the store survives a reopen with the same contents.
	st.Close()
	verifyStore(t, dir, want, "post-compaction reopen")
}

func TestCompactEmptyAndIdempotent(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{SegmentBytes: 512})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer st.Close()
	if res, err := st.Compact(); err != nil || res.SegmentsCompacted != 0 {
		t.Fatalf("empty Compact = %+v, %v", res, err)
	}
	if err := st.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if _, err := st.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	// Second compaction over an already-clean store keeps everything.
	res, err := st.Compact()
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if res.ReclaimedBytes != 0 || res.RecordsKept != 1 {
		t.Fatalf("idempotent Compact = %+v", res)
	}
	if v, ok, _ := st.Get([]byte("k")); !ok || string(v) != "v" {
		t.Fatalf("Get = %q %v", v, ok)
	}
}

// TestCompactCrashBattery simulates a crash at every byte of the
// compaction swap sequence: every truncation of the tmp file before
// the rename, the post-rename state, and every prefix of the old
// segment deletions. Reopening at each point must recover the exact
// newest-per-key record set.
func TestCompactCrashBattery(t *testing.T) {
	seedDir := t.TempDir()
	want := buildGarbage(t, seedDir, 12, 3)
	origFiles := snapshotDir(t, seedDir)

	// Run a real compaction on a copy to learn the compacted segment's
	// exact bytes and name.
	workDir := writeDir(t, origFiles)
	st, err := Open(workDir, Options{SegmentBytes: 512})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := st.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	st.Close()
	afterFiles := snapshotDir(t, workDir)

	maxID := 0
	for name := range origFiles {
		var id int
		if _, err := fmt.Sscanf(name, "seg-%d.log", &id); err == nil && id > maxID {
			maxID = id
		}
	}
	compactedName := segmentName(maxID)
	compactedBytes, ok := afterFiles[compactedName]
	if !ok {
		t.Fatalf("compacted segment %s missing from %v", compactedName, afterFiles)
	}
	if len(compactedBytes) >= len(origFiles[compactedName])+512 {
		// Sanity: compaction should not grow the data dramatically; the
		// real check is the reclaim test above.
		t.Logf("warning: compacted segment unexpectedly large")
	}

	// Stage 1: crash while writing the tmp, at every byte.
	for cut := 0; cut <= len(compactedBytes); cut++ {
		files := make(map[string][]byte, len(origFiles)+1)
		for name, b := range origFiles {
			files[name] = b
		}
		files[compactedName+".tmp"] = compactedBytes[:cut]
		dir := writeDir(t, files)
		verifyStore(t, dir, want, fmt.Sprintf("tmp cut %d/%d", cut, len(compactedBytes)))
	}

	// Stage 2: crash after the rename, before deleting each of the old
	// segments — every prefix of the delete sequence.
	var deletable []string
	for name := range origFiles {
		if name != compactedName {
			deletable = append(deletable, name)
		}
	}
	for n := 0; n <= len(deletable); n++ {
		files := make(map[string][]byte)
		for name, b := range afterFiles {
			files[name] = b // compacted segment + post-rotation active
		}
		for _, name := range deletable[n:] {
			files[name] = origFiles[name] // not yet deleted
		}
		dir := writeDir(t, files)
		verifyStore(t, dir, want, fmt.Sprintf("deleted %d/%d old segments", n, len(deletable)))
	}
}

// TestCompactConcurrent hammers Put/Get while compactions run, then
// checks every newest value both live and after a reopen. Exercises
// the Get retry on the closed-handle race under -race.
func TestCompactConcurrent(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{SegmentBytes: 1024})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}

	const writers = 4
	const rounds = 200
	var wg sync.WaitGroup
	errc := make(chan error, writers+1)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := []byte(fmt.Sprintf("w%d-k%d", w, i%17))
				v := []byte(fmt.Sprintf("w%d-v%d-%d", w, i%17, i))
				if err := st.Put(k, v); err != nil {
					errc <- err
					return
				}
				if _, _, err := st.Get(k); err != nil {
					errc <- err
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if _, err := st.Compact(); err != nil {
				errc <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatalf("concurrent error: %v", err)
	}

	want := make(map[string]string)
	for w := 0; w < writers; w++ {
		for i := rounds - 17; i < rounds; i++ {
			k := fmt.Sprintf("w%d-k%d", w, i%17)
			want[k] = fmt.Sprintf("w%d-v%d-%d", w, i%17, i)
		}
	}
	for k, v := range want {
		got, ok, err := st.Get([]byte(k))
		if err != nil || !ok || string(got) != v {
			t.Fatalf("Get(%q) = %q %v %v, want %q", k, got, ok, err, v)
		}
	}
	st.Close()
	verifyStore(t, dir, want, "reopen after concurrent compactions")
}

// TestBackgroundCompactor checks that the goroutine started by
// CompactEvery fires on its own once the store passes both thresholds
// (1 MiB on disk, half of it garbage), and that Close tears it down
// cleanly. 48 generations of 8 keys × 4 KiB write ~1.5 MiB, 47/48 of it
// superseded.
func TestBackgroundCompactor(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{
		SegmentBytes: 64 << 10,
		CompactEvery: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer st.Close()

	want := make(map[string]string)
	for gen := 0; gen < 48; gen++ {
		for i := 0; i < 8; i++ {
			k := fmt.Sprintf("key-%d", i)
			v := fmt.Sprintf("gen-%d-%d-%s", gen, i, string(bytes.Repeat([]byte{'y'}, 4<<10)))
			if err := st.Put([]byte(k), []byte(v)); err != nil {
				t.Fatalf("Put: %v", err)
			}
			want[k] = v
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		stats := st.Stats()
		if stats.Compaction.Compactions >= 1 && stats.Compaction.ReclaimedBytes > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background compactor never fired: %+v", stats.Compaction)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for k, v := range want {
		got, ok, err := st.Get([]byte(k))
		if err != nil || !ok || string(got) != v {
			t.Fatalf("Get(%q) = %q %v %v, want %q", k, got, ok, err, v)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := st.Close(); err != nil { // double Close stays safe
		t.Fatalf("second Close: %v", err)
	}
}

// TestKeysSnapshot pins the Keys contract the replication repair path
// relies on: every live key, no duplicates, safe copies.
func TestKeysSnapshot(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer st.Close()
	want := map[string]bool{}
	for i := 0; i < 10; i++ {
		k := fmt.Sprintf("key-%d", i)
		if err := st.Put([]byte(k), []byte("v")); err != nil {
			t.Fatalf("Put: %v", err)
		}
		want[k] = true
	}
	st.Put([]byte("key-3"), []byte("v2")) // overwrite must not duplicate
	keys := st.Keys()
	if len(keys) != len(want) {
		t.Fatalf("Keys() returned %d keys, want %d", len(keys), len(want))
	}
	for _, k := range keys {
		if !want[string(k)] {
			t.Fatalf("unexpected key %q", k)
		}
	}
}
