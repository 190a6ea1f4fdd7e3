// Package store is a dependency-free persistent content-addressed
// result store: the durability tier under the engine's in-memory LRU,
// so a warm corpus survives a process restart and a replica can be
// killed mid-corpus without losing any previously computed result.
//
// The design is a minimal append-only log, chosen over a B-tree for
// crash-safety by construction:
//
//   - Writes only ever append to the active segment file, so a crash
//     (SIGKILL, power cut mid-write) can corrupt at most the final,
//     torn record — never an earlier one.
//   - Every record carries a CRC-32 over its key and value; startup
//     recovery scans each segment forward, stops at the first record
//     that fails to frame or checksum, and truncates the file there.
//     Everything before the torn tail is intact by the append-only
//     argument.
//   - The key → offset index is rebuilt from the segments on Open, with
//     later records superseding earlier ones for the same key, so a
//     re-put (a re-analysis after an options change upstream would use
//     a different key; same-key re-puts are idempotent overwrites) is
//     just another append.
//
// Compaction: superseded records are dead weight; Compact rewrites the
// cold (non-active) segments keeping only the newest record per key,
// with the same crash-safety contract as the log itself (write a new
// segment, fsync, atomically rename, then delete the old files — see
// compact.go for the replay-order argument). A background compactor
// goroutine (Options.CompactEvery) triggers it automatically once the
// garbage ratio passes compactGarbageRatio.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

const (
	// recordMagic starts every record; a scan landing on anything else
	// is in a torn tail.
	recordMagic = 0x46535231 // "FSR1"
	// headerSize is the fixed record preamble: magic, CRC-32(key‖val),
	// key length, value length.
	headerSize = 4 + 4 + 2 + 4

	// MaxKeyLen and MaxValueLen bound a single record. The engine's
	// keys are 34 bytes (SHA-256 + option bits + arch); values are
	// encoded reports, well under a megabyte. The value bound mostly
	// guards recovery: a corrupt length field cannot make the scanner
	// attempt a multi-gigabyte read.
	MaxKeyLen   = 256
	MaxValueLen = 1 << 28

	// DefaultSegmentBytes is the active-segment rotation threshold when
	// Options.SegmentBytes is zero.
	DefaultSegmentBytes = 64 << 20

	// compactGarbageRatio is the store-wide garbage fraction
	// (superseded bytes / on-disk bytes) past which the background
	// compactor rewrites cold segments.
	compactGarbageRatio = 0.5

	// compactMinBytes is the on-disk floor below which the background
	// compactor never runs (rewriting a few kilobytes is not worth the
	// churn).
	compactMinBytes = 1 << 20
)

// ErrTooLarge reports a key or value beyond the record bounds.
var ErrTooLarge = errors.New("store: key or value exceeds record bounds")

// Options tunes a Store.
type Options struct {
	// SegmentBytes rotates the active segment once it grows past this
	// size. Zero selects DefaultSegmentBytes.
	SegmentBytes int64
	// Sync fsyncs after every Put. Off by default: the store's job is
	// surviving process death (kill -9, crash), which buffered writes to
	// the OS already guarantee; full power-loss durability costs an
	// fsync per record and is opt-in.
	Sync bool

	// CompactEvery runs a background compactor goroutine that checks the
	// garbage ratio at this interval and rewrites cold segments once the
	// store holds at least 1 MiB and half of it is superseded records.
	// Zero disables background compaction (explicit Compact calls always
	// work).
	CompactEvery time.Duration
}

// Store is an append-only key-value store over segment files in one
// directory. It is safe for concurrent use.
type Store struct {
	dir  string
	opts Options

	mu     sync.RWMutex
	segs   []*segment          // ascending ID; the last one is active
	index  map[string]location // key → newest record location
	closed bool

	liveBytes    int64 // value bytes reachable through the index
	liveRecBytes int64 // full record bytes (header+key+value) reachable through the index
	replaced     uint64
	puts         uint64

	// Compaction state. compactMu serializes compactions (background and
	// explicit) so at most one rewrite is in flight; the counters are
	// cumulative over the store's open lifetime.
	compactMu      sync.Mutex
	compactions    uint64
	reclaimedBytes int64
	stopCompactor  chan struct{}
	compactorDone  chan struct{}

	// Recovery facts from Open, for observability.
	recoveredRecords  int
	truncatedSegments int
	truncatedBytes    int64
}

// location addresses one live value inside a segment.
type location struct {
	seg    *segment
	valOff int64
	valLen uint32
}

// segment is one log file: an open handle plus its current size.
type segment struct {
	id   int
	path string
	f    *os.File
	size int64
}

func segmentName(id int) string { return fmt.Sprintf("seg-%06d.log", id) }

// Open opens (or creates) the store rooted at dir, replaying every
// segment to rebuild the index and truncating any torn tail left by a
// crash.
func Open(dir string, opts Options) (*Store, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// A leftover .tmp is a compaction that died before its atomic
	// rename; the original segments are still intact, so the tmp is
	// garbage by construction and must not survive (a later compaction
	// would otherwise O_EXCL-collide or rename stale data into place).
	if tmps, err := filepath.Glob(filepath.Join(dir, "seg-*.log.tmp")); err == nil {
		for _, tmp := range tmps {
			os.Remove(tmp)
		}
	}
	names, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)

	s := &Store{dir: dir, opts: opts, index: make(map[string]location)}
	for _, name := range names {
		var id int
		if _, err := fmt.Sscanf(filepath.Base(name), "seg-%d.log", &id); err != nil {
			continue // foreign file; leave it alone
		}
		seg, err := s.openSegment(name, id)
		if err != nil {
			s.closeLocked()
			return nil, err
		}
		s.segs = append(s.segs, seg)
	}
	if len(s.segs) == 0 {
		seg, err := s.createSegment(1)
		if err != nil {
			return nil, err
		}
		s.segs = append(s.segs, seg)
	}
	if opts.CompactEvery > 0 {
		s.stopCompactor = make(chan struct{})
		s.compactorDone = make(chan struct{})
		go s.compactLoop(s.stopCompactor)
	}
	return s, nil
}

// createSegment makes a fresh, empty active segment.
func (s *Store) createSegment(id int) (*segment, error) {
	path := filepath.Join(s.dir, segmentName(id))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	return &segment{id: id, path: path, f: f, size: 0}, nil
}

// openSegment opens an existing segment, replays its records into the
// index, and truncates the file at the first torn or corrupt record.
func (s *Store) openSegment(path string, id int) (*segment, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	seg := &segment{id: id, path: path, f: f}

	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	fileSize := info.Size()

	var off int64
	var hdr [headerSize]byte
	for off < fileSize {
		if fileSize-off < headerSize {
			break // torn header
		}
		if _, err := f.ReadAt(hdr[:], off); err != nil {
			break
		}
		magic := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		keyLen := int64(binary.LittleEndian.Uint16(hdr[8:10]))
		valLen := int64(binary.LittleEndian.Uint32(hdr[10:14]))
		if magic != recordMagic || keyLen == 0 || keyLen > MaxKeyLen || valLen > MaxValueLen {
			break // torn or corrupt framing
		}
		if fileSize-off-headerSize < keyLen+valLen {
			break // torn body
		}
		body := make([]byte, keyLen+valLen)
		if _, err := f.ReadAt(body, off+headerSize); err != nil {
			break
		}
		if crc32.ChecksumIEEE(body) != sum {
			break // corrupt body
		}
		key := string(body[:keyLen])
		loc := location{seg: seg, valOff: off + headerSize + keyLen, valLen: uint32(valLen)}
		if old, ok := s.index[key]; ok {
			s.liveBytes -= int64(old.valLen)
			s.liveRecBytes -= headerSize + keyLen + int64(old.valLen)
			s.replaced++
		}
		s.index[key] = loc
		s.liveBytes += valLen
		s.liveRecBytes += headerSize + keyLen + valLen
		s.recoveredRecords++
		off += headerSize + keyLen + valLen
	}
	if off < fileSize {
		if err := f.Truncate(off); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: truncating torn tail of %s: %w", path, err)
		}
		s.truncatedSegments++
		s.truncatedBytes += fileSize - off
	}
	seg.size = off
	return seg, nil
}

// encodeRecord frames one key/value pair in the on-disk record format.
func encodeRecord(key, val []byte) ([]byte, error) {
	if len(key) == 0 || len(key) > MaxKeyLen || len(val) > MaxValueLen {
		return nil, ErrTooLarge
	}
	buf := make([]byte, headerSize+len(key)+len(val))
	body := buf[headerSize:]
	copy(body, key)
	copy(body[len(key):], val)
	binary.LittleEndian.PutUint32(buf[0:4], recordMagic)
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(body))
	binary.LittleEndian.PutUint16(buf[8:10], uint16(len(key)))
	binary.LittleEndian.PutUint32(buf[10:14], uint32(len(val)))
	return buf, nil
}

// errBadRecord is parseRecord's rejection; recovery treats it (and a
// short buffer) as the torn tail.
var errBadRecord = errors.New("store: bad record")

// parseRecord decodes one record from the front of b, returning the
// key, value, and total record length. It is the exact inverse of
// encodeRecord and the unit the recovery scan trusts.
func parseRecord(b []byte) (key, val []byte, n int, err error) {
	if len(b) < headerSize {
		return nil, nil, 0, errBadRecord
	}
	if binary.LittleEndian.Uint32(b[0:4]) != recordMagic {
		return nil, nil, 0, errBadRecord
	}
	sum := binary.LittleEndian.Uint32(b[4:8])
	keyLen := int(binary.LittleEndian.Uint16(b[8:10]))
	valLen := int(binary.LittleEndian.Uint32(b[10:14]))
	if keyLen == 0 || keyLen > MaxKeyLen || valLen > MaxValueLen {
		return nil, nil, 0, errBadRecord
	}
	n = headerSize + keyLen + valLen
	if len(b) < n {
		return nil, nil, 0, errBadRecord
	}
	body := b[headerSize:n]
	if crc32.ChecksumIEEE(body) != sum {
		return nil, nil, 0, errBadRecord
	}
	return body[:keyLen], body[keyLen:], n, nil
}

// Put appends one record and points the index at it. The write is a
// single Write syscall, so a concurrent reader never observes a half
// record through the index (the index is updated only after the append
// succeeds).
func (s *Store) Put(key, val []byte) error {
	rec, err := encodeRecord(key, val)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("store: closed")
	}
	active := s.segs[len(s.segs)-1]
	if active.size > 0 && active.size+int64(len(rec)) > s.opts.SegmentBytes {
		next, err := s.createSegment(active.id + 1)
		if err != nil {
			return err
		}
		s.segs = append(s.segs, next)
		active = next
	}
	if _, err := active.f.WriteAt(rec, active.size); err != nil {
		return err
	}
	if s.opts.Sync {
		if err := active.f.Sync(); err != nil {
			return err
		}
	}
	loc := location{seg: active, valOff: active.size + headerSize + int64(len(key)), valLen: uint32(len(val))}
	active.size += int64(len(rec))
	if old, ok := s.index[string(key)]; ok {
		s.liveBytes -= int64(old.valLen)
		s.liveRecBytes -= int64(headerSize+len(key)) + int64(old.valLen)
		s.replaced++
	}
	s.index[string(key)] = loc
	s.liveBytes += int64(len(val))
	s.liveRecBytes += int64(len(rec))
	s.puts++
	return nil
}

// Get returns the newest value stored under key. The read happens via
// ReadAt outside the index lock, so concurrent Gets never serialize on
// each other's disk reads. A reader that snapshots a location just
// before a compaction swaps the index can find its segment handle
// closed by the time it reads; the index already points at the live
// copy, so that exact race is retried rather than surfaced.
func (s *Store) Get(key []byte) ([]byte, bool, error) {
	for attempt := 0; ; attempt++ {
		s.mu.RLock()
		if s.closed {
			s.mu.RUnlock()
			return nil, false, errors.New("store: closed")
		}
		loc, ok := s.index[string(key)]
		s.mu.RUnlock()
		if !ok {
			return nil, false, nil
		}
		val := make([]byte, loc.valLen)
		if _, err := loc.seg.f.ReadAt(val, loc.valOff); err != nil {
			if errors.Is(err, os.ErrClosed) && attempt < 8 {
				continue
			}
			return nil, false, fmt.Errorf("store: reading %s@%d: %w", loc.seg.path, loc.valOff, err)
		}
		return val, true, nil
	}
}

// Keys returns a snapshot of every live key, in unspecified order. The
// router's re-replication path diffs these sets across replicas.
func (s *Store) Keys() [][]byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	keys := make([][]byte, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, []byte(k))
	}
	return keys
}

// Has reports whether key is present without reading its value.
func (s *Store) Has(key []byte) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.index[string(key)]
	return ok
}

// Len returns the number of live (newest-per-key) records.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

// Stats is a point-in-time snapshot of the store.
type Stats struct {
	// Dir is the store root.
	Dir string `json:"dir"`
	// Records is the live (newest-per-key) record count.
	Records int `json:"records"`
	// Segments is the number of segment files.
	Segments int `json:"segments"`
	// LiveBytes is the total size of live values.
	LiveBytes int64 `json:"live_bytes"`
	// SegmentBytes is the on-disk size of all segments, including
	// superseded records.
	SegmentBytes int64 `json:"segment_bytes"`
	// Puts counts appends since Open.
	Puts uint64 `json:"puts"`
	// Replaced counts records superseded by a newer same-key record
	// (over the store's whole life, including replays seen at Open).
	Replaced uint64 `json:"replaced"`
	// RecoveredRecords / TruncatedSegments / TruncatedBytes describe
	// the last Open: how many records replayed cleanly, and how much
	// torn tail was dropped.
	RecoveredRecords  int   `json:"recovered_records"`
	TruncatedSegments int   `json:"truncated_segments"`
	TruncatedBytes    int64 `json:"truncated_bytes"`

	// Compaction describes the garbage state and the compactor's work
	// so far.
	Compaction CompactionStats `json:"compaction"`
}

// CompactionStats is the compaction block of Stats.
type CompactionStats struct {
	// Compactions counts completed compactions since Open.
	Compactions uint64 `json:"compactions"`
	// ReclaimedBytes is the cumulative on-disk size freed by
	// compactions since Open.
	ReclaimedBytes int64 `json:"reclaimed_bytes"`
	// LiveRecordBytes is the full on-disk size (header + key + value)
	// of the newest-per-key records.
	LiveRecordBytes int64 `json:"live_record_bytes"`
	// GarbageBytes is the on-disk size occupied by superseded records:
	// total segment bytes minus live record bytes.
	GarbageBytes int64 `json:"garbage_bytes"`
	// GarbageRatio is GarbageBytes over total segment bytes (0 when the
	// store is empty). The background compactor fires when this passes
	// one half.
	GarbageRatio float64 `json:"garbage_ratio"`
}

// Stats snapshots the store counters.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := Stats{
		Dir:               s.dir,
		Records:           len(s.index),
		Segments:          len(s.segs),
		LiveBytes:         s.liveBytes,
		Puts:              s.puts,
		Replaced:          s.replaced,
		RecoveredRecords:  s.recoveredRecords,
		TruncatedSegments: s.truncatedSegments,
		TruncatedBytes:    s.truncatedBytes,
	}
	for _, seg := range s.segs {
		st.SegmentBytes += seg.size
	}
	st.Compaction = CompactionStats{
		Compactions:     s.compactions,
		ReclaimedBytes:  s.reclaimedBytes,
		LiveRecordBytes: s.liveRecBytes,
		GarbageBytes:    st.SegmentBytes - s.liveRecBytes,
	}
	if st.SegmentBytes > 0 {
		st.Compaction.GarbageRatio = float64(st.Compaction.GarbageBytes) / float64(st.SegmentBytes)
	}
	return st
}

// Close stops the background compactor and releases the segment
// handles. The store is unusable afterwards.
func (s *Store) Close() error {
	if s.stopCompactor != nil {
		s.mu.Lock()
		stop := s.stopCompactor
		s.stopCompactor = nil
		s.mu.Unlock()
		if stop != nil {
			close(stop)
			<-s.compactorDone
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closeLocked()
}

func (s *Store) closeLocked() error {
	if s.closed {
		return nil
	}
	s.closed = true
	var first error
	for _, seg := range s.segs {
		if err := seg.f.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Sync flushes the active segment to stable storage.
func (s *Store) Sync() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return errors.New("store: closed")
	}
	return s.segs[len(s.segs)-1].f.Sync()
}

// ReadAll streams every live record to fn in unspecified order; fn
// returning an error stops the walk. Offline compaction is built on
// this: open, ReadAll into a fresh store, swap directories.
func (s *Store) ReadAll(fn func(key, val []byte) error) error {
	s.mu.RLock()
	keys := make([]string, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, k)
	}
	s.mu.RUnlock()
	for _, k := range keys {
		val, ok, err := s.Get([]byte(k))
		if err != nil {
			return err
		}
		if !ok {
			continue // superseded between snapshot and read; impossible today (no deletes) but harmless
		}
		if err := fn([]byte(k), val); err != nil {
			return err
		}
	}
	return nil
}
