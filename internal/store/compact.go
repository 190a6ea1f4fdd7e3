package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// CompactResult summarizes one completed compaction.
type CompactResult struct {
	// SegmentsCompacted is how many cold segments were merged.
	SegmentsCompacted int `json:"segments_compacted"`
	// RecordsKept is the number of live records copied into the
	// compacted segment.
	RecordsKept int `json:"records_kept"`
	// BytesBefore / BytesAfter are the cold segments' on-disk size
	// before and after the rewrite.
	BytesBefore int64 `json:"bytes_before"`
	BytesAfter  int64 `json:"bytes_after"`
	// ReclaimedBytes is BytesBefore - BytesAfter.
	ReclaimedBytes int64 `json:"reclaimed_bytes"`
}

// Compact rewrites every cold (non-active) segment into a single new
// segment holding only the newest record per key, then deletes the
// originals. The active segment is rotated first so all data is cold
// and the append path never contends with the rewrite.
//
// Crash safety is by ordering, not by locking — the same argument the
// torn-tail recovery battery pins:
//
//  1. Live records are copied into seg-<K>.log.tmp, where K is the
//     highest cold segment id. A crash here leaves the originals
//     untouched; Open ignores and removes *.tmp.
//  2. The tmp is fsynced, then atomically renamed over seg-<K>.log,
//     and the directory is fsynced. A crash after the rename replays
//     the surviving older segments first and the compacted segment
//     last (higher id), so every stale duplicate is superseded by the
//     compacted newest-per-key copy — replay order is the correctness
//     argument, and it needs K to be the *maximum* cold id.
//  3. Older cold segment files are deleted. Each delete only removes
//     records already superseded by the compacted segment, so any
//     crash mid-delete leaves a replayable store.
//
// Concurrent Puts land in the rotated active segment (a strictly
// higher id) and are never touched; a Put that supersedes a key mid
// compaction simply leaves that key's compacted copy as garbage for
// the next cycle. Concurrent Gets that raced the in-memory swap retry
// on the closed old handle (see Get).
func (s *Store) Compact() (CompactResult, error) {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()

	// Phase 1 (write lock): rotate the active segment if it holds data,
	// then snapshot the cold segments and the live records inside them.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return CompactResult{}, errors.New("store: closed")
	}
	active := s.segs[len(s.segs)-1]
	if active.size > 0 {
		next, err := s.createSegment(active.id + 1)
		if err != nil {
			s.mu.Unlock()
			return CompactResult{}, err
		}
		s.segs = append(s.segs, next)
	}
	cold := make([]*segment, len(s.segs)-1)
	copy(cold, s.segs[:len(s.segs)-1])
	if len(cold) == 0 {
		s.mu.Unlock()
		return CompactResult{}, nil
	}
	coldSet := make(map[*segment]bool, len(cold))
	var bytesBefore int64
	for _, seg := range cold {
		coldSet[seg] = true
		bytesBefore += seg.size
	}
	type liveEntry struct {
		key string
		loc location
	}
	live := make([]liveEntry, 0, len(s.index))
	for k, loc := range s.index {
		if coldSet[loc.seg] {
			live = append(live, liveEntry{key: k, loc: loc})
		}
	}
	newID := cold[len(cold)-1].id
	s.mu.Unlock()

	// Sequential read order: segment by segment, ascending offset.
	sort.Slice(live, func(i, j int) bool {
		if live[i].loc.seg.id != live[j].loc.seg.id {
			return live[i].loc.seg.id < live[j].loc.seg.id
		}
		return live[i].loc.valOff < live[j].loc.valOff
	})

	// Phase 2 (no lock): copy each live record into the tmp file. The
	// cold segments' handles stay open — nothing closes them while
	// compactMu is held except Close, which turns the reads below into
	// errors and aborts the compaction before any visible change.
	finalPath := filepath.Join(s.dir, segmentName(newID))
	tmpPath := finalPath + ".tmp"
	os.Remove(tmpPath) // a dead compaction's leftover
	f, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return CompactResult{}, err
	}
	cleanup := func() {
		f.Close()
		os.Remove(tmpPath)
	}
	newLocs := make([]int64, len(live)) // value offset of live[i] in the new segment
	var newSize int64
	for i, ent := range live {
		val := make([]byte, ent.loc.valLen)
		if _, err := ent.loc.seg.f.ReadAt(val, ent.loc.valOff); err != nil {
			cleanup()
			return CompactResult{}, fmt.Errorf("store: compact read %s@%d: %w", ent.loc.seg.path, ent.loc.valOff, err)
		}
		rec, err := encodeRecord([]byte(ent.key), val)
		if err != nil {
			cleanup()
			return CompactResult{}, err
		}
		if _, err := f.WriteAt(rec, newSize); err != nil {
			cleanup()
			return CompactResult{}, err
		}
		newLocs[i] = newSize + headerSize + int64(len(ent.key))
		newSize += int64(len(rec))
	}
	if err := f.Sync(); err != nil {
		cleanup()
		return CompactResult{}, err
	}

	// Phase 3: atomic rename, then swap the in-memory view. The old
	// handle of seg-<K>.log keeps reading the old inode after the
	// rename (POSIX), so readers holding pre-swap locations are safe
	// until the handles are closed below — and Get retries that race.
	if err := os.Rename(tmpPath, finalPath); err != nil {
		cleanup()
		return CompactResult{}, err
	}
	if d, err := os.Open(s.dir); err == nil {
		d.Sync()
		d.Close()
	}
	newSeg := &segment{id: newID, path: finalPath, f: f, size: newSize}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		f.Close()
		return CompactResult{}, errors.New("store: closed")
	}
	for i, ent := range live {
		// Repoint only entries still exactly where the snapshot saw
		// them; a key superseded mid-compaction keeps its newer
		// location and its compacted copy becomes garbage.
		if cur, ok := s.index[ent.key]; ok && cur == ent.loc {
			s.index[ent.key] = location{seg: newSeg, valOff: newLocs[i], valLen: ent.loc.valLen}
		}
	}
	kept := s.segs[len(cold):]
	s.segs = append([]*segment{newSeg}, kept...)
	s.compactions++
	s.reclaimedBytes += bytesBefore - newSize
	s.mu.Unlock()

	// Delete the superseded files. The compacted segment reused
	// cold[last]'s path via the rename, so only its stale handle is
	// closed; every older segment loses both handle and file.
	for i, seg := range cold {
		seg.f.Close()
		if i < len(cold)-1 {
			os.Remove(seg.path)
		}
	}

	return CompactResult{
		SegmentsCompacted: len(cold),
		RecordsKept:       len(live),
		BytesBefore:       bytesBefore,
		BytesAfter:        newSize,
		ReclaimedBytes:    bytesBefore - newSize,
	}, nil
}

// maybeCompact runs one background-compactor check: compact when the
// store is big enough and garbage-heavy enough.
func (s *Store) maybeCompact() {
	st := s.Stats()
	if st.SegmentBytes < compactMinBytes {
		return
	}
	if st.Compaction.GarbageRatio < compactGarbageRatio {
		return
	}
	s.Compact() // errors (e.g. racing Close) are dropped; next tick retries
}

// compactLoop is the background compactor goroutine started by Open
// when Options.CompactEvery > 0. The stop channel is passed in because
// Close nils the struct field to make double-Close safe.
func (s *Store) compactLoop(stop <-chan struct{}) {
	defer close(s.compactorDone)
	t := time.NewTicker(s.opts.CompactEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.maybeCompact()
		case <-stop:
			return
		}
	}
}
