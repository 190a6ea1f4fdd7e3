package main

import (
	"archive/tar"
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"github.com/funseeker/funseeker/internal/engine"
	"github.com/funseeker/funseeker/internal/upload"
)

// batchRecord is one NDJSON line of a /v1/batch response: exactly one
// of Result or Error is set. Index is the member's position in the
// uploaded archive — records are emitted strictly in index order, so a
// client can zip its manifest against the stream without buffering.
type batchRecord struct {
	Index int    `json:"index"`
	Name  string `json:"name,omitempty"`
	// Error/Kind mirror the single-shot error envelope: Kind is the
	// stable taxonomy sentinel ("not_elf", "not_cet", ...) clients
	// branch on. A member's failure never aborts the stream.
	Error  string           `json:"error,omitempty"`
	Kind   string           `json:"kind,omitempty"`
	Result *analyzeResponse `json:"result,omitempty"`
	// StoreKey is the hex persistent-store key of this member's result
	// — the batch-stream equivalent of the X-Funseeker-Store-Key
	// header, so a proxy can replicate every member without recomputing
	// content hashes. Empty on error records.
	StoreKey string `json:"store_key,omitempty"`
}

// batchSummary is the final NDJSON line: totals for the whole batch.
// Truncated is set when the archive itself was unreadable past some
// point (framing damage) — per-member failures do not set it.
type batchSummary struct {
	Summary   bool    `json:"summary"`
	Items     int     `json:"items"`
	OK        int     `json:"ok"`
	Errors    int     `json:"errors"`
	Truncated bool    `json:"truncated,omitempty"`
	Canceled  bool    `json:"canceled,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// handleBatch implements POST /v1/batch: a tar stream of ELF images in,
// an NDJSON stream of per-member records out, one line per member in
// archive order, then one summary line.
//
// Concurrency and backpressure come from engine.Batch: at most 2×jobs
// members are in flight behind the one being streamed, and while that
// window is full the archive
// reader stops, which stops reading the request body, which
// backpressures the uploader through TCP — a slow analysis pipeline
// slows the upload instead of buffering the whole archive in memory.
//
// Cancellation: if the client disconnects mid-stream, the request
// context cancels every in-flight member analysis; the batch drains
// what was already launched, counting but not sending its records, and
// the handler returns. Per-member error isolation:
// a member that fails (not ELF, truncated, over the per-member size
// cap) produces an error record and the stream continues.
func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if retry, shed := s.shed.overloaded(); shed {
		s.shedTotal.Inc()
		w.Header().Set("Retry-After", fmt.Sprintf("%d", int(retry.Seconds())))
		writeErrorKind(w, r, http.StatusTooManyRequests,
			errors.New("queue-wait p99 over the shed bound; retry later"), "overloaded")
		return
	}
	opts, configN, err := parseAnalyzeOptions(r.URL.Query())
	if err != nil {
		writeErrorKind(w, r, http.StatusBadRequest, err, "bad_request")
		return
	}
	next, drain, err := s.batchIterator(w, r)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return
	}
	// Leave the request body at EOF (or error) before returning: in
	// full-duplex mode the server's own end-of-request cleanup must not
	// find a half-read body. Instant on the clean path, capped by
	// maxBatchBytes on the damaged-archive path, and an immediate error
	// once the client is gone.
	defer drain()

	// Batch is a full-duplex handler: the producer is still reading the
	// archive off the request body while the consumer streams records
	// back. Without this, the HTTP/1 server drains the unread body
	// before the first response write — swallowing archive members (or
	// blocking forever on a stalled uploader) the moment we flush.
	if err := http.NewResponseController(w).EnableFullDuplex(); err != nil {
		writeError(w, r, http.StatusInternalServerError, err)
		return
	}

	// The stream starts here: everything after this line is NDJSON
	// records, errors included.
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()

	var items, ok, errs int
	clientGone := false
	emit := func(rec batchRecord) {
		rec.Index = items
		items++
		if rec.Error != "" {
			errs++
			s.batchItems.With("error").Inc()
		} else {
			ok++
			s.batchItems.With("ok").Inc()
		}
		if clientGone {
			return // draining: outcomes are awaited, records unsendable
		}
		if werr := enc.Encode(rec); werr != nil {
			// The client is gone. Cancel the in-flight analyses; the
			// batch still drains what it launched before returning.
			clientGone = true
			cancel()
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	framingDamage := false
	pull := func() (engine.Member, error) {
		m, err := next()
		framingDamage = err != nil && err != io.EOF
		return m, err
	}
	err = s.eng.Batch(ctx, pull, opts, func(m engine.Member, res *engine.Result, err error) error {
		emit(s.batchRecordFor(m.Name, res, err, configN))
		return nil
	})
	if framingDamage {
		// Past framing damage there is no trustworthy member boundary, so
		// the walk stopped; everything before it was still emitted.
		emit(batchRecord{Error: fmt.Sprintf("archive unreadable: %v", err), Kind: "archive"})
	}
	if clientGone {
		return
	}
	_ = enc.Encode(batchSummary{
		Summary:   true,
		Items:     items,
		OK:        ok,
		Errors:    errs,
		Truncated: err != nil,
		Canceled:  ctx.Err() != nil,
		ElapsedMS: float64(time.Since(start)) / float64(time.Millisecond),
	})
}

// rejectedMember is the preset error of a member refused before
// analysis; kind is its record's Kind.
type rejectedMember struct{ kind, msg string }

func (r rejectedMember) Error() string { return r.msg }

// batchRecordFor renders one resolved member as its NDJSON record; the
// caller numbers it.
func (s *server) batchRecordFor(name string, res *engine.Result, err error, configN int) batchRecord {
	if err != nil {
		_, kind := classifyAnalyzeError(err)
		if rej, isRej := err.(rejectedMember); isRej {
			kind = rej.kind
		}
		return batchRecord{Name: name, Error: err.Error(), Kind: kind}
	}
	s.analyzeByArch.With(res.Answer.Arch).Inc()
	resp := buildAnalyzeResponse(res, configN)
	return batchRecord{Name: name, Result: &resp, StoreKey: res.StoreKey}
}

// batchIterator returns a pull function over the uploaded tar stream's
// members — one engine.Member per regular file, io.EOF at a clean end,
// any other error on framing damage — plus a drain that consumes the
// body remainder. A multipart form is refused up front. The whole
// upload is capped at maxBatchBytes. A member over maxBodyBytes is
// judged by its header and never buffered: its data is discarded
// (skipTooLarge).
func (s *server) batchIterator(w http.ResponseWriter, r *http.Request) (func() (engine.Member, error), func(), error) {
	if err := refuseMultipart(r, "the members as a tar stream (curl --data-binary @archive.tar)"); err != nil {
		return nil, nil, err
	}
	body := http.MaxBytesReader(w, r.Body, s.cfg.maxBatchBytes)
	drain := func() { _, _ = io.Copy(io.Discard, body) }
	limit := s.cfg.maxBodyBytes
	// Read from the body before the handler writes its header: the first
	// read is what answers a client's "Expect: 100-continue", and once the
	// 200 is out net/http never sends it, so curl (which asks for any
	// upload over 1 MiB) would wait a second before uploading. The tar
	// reader meets a failed peek's error again on its own first read.
	br := bufio.NewReader(body)
	_, _ = br.Peek(1)
	tr := tar.NewReader(br)
	return func() (engine.Member, error) {
		for {
			hdr, err := tr.Next()
			if err != nil {
				return engine.Member{}, err
			}
			if hdr.Typeflag != tar.TypeReg {
				continue // directories and special members carry no image
			}
			if hdr.Size > limit {
				return skipTooLarge(hdr.Name, tr, limit)
			}
			data, err := upload.ReadAll(tr)
			if err != nil {
				return engine.Member{}, err
			}
			return member(hdr.Name, data), nil
		}
	}, drain, nil
}

// member is one read member, rejected up front when it is empty.
func member(name string, data []byte) engine.Member {
	if len(data) == 0 {
		return engine.Member{Name: name, Err: rejectedMember{"empty", "empty member"}}
	}
	return engine.Member{Name: name, Data: data}
}

// skipTooLarge discards the rest of an oversized member's data through
// a small copy buffer and reports the member as too_large. A member
// whose data is cut short returns the read error instead, so a damaged
// archive yields the one "archive" record as if the member had been
// read whole.
func skipTooLarge(name string, rest io.Reader, limit int64) (engine.Member, error) {
	if _, err := io.Copy(io.Discard, rest); err != nil {
		return engine.Member{}, err
	}
	return engine.Member{Name: name, Err: rejectedMember{"too_large",
		fmt.Sprintf("member exceeds the %d-byte per-binary limit", limit)}}, nil
}

// buildAnalyzeResponse renders one engine result as the wire shape
// shared by /v1/analyze and /v1/batch records.
func buildAnalyzeResponse(res *engine.Result, configN int) analyzeResponse {
	var cached any = false
	if res.CacheSource != "" {
		cached = res.CacheSource
	}
	return analyzeResponse{
		SHA256:    res.SHA256,
		Answer:    *res.Answer,
		Config:    configN,
		Cached:    cached,
		ElapsedMS: float64(res.Elapsed) / float64(time.Millisecond),
	}
}
