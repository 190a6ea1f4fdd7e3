package main

import (
	"archive/tar"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"mime/multipart"
	"net/http"
	"time"

	"github.com/funseeker/funseeker/internal/engine"
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
	// content hashes. Empty on error records and storeless replicas.
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

// batchOutcome is what one member's analysis resolved to.
type batchOutcome struct {
	res *engine.Result
	err error
}

// batchJob is one archive member in flight: the producer enqueues it,
// a per-member goroutine resolves done (buffered, so the resolver
// never blocks and never leaks even if the consumer bails), and the
// consumer emits its record in order.
type batchJob struct {
	index int
	name  string
	// skip short-circuits members rejected before analysis (empty,
	// oversized) with a prebuilt error record.
	skip *batchRecord
	done chan batchOutcome
}

// handleBatch implements POST /v1/batch: a tar archive (or multipart
// form) of ELF images in, an NDJSON stream of per-member records out,
// one line per member in archive order, then one summary line.
//
// Concurrency and backpressure: members are analyzed up to 2×jobs at a
// time. The producer (archive reader) blocks once that window is full,
// which stops reading the request body, which backpressures the
// uploader through TCP — a slow analysis pipeline slows the upload
// instead of buffering the whole archive in memory.
//
// Cancellation: if the client disconnects mid-stream, the request
// context cancels every in-flight member analysis; the handler drains
// what was already launched and returns. Per-member error isolation:
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

	window := 2 * s.eng.Jobs()
	if window < 2 {
		window = 2
	}
	jobs := make(chan *batchJob, window)
	truncated := make(chan bool, 1)

	// Producer: walk the archive, launch one analysis per member.
	go func() {
		defer close(jobs)
		index := 0
		for {
			m, rerr := next()
			if rerr == io.EOF {
				truncated <- false
				return
			}
			if rerr != nil {
				// Archive framing damage: past this point there is no
				// trustworthy member boundary, so the walk must stop —
				// but everything already enqueued still completes.
				truncated <- true
				select {
				case jobs <- &batchJob{index: index, skip: &batchRecord{
					Index: index,
					Error: fmt.Sprintf("archive unreadable: %v", rerr),
					Kind:  "archive",
				}}:
				case <-ctx.Done():
				}
				return
			}
			job := &batchJob{index: index, name: m.name, done: make(chan batchOutcome, 1)}
			if m.tooLarge {
				job.skip = &batchRecord{Index: index, Name: m.name,
					Error: fmt.Sprintf("member exceeds the %d-byte per-binary limit", s.cfg.maxBodyBytes),
					Kind:  "too_large"}
			} else if len(m.data) == 0 {
				job.skip = &batchRecord{Index: index, Name: m.name, Error: "empty member", Kind: "empty"}
			}
			select {
			case jobs <- job:
			case <-ctx.Done():
				truncated <- true
				return
			}
			if job.skip == nil {
				go func(raw []byte) {
					res, aerr := s.eng.Analyze(ctx, raw, opts)
					job.done <- batchOutcome{res: res, err: aerr}
				}(m.data)
			}
			index++
		}
	}()

	// Consumer: emit records strictly in archive order.
	var items, ok, errs int
	clientGone := false
	for job := range jobs {
		rec := job.skip
		if rec == nil {
			out := <-job.done
			rec = s.batchRecordFor(job, out, configN)
		}
		items++
		if rec.Error != "" {
			errs++
			s.batchItems.With("error").Inc()
		} else {
			ok++
			s.batchItems.With("ok").Inc()
		}
		if clientGone {
			continue // draining: outcomes are awaited, records unsendable
		}
		if werr := enc.Encode(rec); werr != nil {
			// The client is gone. Cancel the in-flight analyses and keep
			// draining so every launched member resolves before we return.
			clientGone = true
			cancel()
			continue
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	if clientGone {
		return
	}
	_ = enc.Encode(batchSummary{
		Summary:   true,
		Items:     items,
		OK:        ok,
		Errors:    errs,
		Truncated: <-truncated,
		Canceled:  ctx.Err() != nil,
		ElapsedMS: float64(time.Since(start)) / float64(time.Millisecond),
	})
}

// batchRecordFor renders one resolved member as its NDJSON record.
func (s *server) batchRecordFor(job *batchJob, out batchOutcome, configN int) *batchRecord {
	if out.err != nil {
		_, kind := classifyAnalyzeError(out.err)
		return &batchRecord{Index: job.index, Name: job.name, Error: out.err.Error(), Kind: kind}
	}
	s.analyzeByArch.With(out.res.Report.Arch).Inc()
	resp := buildAnalyzeResponse(out.res, configN)
	return &batchRecord{Index: job.index, Name: job.name, Result: &resp, StoreKey: out.res.StoreKey}
}

// batchMember is one archive member as the batch iterator hands it
// over: its name and bytes, or tooLarge (and no bytes) when it is over
// the per-binary cap.
type batchMember struct {
	name     string
	data     []byte
	tooLarge bool
}

// batchIterator returns a pull function over the uploaded archive's
// members — one batchMember per member, io.EOF at a clean end, any
// other error on framing damage — plus a drain that consumes the body
// remainder. The format is chosen by Content-Type: multipart/form-data
// streams its file parts, anything else is read as a tar stream. The
// whole upload is capped at maxBatchBytes. A member over maxBodyBytes is
// never buffered: a tar member is judged by its header, a multipart part
// by reading one byte past the cap, and the rest of its data is
// discarded (skipTooLarge).
func (s *server) batchIterator(w http.ResponseWriter, r *http.Request) (func() (batchMember, error), func(), error) {
	body := http.MaxBytesReader(w, r.Body, s.cfg.maxBatchBytes)
	drain := func() { _, _ = io.Copy(io.Discard, body) }
	limit := s.cfg.maxBodyBytes
	mediaType, params, _ := mime.ParseMediaType(r.Header.Get("Content-Type"))
	if mediaType == "multipart/form-data" {
		boundary := params["boundary"]
		if boundary == "" {
			return nil, nil, errors.New("multipart request without a boundary")
		}
		mr := multipart.NewReader(body, boundary)
		return func() (batchMember, error) {
			for {
				part, err := mr.NextPart()
				if err != nil {
					return batchMember{}, err
				}
				if part.FileName() == "" && part.FormName() != "binary" {
					continue // non-file fields (options, junk) are skipped
				}
				name := part.FileName()
				if name == "" {
					name = part.FormName()
				}
				data, err := io.ReadAll(io.LimitReader(part, limit+1))
				if err != nil {
					return batchMember{}, err
				}
				if int64(len(data)) > limit {
					return skipTooLarge(name, part)
				}
				return batchMember{name: name, data: data}, nil
			}
		}, drain, nil
	}
	// Tar: regular files only; directories and special members skipped.
	tr := tar.NewReader(body)
	return func() (batchMember, error) {
		for {
			hdr, err := tr.Next()
			if err != nil {
				return batchMember{}, err
			}
			if hdr.Typeflag != tar.TypeReg {
				continue
			}
			if hdr.Size > limit {
				return skipTooLarge(hdr.Name, tr)
			}
			data, err := io.ReadAll(tr)
			if err != nil {
				return batchMember{}, err
			}
			return batchMember{name: hdr.Name, data: data}, nil
		}
	}, drain, nil
}

// skipTooLarge discards the rest of an oversized member's data through
// a small copy buffer and reports the member as tooLarge. A member whose
// data is cut short returns the read error instead, so a damaged archive
// yields the one "archive" record as if the member had been read whole.
func skipTooLarge(name string, rest io.Reader) (batchMember, error) {
	if _, err := io.Copy(io.Discard, rest); err != nil {
		return batchMember{}, err
	}
	return batchMember{name: name, tooLarge: true}, nil
}

// buildAnalyzeResponse renders one engine result as the wire shape
// shared by /v1/analyze and /v1/batch records.
func buildAnalyzeResponse(res *engine.Result, configN int) analyzeResponse {
	var cached any = false
	if res.Cached {
		cached = res.CacheSource
	}
	rep := res.Report
	return analyzeResponse{
		SHA256:                 res.SHA256,
		Arch:                   rep.Arch,
		Config:                 configN,
		Cached:                 cached,
		ElapsedMS:              float64(res.Elapsed) / float64(time.Millisecond),
		Entries:                rep.Entries,
		Endbrs:                 len(rep.Endbrs),
		CallTargets:            len(rep.CallTargets),
		JumpTargets:            len(rep.JumpTargets),
		TailCallTargets:        len(rep.TailCallTargets),
		FilteredIndirectReturn: rep.FilteredIndirectReturn,
		FilteredLandingPads:    rep.FilteredLandingPads,
		FusedFDEEntries:        rep.FusedFDEEntries,
		Warnings:               rep.Warnings,
	}
}
