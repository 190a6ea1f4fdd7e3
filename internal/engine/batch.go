package engine

import (
	"bytes"
	"context"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"github.com/funseeker/funseeker/internal/core"
)

// elfMagic is the 4-byte ELF identification prefix used to filter
// directory walks.
var elfMagic = []byte{0x7f, 'E', 'L', 'F'}

// Expand resolves a mixed list of files and directories into the flat,
// deterministic (lexically ordered within each directory) list of
// candidate ELF files. Explicitly named files are always kept — the
// caller asked for them, so they deserve a real error if unreadable —
// while directory walks keep only regular files whose first bytes are
// the ELF magic, skipping ground-truth sidecars and other corpus
// clutter.
func Expand(paths []string) ([]string, error) {
	var out []string
	for _, p := range paths {
		info, err := os.Stat(p)
		if err != nil {
			return nil, err
		}
		if !info.IsDir() {
			out = append(out, p)
			continue
		}
		err = filepath.WalkDir(p, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.Type().IsRegular() {
				return nil
			}
			ok, err := hasELFMagic(path)
			if err != nil {
				return err
			}
			if ok {
				out = append(out, path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// hasELFMagic reports whether the file starts with \x7fELF.
func hasELFMagic(path string) (bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return false, err
	}
	defer f.Close()
	var head [4]byte
	n, _ := f.Read(head[:])
	return n == len(head) && bytes.Equal(head[:], elfMagic), nil
}

// Member is one input of a batch: a name and its image bytes, or a
// preset Err for an input the caller rejected before analysis (too
// large, empty, unreadable), which Batch hands to emit unanalyzed.
type Member struct {
	Name string
	Data []byte
	Err  error
}

// Batch is the engine's one batch pipeline. A producer goroutine pulls
// members from next, never concurrently, and launches one Analyze per
// member; emit receives each outcome on the calling goroutine, strictly
// in pull order, with the member's Data already dropped. At most 2×Jobs
// (minimum 2) members are launched ahead of the one being emitted: while
// that window is full the producer stops calling next, so a slow
// consumer backpressures the input instead of buffering it.
//
// io.EOF from next ends the batch cleanly; any other error from next is
// returned once every earlier member has been emitted. An emit error
// cancels the batch: emit is not called again, and that error is
// returned. Cancellation of ctx stops the pulling; the members already
// launched are still emitted, and Batch returns context.Cause(ctx).
// Batch returns only after next has returned for the last time and
// every analysis it launched has finished.
func (e *Engine) Batch(ctx context.Context, next func() (Member, error), opts core.Options, emit func(Member, *Result, error) error) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type pending struct {
		m    Member
		res  *Result
		err  error
		done chan struct{}
	}
	// The window is the queue plus the one member the producer may hold
	// launched while it waits for room.
	queue := make(chan *pending, max(2*e.jobs, 2)-1)
	var stopErr error // why the producer stopped; nil at io.EOF
	go func() {
		defer close(queue)
		for ctx.Err() == nil {
			m, err := next()
			if err != nil {
				if err != io.EOF {
					stopErr = err
				}
				return
			}
			p := &pending{m: Member{Name: m.Name, Err: m.Err}, err: m.Err, done: make(chan struct{})}
			if m.Err == nil {
				go func() {
					p.res, p.err = e.Analyze(ctx, m.Data, opts)
					close(p.done)
				}()
			} else {
				close(p.done)
			}
			queue <- p // the consumer drains the queue until it is closed
		}
		stopErr = context.Cause(ctx)
	}()

	var emitErr error
	for p := range queue {
		<-p.done
		if emitErr == nil {
			if emitErr = emit(p.m, p.res, p.err); emitErr != nil {
				cancel()
			}
		}
	}
	if emitErr != nil {
		return emitErr
	}
	return stopErr
}

// FileResult is the outcome of analyzing one file of a batch.
type FileResult struct {
	// Path is the input file.
	Path string
	// Result is the analysis result, nil when Err is set.
	Result *Result
	// Err is the per-file failure (unreadable, not ELF, canceled, ...).
	Err error
}

// Files analyzes every path through Batch and delivers one FileResult
// per input, in input order, to fn on the calling goroutine. Files are
// read on Batch's producer, at most 2×Jobs ahead of the one fn is given.
// Per-file failures are reported through FileResult.Err and do not stop
// the batch; fn returning a non-nil error cancels the remaining work and
// becomes Files' return value. Cancellation of ctx surfaces as ctx.Err()
// on every unfinished file and as the return value.
func (e *Engine) Files(ctx context.Context, paths []string, opts core.Options, fn func(FileResult) error) error {
	i := 0
	next := func() (Member, error) {
		if i == len(paths) {
			return Member{}, io.EOF
		}
		path := paths[i]
		i++
		raw, err := os.ReadFile(path)
		return Member{Name: path, Data: raw, Err: err}, nil
	}
	// next never fails, so Batch can only end with fn's error or ctx's,
	// both handled below.
	var fnErr error
	_ = e.Batch(ctx, next, opts, func(m Member, res *Result, err error) error {
		fnErr = fn(FileResult{Path: m.Name, Result: res, Err: err})
		return fnErr
	})
	// Batch stops pulling once ctx is canceled: the files it never read
	// are unfinished too.
	for ; fnErr == nil && ctx.Err() != nil && i < len(paths); i++ {
		fnErr = fn(FileResult{Path: paths[i], Err: ctx.Err()})
	}
	if fnErr != nil {
		return fnErr
	}
	return context.Cause(ctx)
}
