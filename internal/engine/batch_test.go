package engine

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/funseeker/funseeker/internal/core"
)

// TestFilesWindow: with the consumer stuck on the first result, Files
// launches at most 2×Jobs analyses beyond it and then stops reading
// ahead, the same window /v1/batch keeps. The files share one image, so every
// analysis after the first is a cache hit and an unbounded producer
// would reach all of them within milliseconds.
func TestFilesWindow(t *testing.T) {
	paths := writeCopies(t, testBinaries(t, 1)[0], 64)
	const jobs = 2
	e := New(Config{Jobs: jobs})
	launched := uint64(1 + 2*jobs) // result 0 and the window behind it

	release := make(chan struct{})
	done := make(chan error, 1)
	calls := 0
	go func() {
		done <- e.Files(context.Background(), paths, core.Config4, func(fr FileResult) error {
			if calls == 0 {
				<-release
			}
			calls++
			return fr.Err
		})
	}()

	waitRequests(t, e, launched)
	time.Sleep(200 * time.Millisecond) // room for a runaway producer to show
	if got := e.Stats().Engine.Requests; got > launched {
		t.Fatalf("%d analyses launched while result 0 was unconsumed, want at most %d", got, launched)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if calls != len(paths) {
		t.Fatalf("callback ran %d times, want %d", calls, len(paths))
	}
}

// TestFilesCancel: canceling ctx mid-batch still delivers every path
// once, in order; the files never read carry ctx.Err(), which is also
// the return value.
func TestFilesCancel(t *testing.T) {
	paths := writeCopies(t, testBinaries(t, 1)[0], 16)
	e := New(Config{Jobs: 1})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var got []FileResult
	err := e.Files(ctx, paths, core.Config4, func(fr FileResult) error {
		got = append(got, fr)
		cancel()
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Files = %v, want context.Canceled", err)
	}
	if len(got) != len(paths) {
		t.Fatalf("delivered %d results, want %d", len(got), len(paths))
	}
	for i, fr := range got {
		if fr.Path != paths[i] {
			t.Fatalf("result %d is %s, want %s", i, fr.Path, paths[i])
		}
	}
	if last := got[len(got)-1]; !errors.Is(last.Err, context.Canceled) {
		t.Fatalf("unread file's error = %v, want context.Canceled", last.Err)
	}
}

// TestBatchPullsWithinWindow drives Batch directly: with emit stuck on
// member 0, next is called at most 2×Jobs times beyond it; once
// released, every member is emitted in pull order — a preset Err passed
// through unanalyzed — and next's error comes back after the members
// before it.
func TestBatchPullsWithinWindow(t *testing.T) {
	raw := testBinaries(t, 1)[0]
	e := New(Config{Jobs: 1})
	const pullsAhead, members = 2, 10
	rejected := errors.New("rejected by the caller")
	damaged := errors.New("framing damage")

	pulls := make(chan int, members+1)
	n := 0
	next := func() (Member, error) {
		n++
		pulls <- n
		switch {
		case n > members:
			return Member{}, damaged
		case n == 3:
			return Member{Name: "m3", Err: rejected}, nil
		}
		return Member{Name: fmt.Sprintf("m%d", n), Data: raw}, nil
	}
	release := make(chan struct{})
	done := make(chan error, 1)
	var names []string
	go func() {
		done <- e.Batch(context.Background(), next, core.Config4, func(m Member, res *Result, err error) error {
			if len(names) == 0 {
				<-release
			}
			names = append(names, m.Name)
			switch {
			case m.Name == "m3" && !errors.Is(err, rejected):
				return fmt.Errorf("m3: err = %v, want the preset error", err)
			case m.Name != "m3" && (err != nil || res == nil):
				return fmt.Errorf("%s: err = %v", m.Name, err)
			case m.Data != nil:
				return fmt.Errorf("%s: emit sees the member's bytes", m.Name)
			}
			return nil
		})
	}()

	deadline := time.Now().Add(10 * time.Second)
	for len(pulls) < 1+pullsAhead {
		if time.Now().After(deadline) {
			t.Fatalf("next called %d times, want %d", len(pulls), 1+pullsAhead)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(200 * time.Millisecond) // room for a runaway producer to show
	if got := len(pulls); got > 1+pullsAhead {
		t.Fatalf("next called %d times while member 0 was unconsumed, want at most %d", got, 1+pullsAhead)
	}
	close(release)
	if err := <-done; !errors.Is(err, damaged) {
		t.Fatalf("Batch = %v, want next's error", err)
	}
	if len(names) != members {
		t.Fatalf("emitted %d members before next's error, want %d", len(names), members)
	}
	for i, name := range names {
		if want := fmt.Sprintf("m%d", i+1); name != want {
			t.Fatalf("emit %d got %s, want %s", i, name, want)
		}
	}
	if st := e.Stats(); st.Engine.Requests != members-1 {
		t.Fatalf("%d analyses, want %d (the rejected member is not analyzed)", st.Engine.Requests, members-1)
	}
}

// writeCopies writes n copies of raw into a fresh directory and returns
// their paths in order.
func writeCopies(t *testing.T, raw []byte, n int) []string {
	t.Helper()
	dir := t.TempDir()
	paths := make([]string, n)
	for i := range paths {
		paths[i] = filepath.Join(dir, fmt.Sprintf("p%02d", i))
		if err := os.WriteFile(paths[i], raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return paths
}

// waitRequests polls until the engine has seen at least n Analyze calls.
func waitRequests(t *testing.T, e *Engine, n uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for e.Stats().Engine.Requests < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d analyses launched, want %d", e.Stats().Engine.Requests, n)
		}
		time.Sleep(time.Millisecond)
	}
}
