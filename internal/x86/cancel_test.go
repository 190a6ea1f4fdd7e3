package x86

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// cancelTestText returns a deterministic multi-megabyte code buffer —
// large enough that every cancellation path crosses many cancelStride
// boundaries. Generated once and shared read-only across the tests.
var cancelTestTextOnce = sync.OnceValue(func() []byte {
	rng := rand.New(rand.NewSource(20260806))
	return GenText(2<<20, Mode64, rng, 0)
})

func cancelTestText(tb testing.TB) []byte {
	tb.Helper()
	return cancelTestTextOnce()
}

// TestSweepRecordsCtx: a background context never cancels and the
// sharded sweep still matches the sequential one; a done context stops
// both strategies at their first stride check with ctx.Err() and no
// records.
func TestSweepRecordsCtx(t *testing.T) {
	text := cancelTestText(t)

	t.Run("background matches sequential", func(t *testing.T) {
		want, err := SweepRecords(context.Background(), text, 0x401000, Mode64, 1)
		if err != nil {
			t.Fatalf("sequential sweep: %v", err)
		}
		got, err := SweepRecords(context.Background(), text, 0x401000, Mode64, 4)
		if err != nil {
			t.Fatalf("sharded sweep: %v", err)
		}
		if d := got.Diff(want); d != "" {
			t.Fatalf("sharded sweep diverged: %s", d)
		}
	})

	// workers=1 and auto on a text below minParallelBytes are the
	// one-shard sweep; workers=4 is the sharded sweep. All must honour a
	// done context.
	small := text[:minParallelBytes/2]
	cases := []struct {
		name    string
		text    []byte
		workers int
	}{
		{"workers=1", text, 1},
		{"auto-small", small, 0},
		{"workers=4", text, 4},
	}
	t.Run("pre-canceled", func(t *testing.T) {
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				r, err := SweepRecords(ctx, tc.text, 0x401000, Mode64, tc.workers)
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", err)
				}
				if r != nil {
					t.Fatal("canceled sweep returned non-nil records")
				}
			})
		}
	})

	t.Run("deadline", func(t *testing.T) {
		// A deadline already in the past: the sweep must observe it at
		// its first stride check.
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				ctx, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
				defer cancel()
				r, err := SweepRecords(ctx, tc.text, 0x401000, Mode64, tc.workers)
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("err = %v, want context.DeadlineExceeded", err)
				}
				if r != nil {
					t.Fatal("timed-out sweep returned non-nil records")
				}
			})
		}
	})
}
