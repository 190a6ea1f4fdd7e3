package x86

import (
	"context"
	"errors"
	"fmt"
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

	// workers=1 is the sequential sweep, which serves every text below
	// the parallel threshold; workers=4 is the sharded sweep. Both must
	// honour a done context.
	t.Run("pre-canceled", func(t *testing.T) {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				r, err := SweepRecords(ctx, text, 0x401000, Mode64, workers)
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
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
				ctx, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
				defer cancel()
				if _, err := SweepRecords(ctx, text, 0x401000, Mode64, workers); !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("err = %v, want context.DeadlineExceeded", err)
				}
			})
		}
	})
}
