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

func TestBuildIndexParallelCtx(t *testing.T) {
	text := cancelTestText(t)

	t.Run("background matches sequential", func(t *testing.T) {
		want := BuildIndex(text, 0x401000, Mode64)
		got, err := BuildIndexParallelCtx(context.Background(), text, 0x401000, Mode64, 4)
		if err != nil {
			t.Fatalf("BuildIndexParallelCtx: %v", err)
		}
		if len(got.Insts) != len(want.Insts) {
			t.Fatalf("parallel ctx build diverged: %d insts, want %d", len(got.Insts), len(want.Insts))
		}
		for i := range got.Insts {
			if got.Insts[i] != want.Insts[i] {
				t.Fatalf("inst %d diverged: %+v vs %+v", i, got.Insts[i], want.Insts[i])
			}
		}
	})

	// workers=1 is the sequential buildIndexSeq fallback, which serves
	// every text below the parallel threshold; workers=4 is the sharded
	// build. Both must honour a done context.
	t.Run("pre-canceled", func(t *testing.T) {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				idx, err := BuildIndexParallelCtx(ctx, text, 0x401000, Mode64, workers)
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", err)
				}
				if idx != nil {
					t.Fatal("canceled build returned a non-nil index")
				}
			})
		}
	})

	t.Run("deadline", func(t *testing.T) {
		// A deadline already in the past: the build must observe it at
		// its first stride check.
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
				ctx, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
				defer cancel()
				if _, err := BuildIndexParallelCtx(ctx, text, 0x401000, Mode64, workers); !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("err = %v, want context.DeadlineExceeded", err)
				}
			})
		}
	})
}
