package analysis

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/funseeker/funseeker/internal/elfx"
	"github.com/funseeker/funseeker/internal/x86"
)

// bigBinary fabricates a binary with a megabyte-scale .text — large
// enough that the context auto-selects the parallel sweep and crosses
// many cancellation strides. The text is generated once and shared
// read-only; each call still gets a fresh Binary (and so a fresh memo).
var bigTextOnce = sync.OnceValue(func() []byte {
	rng := rand.New(rand.NewSource(8136))
	return x86.GenText(1<<20, x86.Mode64, rng, 0)
})

func bigBinary(tb testing.TB) *elfx.Binary {
	tb.Helper()
	return &elfx.Binary{
		Mode:     x86.Mode64,
		Text:     bigTextOnce(),
		TextAddr: 0x401000,
	}
}

func TestSweepCtxCanceledNotMemoized(t *testing.T) {
	c := NewContext(bigBinary(t))

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.SweepCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("SweepCtx(canceled) = %v, want context.Canceled", err)
	}
	if st := c.Stats(); st.Sweep.Computes != 0 {
		t.Fatalf("canceled sweep was memoized: %d computes", st.Sweep.Computes)
	}

	// A fresh context must recover: the failed attempt left no poison.
	sw, err := c.SweepCtx(context.Background())
	if err != nil {
		t.Fatalf("SweepCtx after cancellation: %v", err)
	}
	if len(sw.JumpRefs) == 0 {
		t.Fatal("recovered sweep is empty")
	}
	if st := c.Stats(); st.Sweep.Computes != 1 {
		t.Fatalf("recovered sweep computes = %d, want 1", st.Sweep.Computes)
	}
}

// TestSweepCtxStopsEarly bounds the CPU a canceled sweep may burn: a
// context canceled up front must return far faster than the full sweep.
// The margin is deliberately huge (10×) to stay robust on loaded CI
// machines.
func TestSweepCtxStopsEarly(t *testing.T) {
	bin := bigBinary(t)

	full := NewContext(bin)
	start := time.Now()
	if _, err := full.SweepCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	fullTime := time.Since(start)

	canceled := NewContext(bin)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start = time.Now()
	if _, err := canceled.SweepCtx(ctx); err == nil {
		t.Fatal("canceled sweep succeeded")
	}
	earlyTime := time.Since(start)

	if earlyTime > fullTime/10+5*time.Millisecond {
		t.Fatalf("canceled sweep took %v, full sweep %v — cancellation did not stop it early", earlyTime, fullTime)
	}
}

// TestSweepCtxWaiterCancellation checks a goroutine waiting behind an
// in-flight sweep can abandon the wait when its own context dies, and
// that the computing goroutine's result is shared once memoized.
func TestSweepCtxWaiterCancellation(t *testing.T) {
	c := NewContext(bigBinary(t))

	const readers = 8
	var wg sync.WaitGroup
	results := make([]error, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := context.Background()
			if i%2 == 1 {
				// Odd readers carry a context that dies almost at once.
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, time.Microsecond)
				defer cancel()
			}
			_, results[i] = c.SweepCtx(ctx)
		}(i)
	}
	wg.Wait()

	for i, err := range results {
		if i%2 == 0 && err != nil {
			t.Errorf("background reader %d failed: %v", i, err)
		}
		if i%2 == 1 && err != nil && !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("deadline reader %d returned %v", i, err)
		}
	}

	// Whatever the interleaving, the context must end in a usable state.
	sw, err := c.SweepCtx(context.Background())
	if err != nil || len(sw.JumpRefs) == 0 {
		t.Fatalf("post-hammer sweep: %v (jumps=%d)", err, len(sw.JumpRefs))
	}
	if st := c.Stats(); st.Sweep.Computes != 1 {
		t.Fatalf("sweep computed %d times, want exactly 1 memoized compute", st.Sweep.Computes)
	}
}
