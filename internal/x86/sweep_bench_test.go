package x86

import (
	"context"
	"math/rand"
	"strconv"
	"sync"
	"testing"
)

// The sweep microbenchmark corpus: 4 MiB of compiler-shaped text per
// mode, built once. Large enough that the parallel build's fan-out is
// amortized and MB/s figures are stable.
var (
	benchTextOnce sync.Once
	benchText64   []byte
	benchText32   []byte
)

func sweepBenchText(mode Mode) []byte {
	benchTextOnce.Do(func() {
		rng := rand.New(rand.NewSource(424242))
		benchText64 = GenText(4<<20, Mode64, rng, 0)
		benchText32 = GenText(4<<20, Mode32, rng, 0)
	})
	if mode == Mode32 {
		return benchText32
	}
	return benchText64
}

// BenchmarkDecode measures single-instruction decode over the mixed
// instruction stream (fast path + slow path in realistic proportion).
func BenchmarkDecode(b *testing.B) {
	code := sweepBenchText(Mode64)
	b.SetBytes(int64(len(code)))
	b.ReportAllocs()
	var inst Inst
	for i := 0; i < b.N; i++ {
		off := 0
		for off < len(code) {
			if err := DecodeInto(code[off:], uint64(off), Mode64, &inst); err != nil {
				off++
				continue
			}
			off += inst.Len
		}
	}
}

// BenchmarkSweep measures the raw LinearSweep callback loop.
func BenchmarkSweep(b *testing.B) {
	for _, mode := range []Mode{Mode64, Mode32} {
		b.Run(mode.String(), func(b *testing.B) {
			code := sweepBenchText(mode)
			b.SetBytes(int64(len(code)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				n := 0
				LinearSweep(code, 0x401000, mode, func(inst *Inst) bool {
					n++
					return true
				})
				if n == 0 {
					b.Fatal("empty sweep")
				}
			}
		})
	}
}

// BenchmarkSweepRecords measures the sequential records sweep — the
// paper's Table III linear-sweep cost, in MB/s.
func BenchmarkSweepRecords(b *testing.B) {
	code := sweepBenchText(Mode64)
	b.SetBytes(int64(len(code)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := SweepRecords(context.Background(), code, 0x401000, Mode64, 1)
		if err != nil || len(r.Calls) == 0 {
			b.Fatalf("sweep: %v (%d calls)", err, len(r.Calls))
		}
	}
}

// BenchmarkSweepRecordsParallel measures the sharded records sweep at
// several worker counts against the same corpus as
// BenchmarkSweepRecords.
func BenchmarkSweepRecordsParallel(b *testing.B) {
	code := sweepBenchText(Mode64)
	for _, workers := range []int{2, 4, 8} {
		b.Run("workers="+strconv.Itoa(workers), func(b *testing.B) {
			b.SetBytes(int64(len(code)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := SweepRecords(context.Background(), code, 0x401000, Mode64, workers)
				if err != nil || len(r.Calls) == 0 {
					b.Fatalf("sweep: %v (%d calls)", err, len(r.Calls))
				}
			}
		})
	}
}
