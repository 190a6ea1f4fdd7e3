package x86

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// lenFills are the bytes after the enumerated third byte: zeros, a
// ModRM/SIB base of 5 (the disp32 forms), a SIB marker, and all ones.
var lenFills = []byte{0x00, 0x05, 0x04, 0xFF}

// lenREXes are the REX prefixes the REX probe is enumerated behind: no
// bits, B alone, W alone, and all four.
var lenREXes = []byte{0x40, 0x41, 0x48, 0x4F}

// lenWitness gathers, over the encodings that share a table miss, why
// the table could not have answered: scan declines one of them, one is
// of a recorded class, or two of them differ in length.
type lenWitness struct {
	n                          int
	declined, recorded, differ bool
}

func (w *lenWitness) note(code []byte, mode Mode) {
	n, class, _, ok := scan(code, 0x401000, mode, nil)
	switch {
	case !ok:
		w.declined = true
	case class.recorded():
		w.recorded = true
	case w.n == 0:
		w.n = n
	case w.n != n:
		w.differ = true
	}
}

func (w *lenWitness) justified() bool { return w.declined || w.recorded || w.differ }

// slowLenClass is decodeSlow's length and class, read off the full
// decoder's state without filling the rest of an Inst (which would
// double the cost of TestLenTableExhaustive).
func slowLenClass(code []byte, addr uint64, mode Mode) (int, Class, error) {
	var d decodeState
	d.code, d.addr, d.mode = code, addr, mode
	if err := d.run(); err != nil {
		return 0, ClassOther, err
	}
	var inst Inst
	d.classify(&inst)
	return d.pos, inst.Class, nil
}

// proveLenTable enumerates every two-byte key of tab behind lead (no
// prefix, or one REX byte), every third byte, and each of lenFills for
// the bytes after that. Where the table answers n, the full decoder must
// give length n and an unrecorded class. Where it misses, the
// encodings that share the probed keys must hold a lenWitness: the table
// misses nothing it could answer. It returns the number of keys the
// table answered.
func proveLenTable(t *testing.T, tab *lenTable, mode Mode, lead []byte) (answered int) {
	const addr = 0x401000
	p := len(lead)
	bufs := make([][]byte, len(lenFills))
	for i, fill := range lenFills {
		bufs[i] = make([]byte, p+15)
		copy(bufs[i], lead)
		for j := p + 3; j < len(bufs[i]); j++ {
			bufs[i][j] = fill
		}
	}
	for k := 0; k < 1<<16; k++ {
		if p == 1 && tab[uint16(lead[0])|uint16(k&0xFF)<<8] != rexNext {
			// The REX and its opcode are the whole key, answered or not
			// in place, and the keyless enumeration covers them.
			continue
		}
		for _, b := range bufs {
			b[p], b[p+1] = byte(k), byte(k>>8)
		}
		// The probed keys are the first two bytes, and behind a REX
		// entry the two after its first: without a lead byte that pulls
		// the third byte into the key.
		perThird := p == 0 && tab[k] == rexNext
		want := tableLen(tab, bufs[0], 0) // the answer, if it does not depend on the third byte
		var w lenWitness
		for b2 := 0; b2 < 256; b2++ {
			if perThird {
				w = lenWitness{}
				bufs[0][p+2] = byte(b2)
				want = tableLen(tab, bufs[0], 0)
			}
			for _, b := range bufs {
				b[p+2] = byte(b2)
				got := tableLen(tab, b, 0)
				if got != want {
					t.Fatalf("mode %v % x: table %d, and %d for the same probed keys", mode, b, got, want)
				}
				if got == 0 {
					if !w.justified() {
						w.note(b, mode)
					}
					continue
				}
				if n, class, err := slowLenClass(b, addr, mode); err != nil || n != got || class.recorded() {
					t.Fatalf("mode %v % x: table length %d, full decoder (len %d, %v, %v)", mode, b, got, n, class, err)
				}
			}
			if perThird && want == 0 && !w.justified() {
				t.Fatalf("mode %v % x ...: the table misses, but scan gives every tail length %d", mode, bufs[0][:p+3], w.n)
			}
			if !perThird && want == 0 && w.justified() {
				break // a miss, and rightly so
			}
		}
		switch {
		case want != 0 && !perThird:
			answered++
		case want == 0 && !perThird && !w.justified():
			t.Fatalf("mode %v % x ...: the table misses, but scan gives every tail length %d", mode, bufs[0][:p+2], w.n)
		}
	}
	return answered
}

// TestLenTableExhaustive proves each mode's length table, and in Mode64
// its REX probe behind each of lenREXes, against the full decoder by
// enumeration rather than sampling: every key, every third byte, several
// fills after it (TestLenTableExhaustive/x86-64/rex=48 covers REX.W).
func TestLenTableExhaustive(t *testing.T) {
	for _, mode := range []Mode{Mode32, Mode64} {
		leads := [][]byte{nil}
		if mode == Mode64 {
			for _, rex := range lenREXes {
				leads = append(leads, []byte{rex})
			}
		}
		for _, lead := range leads {
			name := mode.String()
			if lead != nil {
				name += fmt.Sprintf("/rex=%02x", lead[0])
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				n := proveLenTable(t, lenTableFor(mode), mode, lead)
				if n == 0 {
					t.Fatal("the table answers nothing")
				}
				t.Logf("%d of 65536 keys answered", n)
			})
		}
	}
}

// TestLenTableFirstSweepsConcurrent starts many sharded sweeps at once on
// fresh, unbuilt tables, in both modes: each table is built once, every
// sweep sees it whole (the race detector watches the build), and every
// sweep's records equal the reference.
func TestLenTableFirstSweepsConcurrent(t *testing.T) {
	saved32, saved64 := lenTable32, lenTable64
	lenTable32, lenTable64 = newLenTables()
	t.Cleanup(func() { lenTable32, lenTable64 = saved32, saved64 })

	rng := rand.New(rand.NewSource(25))
	texts := map[Mode][]byte{}
	want := map[Mode]*Records{}
	for _, mode := range []Mode{Mode32, Mode64} {
		texts[mode] = GenText(16<<10, mode, rng, 0.1)
		want[mode] = ReferenceRecords(texts[mode], 0x401000, mode)
	}
	const goroutines = 16
	errs := make(chan string, goroutines)
	var start, wg sync.WaitGroup
	start.Add(1)
	for g := 0; g < goroutines; g++ {
		mode := []Mode{Mode32, Mode64}[g%2]
		wg.Add(1)
		go func() {
			defer wg.Done()
			start.Wait()
			r, err := SweepRecords(context.Background(), texts[mode], 0x401000, mode, 4)
			switch {
			case err != nil:
				errs <- err.Error()
			case r.Diff(want[mode]) != "":
				errs <- fmt.Sprintf("%v: %s", mode, r.Diff(want[mode]))
			}
		}()
	}
	start.Done()
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	for _, mode := range []Mode{Mode32, Mode64} {
		if lenTableFor(mode) != lenTableFor(mode) || *lenTableFor(mode) != *buildLenTable(mode) {
			t.Errorf("%v: the lazily built table differs from a fresh build", mode)
		}
	}
}

// BenchmarkLenTableBuild times one build of each mode's table: the cost
// of a process's first sweep in that mode.
func BenchmarkLenTableBuild(b *testing.B) {
	for _, mode := range []Mode{Mode32, Mode64} {
		b.Run(mode.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if buildLenTable(mode)[0x90|0x90<<8] != 1 {
					b.Fatal("nop not answered")
				}
			}
		})
	}
}
