package upload

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/iotest"
)

// TestReadAllRoundTrip reads every size around the chunk boundaries
// through readers that return short, single-byte and data-with-EOF
// reads, and checks the bytes come back whole in a slice of exactly
// their length.
func TestReadAllRoundTrip(t *testing.T) {
	readers := []struct {
		name string
		wrap func(io.Reader) io.Reader
	}{
		{"plain", func(r io.Reader) io.Reader { return r }},
		{"OneByteReader", iotest.OneByteReader},
		{"HalfReader", iotest.HalfReader},
		{"DataErrReader", iotest.DataErrReader},
	}
	for _, size := range []int{0, 1, chunkSize - 1, chunkSize, chunkSize + 1, 3*chunkSize + 5} {
		want := make([]byte, size)
		rand.New(rand.NewSource(int64(size))).Read(want)
		for _, rd := range readers {
			got, err := ReadAll(rd.wrap(bytes.NewReader(want)))
			if err != nil {
				t.Fatalf("%s, %d bytes: %v", rd.name, size, err)
			}
			if got == nil || !bytes.Equal(got, want) {
				t.Fatalf("%s, %d bytes: read back %d bytes that differ", rd.name, size, len(got))
			}
			if cap(got) != size {
				t.Errorf("%s, %d bytes: cap = %d, want exactly the length", rd.name, size, cap(got))
			}
		}
	}
}

// TestReadAllError: a read error other than EOF, at any point, is
// returned with no data.
func TestReadAllError(t *testing.T) {
	boom := errors.New("boom")
	for _, size := range []int{0, 10, chunkSize, 2*chunkSize + 3} {
		r := io.MultiReader(bytes.NewReader(make([]byte, size)), iotest.ErrReader(boom))
		got, err := ReadAll(r)
		if !errors.Is(err, boom) || got != nil {
			t.Errorf("%d bytes then an error: got %d bytes, err %v; want nil, boom", size, len(got), err)
		}
	}
	if _, err := ReadAll(iotest.TimeoutReader(bytes.NewReader(make([]byte, 10)))); !errors.Is(err, iotest.ErrTimeout) {
		t.Errorf("TimeoutReader: err = %v, want ErrTimeout", err)
	}
}

// TestReadAllAllocatesTheResultOnce: reading n bytes allocates the
// n-byte result plus at most the chunks themselves (when the pool was
// emptied by a collection in between), where io.ReadAll's growth
// allocates several times n.
func TestReadAllAllocatesTheResultOnce(t *testing.T) {
	const n = 1 << 20
	data := make([]byte, n)
	if _, err := ReadAll(bytes.NewReader(data)); err != nil { // fill the pool
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := ReadAll(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if err != nil || len(got) != n {
		t.Fatalf("read %d bytes, err %v", len(got), err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 2*n+chunkSize {
		t.Errorf("reading %d bytes allocated %d bytes, want at most %d", n, alloc, 2*n+chunkSize)
	}
}

// TestReadAllConcurrent: readers running at once share the chunk pool
// without seeing each other's bytes.
func TestReadAllConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		want := bytes.Repeat([]byte{byte(g)}, 2*chunkSize+g)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				got, err := ReadAll(iotest.HalfReader(bytes.NewReader(want)))
				if err != nil || !bytes.Equal(got, want) {
					t.Errorf("reader %d: %d bytes, err %v; want its own %d bytes", g, len(got), err, len(want))
					return
				}
			}
		}()
	}
	wg.Wait()
}
