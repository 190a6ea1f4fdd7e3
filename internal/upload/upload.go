// Package upload reads untrusted byte strings — request bodies and
// archive members — into memory sized by what actually arrived.
//
// io.ReadAll grows its buffer from 512 bytes by about 1.25× per step, so
// a 0.6 MB body costs some thirty reallocations and several times its
// own size in garbage. Sizing the buffer from a declared length instead
// (Content-Length, a tar header's size) would let a 100-byte request
// that declares 64 MiB allocate 64 MiB. ReadAll does neither: it reads
// into pooled fixed-size chunks and copies them once into a slice of
// exactly the length received.
package upload

import (
	"io"
	"sync"
)

// chunkSize is the size of one pooled read buffer.
const chunkSize = 64 << 10

type chunk = [chunkSize]byte

var chunks = sync.Pool{New: func() any { return new(chunk) }}

// ReadAll reads r until EOF and returns the bytes read in one allocation
// of exactly their length (an empty, non-nil slice when r is empty). A
// read error other than io.EOF is returned with no data. Apart from the
// result and any chunk the pool has to make, ReadAll allocates nothing
// for up to 2 MiB and a slice of chunk pointers beyond that.
func ReadAll(r io.Reader) ([]byte, error) {
	var room [32]*chunk
	held := room[:0]
	defer func() {
		for _, c := range held {
			chunks.Put(c)
		}
	}()
	total, n := 0, chunkSize // n: bytes filled in the last held chunk
	for {
		if n == chunkSize {
			held = append(held, chunks.Get().(*chunk))
			n = 0
		}
		m, err := r.Read(held[len(held)-1][n:])
		n += m
		total += m
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	out := make([]byte, total)
	for i, c := range held {
		copy(out[i*chunkSize:], c[:])
	}
	return out, nil
}
