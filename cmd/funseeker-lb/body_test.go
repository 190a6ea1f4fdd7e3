package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"testing"
)

// TestAnalyzeBodyShapes: the router forwards a body sent chunked, with
// no Content-Length, byte for byte; one byte over the body limit is a
// 413 whether declared or chunked; and a request that declares the whole
// limit but sends 1 KiB and closes is the same 400 it always was,
// allocating in proportion to what arrived.
func TestAnalyzeBodyShapes(t *testing.T) {
	const maxBody = 64 << 20
	fb := newFakeBackend(t, "a")
	ts := newTestRouter(t, []*fakeBackend{fb}, func(c *routerConfig) { c.maxBodyBytes = maxBody })

	body := strings.Repeat("chunked body ", 10_000)
	resp, err := http.Post(ts.URL+"/v1/analyze", "application/octet-stream", lengthless{strings.NewReader(body)})
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	fb.mu.Lock()
	forwarded := strings.Join(fb.bodies, "")
	fb.mu.Unlock()
	if resp.StatusCode != http.StatusOK || fb.seen() != 1 || forwarded != body {
		t.Fatalf("chunked: status %d, backend saw %d bodies; want 200 and the body forwarded whole", resp.StatusCode, fb.seen())
	}

	small := newTestRouter(t, []*fakeBackend{fb}, func(c *routerConfig) { c.maxBodyBytes = 1024 })
	over := bytes.Repeat([]byte{1}, 1025)
	for _, chunked := range []bool{false, true} {
		var r io.Reader = bytes.NewReader(over)
		if chunked {
			r = lengthless{r}
		}
		resp, err := http.Post(small.URL+"/v1/analyze", "application/octet-stream", r)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("limit+1 (chunked %v): status = %d, want 413", chunked, resp.StatusCode)
		}
	}

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sent := bytes.Repeat([]byte{0x7f}, 1<<10)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fmt.Fprintf(conn, "POST /v1/analyze HTTP/1.1\r\nHost: lb\r\nContent-Type: application/octet-stream\r\nContent-Length: %d\r\n\r\n", maxBody)
	conn.Write(sent)
	conn.(*net.TCPConn).CloseWrite()
	short, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, short.Body)
	short.Body.Close()
	runtime.ReadMemStats(&after)
	if short.StatusCode != http.StatusBadRequest {
		t.Errorf("short body: status = %d, want 400", short.StatusCode)
	}
	if alloc, budget := after.TotalAlloc-before.TotalAlloc, 16*uint64(len(sent))+1<<20; alloc > budget {
		t.Errorf("short body: allocated %d bytes for %d bytes sent (declared %d), want at most %d", alloc, len(sent), maxBody, budget)
	}
}

// lengthless hides a reader's length from the HTTP client, which then
// sends the body with chunked transfer coding and no Content-Length.
type lengthless struct{ io.Reader }
