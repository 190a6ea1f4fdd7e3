package main

import (
	"archive/tar"
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"github.com/funseeker/funseeker/internal/engine"
)

// sendShort writes one request to ts that declares declared body bytes
// in its Content-Length but sends only body, then half-closes the
// connection. It returns the response status and the bytes the whole
// process allocated from just before the request to the end of the
// response.
func sendShort(t *testing.T, ts *httptest.Server, method, target string, declared int64, body []byte) (int, uint64) {
	t.Helper()
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fmt.Fprintf(conn, "%s %s HTTP/1.1\r\nHost: funseekerd\r\nContent-Type: application/octet-stream\r\nContent-Length: %d\r\n\r\n",
		method, target, declared)
	conn.Write(body)
	conn.(*net.TCPConn).CloseWrite()
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	runtime.ReadMemStats(&after)
	return resp.StatusCode, after.TotalAlloc - before.TotalAlloc
}

// allocBudget is the allocation bound for a request that sent sent
// bytes: a small multiple of its size plus a fixed allowance for the
// connection, the handler and one pooled read chunk.
func allocBudget(sent int) uint64 { return 16*uint64(sent) + 1<<20 }

// TestDeclaredLengthDoesNotSizeMemory: a request that declares a
// Content-Length of the whole body limit but sends 1 KiB and closes is
// the same 400 it always was, and the server allocates in proportion to
// the bytes that arrived, not to the declared length.
func TestDeclaredLengthDoesNotSizeMemory(t *testing.T) {
	const maxBody = 64 << 20
	ts, _ := newTestServer(t, serverConfig{maxBodyBytes: maxBody})
	sent := bytes.Repeat([]byte{0x7f}, 1<<10)
	for _, target := range []string{"/v1/analyze", "/v1/result?key=" + strings.Repeat("ab", 34)} {
		method := http.MethodPost
		if strings.HasPrefix(target, "/v1/result") {
			method = http.MethodPut
		}
		status, alloc := sendShort(t, ts, method, target, maxBody, sent)
		if status != http.StatusBadRequest {
			t.Errorf("%s %s: status = %d, want 400", method, target, status)
		}
		if alloc > allocBudget(len(sent)) {
			t.Errorf("%s %s: allocated %d bytes for %d bytes sent (declared %d), want at most %d",
				method, target, alloc, len(sent), maxBody, allocBudget(len(sent)))
		}
	}
}

// TestBatchDeclaredMemberSizeDoesNotSizeMemory: a tar member whose
// header declares 60 MiB, in an archive cut after 1 KiB of its data,
// is the one "archive" record it always was, and the batch allocates in
// proportion to the bytes sent.
func TestBatchDeclaredMemberSizeDoesNotSizeMemory(t *testing.T) {
	ts, _ := newTestServerEngine(t, engine.Config{Jobs: 2}, serverConfig{maxBodyBytes: 64 << 20})
	var buf bytes.Buffer
	tw := tar.NewWriter(&buf)
	if err := tw.WriteHeader(&tar.Header{Name: "claims-60MiB", Mode: 0o644, Size: 60 << 20}); err != nil {
		t.Fatal(err)
	}
	tw.Write(bytes.Repeat([]byte{0x90}, 1<<10)) // no Close: the archive ends here
	body := buf.Bytes()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	resp, err := http.Post(ts.URL+"/v1/batch", "application/x-tar", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	runtime.ReadMemStats(&after)

	recs := decodeNDJSON(t, bytes.NewReader(out))
	if len(recs) != 1 || recs[0].Kind != "archive" {
		t.Fatalf("records %+v, want the one archive error", recs)
	}
	if sum := lastSummary; sum.Items != 1 || sum.Errors != 1 || !sum.Truncated {
		t.Fatalf("summary = %+v, want truncated with 1 error", sum)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > allocBudget(len(body)) {
		t.Errorf("allocated %d bytes for a %d-byte archive, want at most %d", alloc, len(body), allocBudget(len(body)))
	}
}

// lengthless hides a reader's length from the HTTP client, which then
// sends the body with chunked transfer coding and no Content-Length.
type lengthless struct{ io.Reader }

// TestBodyShapes: the ELF image arrives whole whether it is sent with a
// Content-Length or chunked, at exactly the body limit too; one byte
// over the limit is a 413 either way, and an empty body a 400.
func TestBodyShapes(t *testing.T) {
	raw := testELF(t)
	ts, _ := newTestServer(t, serverConfig{maxBodyBytes: int64(len(raw))})
	sum := sha256.Sum256(raw)
	over := append(bytes.Clone(raw), 0)
	for _, tc := range []struct {
		name    string
		body    []byte
		chunked bool
		want    int
	}{
		{"at the limit", raw, false, http.StatusOK},
		{"at the limit, chunked", raw, true, http.StatusOK},
		{"limit+1", over, false, http.StatusRequestEntityTooLarge},
		{"limit+1, chunked", over, true, http.StatusRequestEntityTooLarge},
		{"empty", nil, false, http.StatusBadRequest},
		{"empty, chunked", nil, true, http.StatusBadRequest},
	} {
		var body io.Reader = bytes.NewReader(tc.body)
		if tc.chunked {
			body = lengthless{body}
		}
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/analyze", body)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/octet-stream")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status = %d, want %d (body %s)", tc.name, resp.StatusCode, tc.want, out)
			continue
		}
		if tc.want == http.StatusOK {
			if got := decodeAnalyze(t, out).SHA256; got != hex.EncodeToString(sum[:]) {
				t.Errorf("%s: sha256 = %s, want the image's", tc.name, got)
			}
		}
	}

	// A chunked tar upload: every member arrives whole.
	bts, _ := newTestServerEngine(t, engine.Config{Jobs: 2}, serverConfig{})
	elfs := testELFs(t, 2)
	archive := tarArchive(t, []tarMember{{"a", elfs[0]}, {"b", elfs[1]}})
	resp, err := http.Post(bts.URL+"/v1/batch", "application/x-tar", lengthless{bytes.NewReader(archive)})
	if err != nil {
		t.Fatal(err)
	}
	recs := decodeNDJSON(t, resp.Body)
	resp.Body.Close()
	if len(recs) != 2 {
		t.Fatalf("chunked batch: %d records, want 2", len(recs))
	}
	for i, rec := range recs {
		want := sha256.Sum256(elfs[i])
		if rec.Result == nil || rec.Result.SHA256 != hex.EncodeToString(want[:]) {
			t.Errorf("chunked batch member %d: %+v, want a result for its image", i, rec)
		}
	}
}
