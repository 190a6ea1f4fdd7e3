package main

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"

	"github.com/funseeker/funseeker"
	"github.com/funseeker/funseeker/internal/corpus"
	"github.com/funseeker/funseeker/internal/engine"
	"github.com/funseeker/funseeker/internal/synth"
	"github.com/funseeker/funseeker/internal/x86"
)

// TestRunCorpusJSON: corpus mode over a directory of two good binaries
// and one file that has the ELF magic but nothing else prints one JSON
// line per file in Expand order — an "error" line for the junk — and
// reports the failure count as its error.
func TestRunCorpusJSON(t *testing.T) {
	dir := t.TempDir()
	specs := corpus.Generate(corpus.Coreutils, corpus.Options{Scale: 0.1, Seed: 5, Programs: 2})
	if len(specs) < 2 {
		t.Fatalf("corpus generated %d programs, want 2", len(specs))
	}
	for i, name := range []string{"a", "c"} {
		res, err := synth.Compile(specs[i], synth.Config{Compiler: synth.GCC, Mode: x86.Mode64, Opt: synth.O2})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), res.Stripped, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	junk := filepath.Join(dir, "b")
	if err := os.WriteFile(junk, []byte("\x7fELF and then nothing an ELF parser wants"), 0o644); err != nil {
		t.Fatal(err)
	}
	paths, err := engine.Expand([]string{dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 3 {
		t.Fatalf("Expand found %v, want 3 files", paths)
	}

	lines, runErr := captureStdout(t, func() error {
		return runCorpus([]string{dir}, funseeker.Config4, 4, 2, true, false, false, false)
	})
	if runErr == nil || runErr.Error() != "1 of 3 binaries failed" {
		t.Fatalf("runCorpus = %v, want \"1 of 3 binaries failed\"", runErr)
	}
	if len(lines) != len(paths) {
		t.Fatalf("got %d JSON lines, want %d:\n%q", len(lines), len(paths), lines)
	}
	for i, line := range lines {
		var rec corpusLine
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d %q: %v", i, line, err)
		}
		if rec.Binary != paths[i] || rec.Config != 4 {
			t.Fatalf("line %d is %s config %d, want %s config 4", i, rec.Binary, rec.Config, paths[i])
		}
		if rec.Binary == junk {
			if rec.Error == "" || len(rec.Entries) != 0 {
				t.Fatalf("junk line = %+v, want an error line", rec)
			}
		} else if rec.Error != "" || len(rec.Entries) == 0 || len(rec.SHA256) != 64 {
			t.Fatalf("line for %s = %+v, want a result", rec.Binary, rec)
		}
	}
}

// captureStdout runs fn with os.Stdout redirected into a pipe and
// returns what it printed, line by line, with fn's error.
func captureStdout(t *testing.T, fn func() error) ([]string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = saved }()

	lines := make(chan []string)
	go func() {
		var out []string
		sc := bufio.NewScanner(r)
		sc.Buffer(nil, 1<<24)
		for sc.Scan() {
			out = append(out, sc.Text())
		}
		io.Copy(io.Discard, r)
		r.Close()
		lines <- out
	}()
	fnErr := fn()
	w.Close()
	return <-lines, fnErr
}
