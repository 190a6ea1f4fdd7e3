package main

import (
	"archive/tar"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	"github.com/funseeker/funseeker/internal/armsynth"
	"github.com/funseeker/funseeker/internal/corpus"
	"github.com/funseeker/funseeker/internal/synth"
	"github.com/funseeker/funseeker/internal/x86"
)

// item is one generated ELF image with the ground truth its answers are
// scored against. The servers only ever see raw.
type item struct {
	name   string
	raw    []byte
	sum    [sha256.Size]byte
	sumHex string
	// truth is the generator's sorted function-entry list.
	truth []uint64
}

// shape is the part of a corpus program the end-to-end metrics depend on:
// its suite, function count and language. Pools take their shapes from the
// corpus at its default seed, so the bench seed changes every binary's
// contents but not the size and language mix that set throughput and
// latency; seeds then compare like with like.
type shape struct {
	suite corpus.Suite
	funcs int
	lang  synth.Lang
}

// shapes lists the shapes of every program in suites, in corpus order,
// with function counts multiplied by scale.
func shapes(scale float64, suites ...corpus.Suite) []shape {
	var out []shape
	for _, s := range suites {
		for _, p := range corpus.Generate(s, corpus.Options{Scale: 1, Seed: corpus.DefaultOptions().Seed}) {
			out = append(out, shape{suite: s, funcs: int(float64(len(p.Funcs)) * scale), lang: p.Lang})
		}
	}
	return out
}

// program draws a corpus program of the given shape from seed: the first
// derived seed whose program has the shape's language, rescaled to exactly
// the shape's function count.
func program(sh shape, seed int64) (*synth.ProgSpec, error) {
	for try := int64(0); try < 256; try++ {
		opts := corpus.Options{Scale: 1, Seed: mix(seed, try), Programs: 1}
		p := corpus.Generate(sh.suite, opts)[0]
		if p.Lang != sh.lang {
			continue
		}
		if len(p.Funcs) != sh.funcs {
			opts.Scale = (float64(sh.funcs) + 0.5) / float64(len(p.Funcs))
			p = corpus.Generate(sh.suite, opts)[0]
		}
		return p, nil
	}
	return nil, fmt.Errorf("no %v program with language %d", sh.suite, sh.lang)
}

// mix derives an independent seed from a seed and a tag (splitmix64).
func mix(seed, tag int64) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(tag) + 0x632be59bd9b4e5f5
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// build is one binary to generate: a program and the build configuration
// chosen by a variant index.
type build struct {
	spec    *synth.ProgSpec
	arm     bool
	variant int
	x86     []synth.Config // the variant indexes this list when !arm
}

// armConfigs are the AArch64 BTI builds: six optimization levels, with and
// without PAC.
var armConfigs = func() []armsynth.Config {
	var out []armsynth.Config
	for _, pac := range []bool{false, true} {
		for _, o := range synth.AllOptLevels() {
			out = append(out, armsynth.Config{Opt: o, PAC: pac})
		}
	}
	return out
}()

func (b build) compile() (*item, error) {
	var it item
	if b.arm {
		cfg := armConfigs[b.variant%len(armConfigs)]
		r, err := armsynth.Compile(b.spec, cfg)
		if err != nil {
			return nil, err
		}
		it.raw, it.truth, it.name = r.Image, r.GT.SortedEntries(), cfg.String()
	} else {
		cfg := b.x86[b.variant%len(b.x86)]
		r, err := synth.Compile(b.spec, cfg)
		if err != nil {
			return nil, err
		}
		it.raw, it.truth, it.name = r.Stripped, r.GT.SortedEntries(), cfg.String()
	}
	it.sum = sha256.Sum256(it.raw)
	it.sumHex = hex.EncodeToString(it.sum[:])
	return &it, nil
}

// compileAll builds every entry on workers goroutines, then makes the
// pool's images pairwise distinct — the workloads count on every item being
// its own cache key — by moving a duplicate to the next build variant.
func compileAll(builds []build, workers int) ([]*item, error) {
	items := make([]*item, len(builds))
	errs := make([]error, len(builds))
	var next sync.Mutex
	cursor := 0
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				next.Lock()
				i := cursor
				cursor++
				next.Unlock()
				if i >= len(builds) {
					return
				}
				items[i], errs[i] = builds[i].compile()
			}
		}()
	}
	wg.Wait()
	seen := make(map[[sha256.Size]byte]bool, len(items))
	for i, it := range items {
		if errs[i] != nil {
			return nil, fmt.Errorf("generating item %d: %w", i, errs[i])
		}
		for try := 1; seen[it.sum]; try++ {
			if try > 64 {
				return nil, fmt.Errorf("item %d: no distinct build variant", i)
			}
			b := builds[i]
			b.variant += try
			var err error
			if it, err = b.compile(); err != nil {
				return nil, fmt.Errorf("generating item %d: %w", i, err)
			}
		}
		seen[it.sum] = true
		it.name = fmt.Sprintf("%05d-%s-%s", i, builds[i].spec.Name, it.name)
		items[i] = it
	}
	return items, nil
}

// smallPool generates n small binaries: the three suites at scale 1 in
// corpus order, repeated, each program built round-robin over the 48 x86
// configurations, with every 8th item an AArch64 BTI build instead.
func smallPool(seed int64, tag string, n, workers int) ([]*item, error) {
	sh := shapes(1, corpus.AllSuites()...)
	specs := make([]*synth.ProgSpec, min(n, len(sh)))
	for p := range specs {
		var err error
		if specs[p], err = program(sh[p], mix(mix(seed, tagSeed(tag)), int64(p))); err != nil {
			return nil, err
		}
	}
	all := synth.AllConfigs()
	builds := make([]build, n)
	for k := range builds {
		p, q := k%len(specs), k/len(specs)
		builds[k] = build{spec: specs[p], arm: k%8 == 7, variant: p + q, x86: all}
	}
	return compileAll(builds, workers)
}

// largeConfigs are the analyze-large builds, alternating x86-64 and x86.
var largeConfigs = []synth.Config{
	{Compiler: synth.GCC, Mode: x86.Mode64, PIE: true, Opt: synth.O2},
	{Compiler: synth.Clang, Mode: x86.Mode32, Opt: synth.O2},
	{Compiler: synth.Clang, Mode: x86.Mode64, Opt: synth.O3},
	{Compiler: synth.GCC, Mode: x86.Mode32, PIE: true, Opt: synth.Os},
}

// largePool generates n SPEC-like binaries at the given function-count
// scale (20 puts them at 0.3-1 MiB), C and C++ with exception handling in
// the corpus mix.
func largePool(seed int64, n int, scale float64, workers int) ([]*item, error) {
	sh := shapes(scale, corpus.SPEC)
	builds := make([]build, n)
	for k := range builds {
		p, err := program(sh[k%len(sh)], mix(mix(seed, tagSeed("large")), int64(k)))
		if err != nil {
			return nil, err
		}
		builds[k] = build{spec: p, variant: k, x86: largeConfigs}
	}
	return compileAll(builds, workers)
}

func tagSeed(tag string) int64 {
	var h int64
	for _, c := range tag {
		h = h*131 + int64(c)
	}
	return h
}

// tarArchive packs items into one tar stream in pool order.
func tarArchive(items []*item) ([]byte, error) {
	var buf bytes.Buffer
	tw := tar.NewWriter(&buf)
	for _, it := range items {
		hdr := &tar.Header{Name: it.name, Mode: 0o644, Size: int64(len(it.raw)),
			Typeflag: tar.TypeReg, ModTime: time.Unix(0, 0)}
		if err := tw.WriteHeader(hdr); err != nil {
			return nil, err
		}
		if _, err := tw.Write(it.raw); err != nil {
			return nil, err
		}
	}
	if err := tw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func poolBytes(items []*item) int64 {
	var n int64
	for _, it := range items {
		n += int64(len(it.raw))
	}
	return n
}
