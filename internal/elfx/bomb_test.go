package elfx

import (
	"bytes"
	"compress/zlib"
	"debug/elf"
	"encoding/binary"
	"errors"
	"runtime"
	"sync"
	"testing"

	"github.com/funseeker/funseeker/internal/corpus"
	"github.com/funseeker/funseeker/internal/synth"
	"github.com/funseeker/funseeker/internal/x86"
)

// bombZeros is how many zero bytes the test's zlib stream inflates to:
// large enough that inflating it dwarfs the image, small enough for a
// unit test.
const bombZeros = 64 << 20

// synthImage compiles one small x86-64 CET binary.
func synthImage(t *testing.T) []byte {
	t.Helper()
	specs := corpus.Generate(corpus.Coreutils, corpus.Options{Scale: 0.1, Seed: 7, Programs: 1})
	res, err := synth.Compile(specs[0], synth.Config{Compiler: synth.GCC, Mode: x86.Mode64, Opt: synth.O2})
	if err != nil {
		t.Fatal(err)
	}
	return res.Image
}

// synthImage32 compiles one small 32-bit x86 CET binary.
func synthImage32(t *testing.T) []byte {
	t.Helper()
	specs := corpus.Generate(corpus.Coreutils, corpus.Options{Scale: 0.1, Seed: 7, Programs: 1})
	res, err := synth.Compile(specs[0], synth.Config{Compiler: synth.GCC, Mode: x86.Mode32, Opt: synth.O2})
	if err != nil {
		t.Fatal(err)
	}
	return res.Image
}

// shdr64 locates the ELF64 section header of the named section in raw.
func shdr64(t *testing.T, raw []byte, name string) []byte {
	t.Helper()
	f, err := elf.NewFile(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	shoff, shentsize := le.Uint64(raw[0x28:]), uint64(le.Uint16(raw[0x3A:]))
	for i, s := range f.Sections {
		if s.Name == name {
			at := shoff + uint64(i)*shentsize
			return raw[at : at+shentsize]
		}
	}
	t.Fatalf("no %s section", name)
	return nil
}

// bombStream is a zlib stream of bombZeros zero bytes, built once.
var bombStream = sync.OnceValue(func() []byte {
	var z bytes.Buffer
	zw := zlib.NewWriter(&z)
	zero := make([]byte, 1<<20)
	for i := 0; i < bombZeros/len(zero); i++ {
		zw.Write(zero)
	}
	zw.Close()
	return z.Bytes()
})

// withBomb returns a copy of raw whose named section header points at an
// appended SHF_COMPRESSED bombStream, with SHF_ALLOC cleared as debug/elf
// requires of compressed sections.
func withBomb(t *testing.T, raw []byte, name string) []byte {
	t.Helper()
	z := bombStream()
	le := binary.LittleEndian
	chdr := make([]byte, 24) // Elf64_Chdr
	le.PutUint32(chdr[0:], uint32(elf.COMPRESS_ZLIB))
	le.PutUint64(chdr[8:], bombZeros)
	le.PutUint64(chdr[16:], 1)

	out := append(bytes.Clone(raw), chdr...)
	out = append(out, z...)
	h := shdr64(t, out, name)
	le.PutUint64(h[8:], (le.Uint64(h[8:])|uint64(elf.SHF_COMPRESSED))&^uint64(elf.SHF_ALLOC))
	le.PutUint64(h[24:], uint64(len(raw)))
	le.PutUint64(h[32:], uint64(len(chdr)+len(z)))
	return out
}

// loadAlloc loads raw and reports the bytes the load allocated.
func loadAlloc(raw []byte) (*Binary, error, uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b, err := Load(raw)
	runtime.ReadMemStats(&after)
	return b, err, after.TotalAlloc - before.TotalAlloc
}

// TestLoadRejectsDecompressionBomb: a small image whose .text (or another
// section Load reads) claims SHF_COMPRESSED over a zlib stream of 64 MiB
// of zeros is rejected with ErrMalformed after allocating less than
// twice its own size, instead of being inflated and swept. A section
// Load never reads may stay compressed.
func TestLoadRejectsDecompressionBomb(t *testing.T) {
	raw := synthImage(t)
	for _, name := range []string{".text", ".eh_frame", ".plt", ".plt.sec", ".rela.plt", ".note.gnu.property", ".symtab", ".dynstr", ".shstrtab"} {
		bomb := withBomb(t, raw, name)
		_, err, alloc := loadAlloc(bomb)
		if !errors.Is(err, ErrMalformed) {
			t.Fatalf("%s bomb: err = %v, want ErrMalformed", name, err)
		}
		if limit := 2 * uint64(len(bomb)); alloc >= limit {
			t.Errorf("%s bomb: Load allocated %d bytes, want < %d (2x the %d-byte image)", name, alloc, limit, len(bomb))
		}
	}
	// The 32-bit header layout: an ELF32 image whose .shstrtab claims
	// SHF_COMPRESSED is rejected before elf.NewFile inflates it.
	raw32 := synthImage32(t)
	le := binary.LittleEndian
	shoff, shentsize := le.Uint32(raw32[0x20:]), uint32(le.Uint16(raw32[0x2E:]))
	h := raw32[shoff+uint32(le.Uint16(raw32[0x32:]))*shentsize:]
	le.PutUint32(h[8:], le.Uint32(h[8:])|uint32(elf.SHF_COMPRESSED))
	if _, err := Load(raw32); !errors.Is(err, ErrMalformed) {
		t.Errorf("ELF32 compressed .shstrtab: err = %v, want ErrMalformed", err)
	}

	bomb := withBomb(t, raw, ".text")
	if allocs := testing.AllocsPerRun(5, func() { Load(bomb) }); allocs > 500 {
		t.Errorf("the .text bomb costs %.0f allocations per Load", allocs)
	}

	// .rodata is never read: compressing it changes nothing Load returns.
	b, err, alloc := loadAlloc(withBomb(t, raw, ".rodata"))
	if err != nil {
		t.Fatalf("compressed .rodata: %v", err)
	}
	want, err := Load(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Text, want.Text) || !bytes.Equal(b.EHFrame, want.EHFrame) || len(b.PLT) != len(want.PLT) {
		t.Error("compressed .rodata changed what Load returns")
	}
	if alloc >= 2*uint64(len(raw)+bombZeros/100) {
		t.Errorf("compressed .rodata: Load allocated %d bytes", alloc)
	}
}

// TestLoadRejectsBadSectionRange: a section Load reads that lies past the
// end of the image, or claims no file bytes (SHT_NOBITS), is rejected
// with ErrMalformed.
func TestLoadRejectsBadSectionRange(t *testing.T) {
	raw := synthImage(t)
	le := binary.LittleEndian
	cases := []struct {
		name  string
		patch func(h []byte)
	}{
		{"offset past the end", func(h []byte) { le.PutUint64(h[24:], uint64(len(raw))+1) }},
		{"size past the end", func(h []byte) { le.PutUint64(h[32:], uint64(len(raw))) }},
		{"offset plus size past the end", func(h []byte) {
			le.PutUint64(h[24:], uint64(len(raw))-1)
			le.PutUint64(h[32:], 1<<62)
		}},
		{"nobits", func(h []byte) { le.PutUint32(h[4:], uint32(elf.SHT_NOBITS)); le.PutUint64(h[32:], 1<<40) }},
	}
	for _, tc := range cases {
		bad := bytes.Clone(raw)
		tc.patch(shdr64(t, bad, ".text"))
		_, err, alloc := loadAlloc(bad)
		if !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: err = %v, want ErrMalformed", tc.name, err)
		}
		if alloc >= 2*uint64(len(bad)) {
			t.Errorf("%s: Load allocated %d bytes for a %d-byte image", tc.name, alloc, len(bad))
		}
	}
}
