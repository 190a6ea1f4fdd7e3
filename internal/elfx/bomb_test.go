package elfx

import (
	"bytes"
	"compress/zlib"
	"debug/elf"
	"encoding/binary"
	"errors"
	"reflect"
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
func synthImage(t testing.TB) []byte {
	t.Helper()
	specs := corpus.Generate(corpus.Coreutils, corpus.Options{Scale: 0.1, Seed: 7, Programs: 1})
	res, err := synth.Compile(specs[0], synth.Config{Compiler: synth.GCC, Mode: x86.Mode64, Opt: synth.O2})
	if err != nil {
		t.Fatal(err)
	}
	return res.Image
}

// synthImage32 compiles one small 32-bit x86 CET binary.
func synthImage32(t testing.TB) []byte {
	t.Helper()
	specs := corpus.Generate(corpus.Coreutils, corpus.Options{Scale: 0.1, Seed: 7, Programs: 1})
	res, err := synth.Compile(specs[0], synth.Config{Compiler: synth.GCC, Mode: x86.Mode32, Opt: synth.O2})
	if err != nil {
		t.Fatal(err)
	}
	return res.Image
}

// shdr64 locates the ELF64 section header of the named section in raw.
func shdr64(t testing.TB, raw []byte, name string) []byte {
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
func withBomb(t testing.TB, raw []byte, name string) []byte {
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

// TestLoadSymbolTablesBoundedBySize: symbol tables cost Load at most a
// small multiple of the image's size, however their headers are set.
// A compressed symbol-version section is never read (debug/elf's
// DynamicSymbols inflated it: 269 MB for an 83 KB image); 2,000 symbols
// that all name one 50 KiB string share it (one string each made it
// 115 MB for a 117 KB image); and an empty ELF64 .symtab is no symbols
// (debug/elf's Symbols panicked on it).
func TestLoadSymbolTablesBoundedBySize(t *testing.T) {
	raw := synthImage(t)
	le := binary.LittleEndian

	versym := withBomb(t, raw, ".rodata")
	le.PutUint32(shdr64(t, versym, ".rodata")[4:], uint32(elf.SHT_GNU_VERSYM))
	b, err, alloc := loadAlloc(versym)
	if err != nil {
		t.Fatalf("compressed version section: %v", err)
	}
	if len(b.PLT) == 0 {
		t.Error("compressed version section: no PLT names")
	}
	if alloc >= 2*uint64(len(versym)) {
		t.Errorf("compressed version section: Load allocated %d bytes for a %d-byte image", alloc, len(versym))
	}

	const nsym, strLen = 2000, 50 << 10
	names := bytes.Clone(raw)
	symOff := len(names)
	for i := 0; i < nsym; i++ {
		e := make([]byte, 24) // Elf64_Sym naming string-table offset 0
		e[4] = byte(elf.STT_FUNC)
		le.PutUint16(e[6:], 1)
		names = append(names, e...)
	}
	strOff := len(names)
	names = append(names, bytes.Repeat([]byte{'A'}, strLen)...)
	names = append(names, 0)
	symtab := shdr64(t, names, ".symtab")
	le.PutUint64(symtab[24:], uint64(symOff))
	le.PutUint64(symtab[32:], nsym*24)
	strtab := shdr64(t, names, ".strtab")
	le.PutUint64(strtab[24:], uint64(strOff))
	le.PutUint64(strtab[32:], strLen+1)
	b, err, alloc = loadAlloc(names)
	if err != nil {
		t.Fatalf("long shared name: %v", err)
	}
	if len(b.FuncSymbols) != nsym-1 || len(b.FuncSymbols[0].Name) != strLen {
		t.Errorf("long shared name: %d function symbols, want %d named by the %d-byte string", len(b.FuncSymbols), nsym-1, strLen)
	}
	if alloc >= 4*uint64(len(names)) {
		t.Errorf("long shared name: Load allocated %d bytes for a %d-byte image", alloc, len(names))
	}

	empty := bytes.Clone(raw)
	le.PutUint64(shdr64(t, empty, ".symtab")[32:], 0)
	if b, err := Load(empty); err != nil {
		t.Errorf("empty .symtab: %v", err)
	} else if b.FuncSymbols != nil {
		t.Errorf("empty .symtab: %d function symbols, want none", len(b.FuncSymbols))
	}
}

// TestSymbolsMatchDebugElf: symbols reads what debug/elf's Symbols and
// DynamicSymbols read from well-formed images of both ELF classes,
// version information aside.
func TestSymbolsMatchDebugElf(t *testing.T) {
	for _, raw := range [][]byte{synthImage(t), synthImage32(t)} {
		f, err := elf.NewFile(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			typ  elf.SectionType
			read func() ([]elf.Symbol, error)
		}{{elf.SHT_SYMTAB, f.Symbols}, {elf.SHT_DYNSYM, f.DynamicSymbols}} {
			want, err := tc.read()
			if err != nil {
				t.Fatalf("%v %v: %v", f.Class, tc.typ, err)
			}
			got, err := symbols(f, tc.typ, raw)
			if err != nil {
				t.Fatalf("%v %v: %v", f.Class, tc.typ, err)
			}
			for i := range want {
				want[i].HasVersion, want[i].VersionIndex, want[i].Version, want[i].Library = false, 0, "", ""
			}
			if len(want) == 0 || !reflect.DeepEqual(got, want) {
				t.Errorf("%v %v: read %d symbols, debug/elf %d, or they differ", f.Class, tc.typ, len(got), len(want))
			}
		}
	}
}

// TestLoadHeaderTablesBoundedBySize: header tables are checked against
// the image before elf.NewFile reads them. A 52-byte ELF32 header that
// claims a program header table past its end is not ELF, as NewFile
// reports it, without NewFile's read of up to 10 MiB of the table; and
// section headers that all name one 64 KiB string in .shstrtab are
// ErrMalformed, where NewFile would copy the string once per section.
func TestLoadHeaderTablesBoundedBySize(t *testing.T) {
	hdr := []byte("\x7fELF\x01\x01\x010000000000000\x01000000000000000000000000000000 ")
	if _, err, alloc := loadAlloc(hdr); !errors.Is(err, ErrNotELF) || alloc > 1<<20 {
		t.Errorf("program header table past the end: err %v after %d bytes allocated; want ErrNotELF, under 1 MiB", err, alloc)
	}

	raw := synthImage(t)
	le := binary.LittleEndian
	const strLen = 64 << 10
	names := append(bytes.Clone(raw), bytes.Repeat([]byte{'A'}, strLen)...)
	names = append(names, 0)
	shstrtab := shdr64(t, names, ".shstrtab")
	le.PutUint64(shstrtab[24:], uint64(len(raw)))
	le.PutUint64(shstrtab[32:], strLen+1)
	shoff, shentsize, shnum := le.Uint64(names[0x28:]), uint64(le.Uint16(names[0x3A:])), uint64(le.Uint16(names[0x3C:]))
	for i := uint64(0); i < shnum; i++ {
		le.PutUint32(names[shoff+i*shentsize:], 0)
	}
	_, err, alloc := loadAlloc(names)
	if !errors.Is(err, ErrMalformed) {
		t.Errorf("%d sections naming one %d-byte string: err %v, want ErrMalformed", shnum, strLen, err)
	}
	if alloc >= 2*uint64(len(names)) {
		t.Errorf("%d sections naming one %d-byte string: Load allocated %d bytes for a %d-byte image", shnum, strLen, alloc, len(names))
	}
}
