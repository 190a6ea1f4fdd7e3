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
	"time"

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
	for _, name := range []string{".text", ".eh_frame", ".plt", ".plt.sec", ".rela.plt", ".note.gnu.property", ".dynsym", ".dynstr", ".shstrtab"} {
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

// TestLoadSymbolTablesBoundedBySize: the dynamic symbol table, which
// names the PLT entries, costs Load at most a small multiple of the
// image's size, however its headers are set. A compressed symbol-version
// section is never read (debug/elf's DynamicSymbols inflated it: 269 MB
// for an 83 KB image); 2,000 symbols that all name one 50 KiB string
// share it (one string each made it 115 MB for a 117 KB image); and an
// empty ELF64 .dynsym is no symbols, so no PLT names (debug/elf's symbol
// reader panicked on an empty ELF64 table).
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

	want, err := Load(raw)
	if err != nil {
		t.Fatal(err)
	}
	const nsym, strLen = 2000, 50 << 10
	names := bytes.Clone(raw)
	symOff := len(names)
	for i := 0; i < nsym; i++ {
		e := make([]byte, 24) // Elf64_Sym naming string-table offset 0
		e[4] = byte(elf.STT_FUNC)
		names = append(names, e...)
	}
	strOff := len(names)
	names = append(names, bytes.Repeat([]byte{'A'}, strLen)...)
	names = append(names, 0)
	dynsym := shdr64(t, names, ".dynsym")
	le.PutUint64(dynsym[24:], uint64(symOff))
	le.PutUint64(dynsym[32:], nsym*24)
	dynstr := shdr64(t, names, ".dynstr")
	le.PutUint64(dynstr[24:], uint64(strOff))
	le.PutUint64(dynstr[32:], strLen+1)
	b, err, alloc = loadAlloc(names)
	if err != nil {
		t.Fatalf("long shared name: %v", err)
	}
	if len(want.PLT) == 0 || len(b.PLT) != len(want.PLT) {
		t.Errorf("long shared name: %d PLT names, want %d", len(b.PLT), len(want.PLT))
	}
	for va := range want.PLT {
		if len(b.PLT[va]) != strLen {
			t.Errorf("long shared name: PLT entry %#x is named by %d bytes, want the %d-byte string", va, len(b.PLT[va]), strLen)
		}
	}
	if alloc >= 4*uint64(len(names)) {
		t.Errorf("long shared name: Load allocated %d bytes for a %d-byte image", alloc, len(names))
	}

	empty := bytes.Clone(raw)
	le.PutUint64(shdr64(t, empty, ".dynsym")[32:], 0)
	if b, err := Load(empty); err != nil {
		t.Errorf("empty .dynsym: %v", err)
	} else if len(b.PLT) != 0 {
		t.Errorf("empty .dynsym: %d PLT names, want none", len(b.PLT))
	}
}

// TestSymbolsMatchDebugElf: dynamicSymbolNames reads the names debug/elf's
// DynamicSymbols reads from well-formed images of both ELF classes.
func TestSymbolsMatchDebugElf(t *testing.T) {
	for _, raw := range [][]byte{synthImage(t), synthImage32(t)} {
		f, err := elf.NewFile(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		p, err := parse(raw)
		if err != nil {
			t.Fatal(err)
		}
		syms, err := f.DynamicSymbols()
		if err != nil {
			t.Fatalf("%v: %v", f.Class, err)
		}
		want := make([]string, len(syms))
		for i, s := range syms {
			want[i] = s.Name
		}
		got, err := dynamicSymbolNames(p)
		if err != nil {
			t.Fatalf("%v: %v", f.Class, err)
		}
		if len(want) == 0 || !reflect.DeepEqual(got, want) {
			t.Errorf("%v: read %d dynamic symbol names, debug/elf %d, or they differ", f.Class, len(got), len(want))
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

// wrappingNoteImage is synthImage with its 16-byte property descriptor
// rewritten as two properties: one with pr_datasz 0, then one with
// pr_datasz 0xFFFFFFF0, whose padded size brings a 32-bit scan offset
// back to 0.
func wrappingNoteImage(t testing.TB) []byte {
	t.Helper()
	raw := synthImage(t)
	le := binary.LittleEndian
	h := shdr64(t, raw, ".note.gnu.property")
	note := raw[le.Uint64(h[24:]):][:le.Uint64(h[32:])]
	if len(note) != 32 || le.Uint32(note[4:]) != 16 {
		t.Fatalf("the test image's property note is %d bytes, descriptor %d; want 32, 16", len(note), le.Uint32(note[4:]))
	}
	desc := note[16:]
	clear(desc)
	le.PutUint32(desc[12:], 0xFFFFFFF0)
	return raw
}

// TestLoadPropertyNoteTerminates: Load returns on a property note whose
// pr_datasz runs past the end of the descriptor, where the scan offset
// used to wrap and Load spun forever. The image is also a FuzzLoad seed.
func TestLoadPropertyNoteTerminates(t *testing.T) {
	raw := wrappingNoteImage(t)
	type result struct {
		b   *Binary
		err error
	}
	done := make(chan result, 1)
	go func() {
		b, err := Load(raw)
		done <- result{b, err}
	}()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.b.CETEnabled {
			t.Error("a note without the IBT property reports CET")
		}
	case <-time.After(3 * time.Second):
		t.Fatal("Load did not return within 3 s")
	}
}

// TestLoadIgnoresFieldsItNeverReads pins the one way Load accepts more
// than elf.NewFile: a program header offset of 2^63 or more, and a
// section Load does not read (.rodata, and .symtab: only the dynamic
// symbols name PLT entries) whose size is that large or whose
// compression header lies outside it. NewFile rejects each image; Load
// reads none of those fields and returns what it returns for the
// unpatched image.
func TestLoadIgnoresFieldsItNeverReads(t *testing.T) {
	raw := synthImage(t)
	want, err := Load(raw)
	if err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	for _, tc := range []struct {
		name  string
		patch func(img []byte)
	}{
		{"program header offset 2^63", func(img []byte) { le.PutUint64(img[le.Uint64(img[0x20:])+8:], 1<<63) }},
		{".rodata size 2^63", func(img []byte) { le.PutUint64(shdr64(t, img, ".rodata")[32:], 1<<63) }},
		{".rodata compressed in 4 bytes", func(img []byte) {
			h := shdr64(t, img, ".rodata")
			le.PutUint64(h[8:], le.Uint64(h[8:])|uint64(elf.SHF_COMPRESSED))
			le.PutUint64(h[32:], 4)
		}},
		{".symtab size 2^63", func(img []byte) { le.PutUint64(shdr64(t, img, ".symtab")[32:], 1<<63) }},
		{".symtab compressed in 4 bytes", func(img []byte) {
			h := shdr64(t, img, ".symtab")
			le.PutUint64(h[8:], le.Uint64(h[8:])|uint64(elf.SHF_COMPRESSED))
			le.PutUint64(h[32:], 4)
		}},
	} {
		img := bytes.Clone(raw)
		tc.patch(img)
		if _, err := elf.NewFile(bytes.NewReader(img)); err == nil {
			t.Fatalf("%s: elf.NewFile accepts the image", tc.name)
		}
		got, err := Load(img)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
		} else if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Load returned a different Binary", tc.name)
		}
	}
}

// TestLoadRejectsShstrndxPastExtendedCount: with extended section
// numbering (e_shnum 0, the count in section 0's sh_size), an
// e_shstrndx at or past that count is ErrNotELF. elf.NewFile checks the
// index only against e_shnum, and panicked indexing its sections with it.
func TestLoadRejectsShstrndxPastExtendedCount(t *testing.T) {
	const shnum = 0xff00
	le := binary.LittleEndian
	raw := make([]byte, 0x40+shnum*64)
	copy(raw, "\x7fELF\x02\x01\x01")
	le.PutUint16(raw[0x10:], uint16(elf.ET_EXEC))
	le.PutUint16(raw[0x12:], uint16(elf.EM_X86_64))
	le.PutUint32(raw[0x14:], uint32(elf.EV_CURRENT))
	le.PutUint64(raw[0x28:], 0x40)   // e_shoff
	le.PutUint16(raw[0x3A:], 64)     // e_shentsize
	le.PutUint16(raw[0x3E:], 0xff10) // e_shstrndx
	le.PutUint64(raw[0x40+32:], shnum)
	if _, err := Load(raw); !errors.Is(err, ErrNotELF) {
		t.Errorf("e_shstrndx %#x of %#x sections: err = %v, want ErrNotELF", 0xff10, shnum, err)
	}
}
