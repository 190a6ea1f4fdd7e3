package elfx

import (
	"bytes"
	"debug/elf"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/funseeker/funseeker/internal/elfw"
	"github.com/funseeker/funseeker/internal/x86"
)

// buildTestImage assembles a minimal CET-enabled executable with a PLT
// entry for "setjmp" directly through elfw (no synth dependency, keeping
// this a unit test of the loader).
func buildTestImage(t *testing.T, class elf.Class) []byte {
	t.Helper()
	is64 := class == elf.ELFCLASS64
	var textBase, pltBase, gotBase uint64
	if is64 {
		pltBase, textBase, gotBase = 0x401000, 0x402000, 0x404000
	} else {
		pltBase, textBase, gotBase = 0x8049000, 0x804a000, 0x804c000
	}

	// Dynamic symbols: just setjmp.
	dsb := elfw.NewSymtab(class)
	dsb.Add(elfw.Symbol{Name: "setjmp", Bind: elf.STB_GLOBAL, Type: elf.STT_FUNC})
	dynsym, dynstr, firstGlobal, idx := dsb.Emit()

	ptr := uint64(8)
	if !is64 {
		ptr = 4
	}
	gotSlot := gotBase + 3*ptr

	// PLT: one 16-byte stub with endbr + indirect jmp through the slot.
	plt := make([]byte, 0, 16)
	if is64 {
		plt = append(plt, 0xF3, 0x0F, 0x1E, 0xFA) // endbr64
		rel := int32(int64(gotSlot) - int64(pltBase+10))
		plt = append(plt, 0xFF, 0x25, byte(rel), byte(rel>>8), byte(rel>>16), byte(rel>>24))
	} else {
		plt = append(plt, 0xF3, 0x0F, 0x1E, 0xFB) // endbr32
		plt = append(plt, 0xFF, 0x25, byte(gotSlot), byte(gotSlot>>8), byte(gotSlot>>16), byte(gotSlot>>24))
	}
	for len(plt) < 16 {
		plt = append(plt, 0x90)
	}

	text := []byte{0xF3, 0x0F, 0x1E, 0xFA, 0xC3} // endbr64; ret
	if !is64 {
		text[3] = 0xFB
	}

	relocs := []elfw.Reloc{{Offset: gotSlot, SymIndex: idx["setjmp"], Type: 7}}
	relaName, relaType := ".rela.plt", elf.SHT_RELA
	if !is64 {
		relaName, relaType = ".rel.plt", elf.SHT_REL
	}

	f := elfw.New(class, elf.ET_EXEC)
	f.Entry = textBase
	symEnt := uint64(24)
	if !is64 {
		symEnt = 16
	}
	f.AddSection(&elfw.Section{Name: ".note.gnu.property", Type: elf.SHT_NOTE,
		Flags: elf.SHF_ALLOC, Addr: textBase - 0xE00,
		Data: elfw.GNUPropertyNote(class, elfw.FeatureIBT|elfw.FeatureSHSTK), Addralign: 8})
	f.AddSection(&elfw.Section{Name: ".dynsym", Type: elf.SHT_DYNSYM,
		Flags: elf.SHF_ALLOC, Addr: textBase - 0xD00, Data: dynsym,
		Link: 3, Info: firstGlobal, Addralign: 8, Entsize: symEnt})
	f.AddSection(&elfw.Section{Name: ".dynstr", Type: elf.SHT_STRTAB,
		Flags: elf.SHF_ALLOC, Addr: textBase - 0xC00, Data: dynstr, Addralign: 1})
	f.AddSection(&elfw.Section{Name: relaName, Type: relaType,
		Flags: elf.SHF_ALLOC, Addr: textBase - 0xB00,
		Data: elfw.EmitRelocs(class, relocs), Link: 2, Info: 5, Addralign: 8})
	f.AddSection(&elfw.Section{Name: ".plt", Type: elf.SHT_PROGBITS,
		Flags: elf.SHF_ALLOC | elf.SHF_EXECINSTR, Addr: pltBase, Data: plt, Addralign: 16})
	f.AddSection(&elfw.Section{Name: ".text", Type: elf.SHT_PROGBITS,
		Flags: elf.SHF_ALLOC | elf.SHF_EXECINSTR, Addr: textBase, Data: text, Addralign: 16})
	f.AddSection(&elfw.Section{Name: ".got.plt", Type: elf.SHT_PROGBITS,
		Flags: elf.SHF_ALLOC | elf.SHF_WRITE, Addr: gotBase, Data: make([]byte, (3+1)*int(ptr)), Addralign: ptr})
	raw, err := f.Bytes()
	if err != nil {
		t.Fatalf("elfw.Bytes: %v", err)
	}
	return raw
}

func TestLoad64(t *testing.T) {
	bin, err := Load(buildTestImage(t, elf.ELFCLASS64))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if bin.Mode != x86.Mode64 {
		t.Errorf("Mode = %v", bin.Mode)
	}
	if bin.TextAddr != 0x402000 || len(bin.Text) != 5 {
		t.Errorf("text = %#x + %d", bin.TextAddr, len(bin.Text))
	}
	if !bin.CETEnabled {
		t.Error("CET property note not detected")
	}
	if bin.PtrSize() != 8 {
		t.Errorf("PtrSize = %d", bin.PtrSize())
	}
	if !bin.InText(0x402000) || bin.InText(0x402005) || bin.InText(0x401FFF) {
		t.Error("InText bounds wrong")
	}
	if bin.TextEnd() != 0x402005 {
		t.Errorf("TextEnd = %#x", bin.TextEnd())
	}
}

func TestPLTMap64(t *testing.T) {
	bin, err := Load(buildTestImage(t, elf.ELFCLASS64))
	if err != nil {
		t.Fatal(err)
	}
	name, ok := bin.PLTName(0x401000)
	if !ok || name != "setjmp" {
		t.Fatalf("PLTName(0x401000) = (%q, %v), want setjmp", name, ok)
	}
	if _, ok := bin.PLTName(0x999); ok {
		t.Error("bogus address resolved")
	}
}

func TestPLTMap32Rel(t *testing.T) {
	bin, err := Load(buildTestImage(t, elf.ELFCLASS32))
	if err != nil {
		t.Fatal(err)
	}
	if bin.Mode != x86.Mode32 || bin.PtrSize() != 4 {
		t.Errorf("mode/ptr = %v/%d", bin.Mode, bin.PtrSize())
	}
	name, ok := bin.PLTName(0x8049000)
	if !ok || name != "setjmp" {
		t.Fatalf("PLTName = (%q, %v), want setjmp via REL32 relocs", name, ok)
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load([]byte("garbage")); err == nil {
		t.Error("want error for junk input")
	}
	// ELF without .text.
	f := elfw.New(elf.ELFCLASS64, elf.ET_EXEC)
	f.AddSection(&elfw.Section{Name: ".rodata", Type: elf.SHT_PROGBITS,
		Flags: elf.SHF_ALLOC, Addr: 0x400000, Data: []byte{1}, Addralign: 1})
	raw, err := f.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Load(raw); err == nil {
		t.Error("want ErrNoText")
	}
}

// TestLoadNamesInvalidIdentBytes: an image with the ELF magic but an
// invalid class, data or version byte is ErrMalformed with a message
// naming the byte, and input without the magic stays ErrNotELF.
func TestLoadNamesInvalidIdentBytes(t *testing.T) {
	good := buildTestImage(t, elf.ELFCLASS64)
	for _, tc := range []struct {
		field string
		at    int
	}{
		{"class", elf.EI_CLASS},
		{"data", elf.EI_DATA},
		{"version", elf.EI_VERSION},
	} {
		raw := bytes.Clone(good)
		raw[tc.at] = 0x20
		_, err := Load(raw)
		if !errors.Is(err, ErrMalformed) {
			t.Errorf("%s byte 0x20: err = %v, want ErrMalformed", tc.field, err)
			continue
		}
		if want := "invalid ELF " + tc.field + " byte 0x20"; !strings.Contains(err.Error(), want) {
			t.Errorf("%s byte 0x20: err = %q, want it to say %q", tc.field, err, want)
		}
	}
	raw := bytes.Clone(good)
	raw[0] = 0
	if _, err := Load(raw); !errors.Is(err, ErrNotELF) {
		t.Errorf("no magic: err = %v, want ErrNotELF", err)
	}
}

func TestOpenFromDisk(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bin")
	if err := os.WriteFile(path, buildTestImage(t, elf.ELFCLASS64), 0o755); err != nil {
		t.Fatal(err)
	}
	bin, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if bin.Path != path {
		t.Errorf("Path = %q", bin.Path)
	}
	if _, err := Open(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("want error for missing file")
	}
}

func TestNoCETNote(t *testing.T) {
	f := elfw.New(elf.ELFCLASS64, elf.ET_DYN)
	f.AddSection(&elfw.Section{Name: ".text", Type: elf.SHT_PROGBITS,
		Flags: elf.SHF_ALLOC | elf.SHF_EXECINSTR, Addr: 0x1000,
		Data: []byte{0xC3}, Addralign: 16})
	raw, err := f.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	bin, err := Load(raw)
	if err != nil {
		t.Fatal(err)
	}
	if bin.CETEnabled {
		t.Error("CETEnabled without a property note")
	}
}

func TestSHSTKOnlyNoteIsNotIBT(t *testing.T) {
	f := elfw.New(elf.ELFCLASS64, elf.ET_EXEC)
	f.AddSection(&elfw.Section{Name: ".note.gnu.property", Type: elf.SHT_NOTE,
		Flags: elf.SHF_ALLOC, Addr: 0x400200,
		Data: elfw.GNUPropertyNote(elf.ELFCLASS64, elfw.FeatureSHSTK), Addralign: 8})
	f.AddSection(&elfw.Section{Name: ".text", Type: elf.SHT_PROGBITS,
		Flags: elf.SHF_ALLOC | elf.SHF_EXECINSTR, Addr: 0x401000,
		Data: []byte{0xC3}, Addralign: 16})
	raw, err := f.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	bin, err := Load(raw)
	if err != nil {
		t.Fatal(err)
	}
	if bin.CETEnabled {
		t.Error("SHSTK-only note must not report IBT")
	}
}

func TestELF64RequiresRela(t *testing.T) {
	// An ELF64 image whose PLT relocations come as REL must be rejected.
	f := elfw.New(elf.ELFCLASS64, elf.ET_EXEC)
	dsb := elfw.NewSymtab(elf.ELFCLASS64)
	dsb.Add(elfw.Symbol{Name: "x", Bind: elf.STB_GLOBAL, Type: elf.STT_FUNC})
	dynsym, dynstr, fg, _ := dsb.Emit()
	f.AddSection(&elfw.Section{Name: ".dynsym", Type: elf.SHT_DYNSYM,
		Flags: elf.SHF_ALLOC, Addr: 0x400200, Data: dynsym, Link: 2, Info: fg, Addralign: 8, Entsize: 24})
	f.AddSection(&elfw.Section{Name: ".dynstr", Type: elf.SHT_STRTAB,
		Flags: elf.SHF_ALLOC, Addr: 0x400300, Data: dynstr, Addralign: 1})
	f.AddSection(&elfw.Section{Name: ".rel.plt", Type: elf.SHT_REL,
		Flags: elf.SHF_ALLOC, Addr: 0x400400, Data: make([]byte, 16), Link: 1, Addralign: 8})
	f.AddSection(&elfw.Section{Name: ".plt", Type: elf.SHT_PROGBITS,
		Flags: elf.SHF_ALLOC | elf.SHF_EXECINSTR, Addr: 0x401000,
		Data: []byte{0xF3, 0x0F, 0x1E, 0xFA, 0x90, 0x90}, Addralign: 16})
	f.AddSection(&elfw.Section{Name: ".text", Type: elf.SHT_PROGBITS,
		Flags: elf.SHF_ALLOC | elf.SHF_EXECINSTR, Addr: 0x402000,
		Data: []byte{0xC3}, Addralign: 16})
	raw, err := f.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Load(raw); !errors.Is(err, ErrMalformed) {
		t.Errorf("ELF64 with .rel.plt: err = %v, want ErrMalformed", err)
	}
}

func TestPLTWithoutDynsym(t *testing.T) {
	// Relocations without dynamic symbols: the map stays empty but
	// loading succeeds.
	f := elfw.New(elf.ELFCLASS64, elf.ET_EXEC)
	f.AddSection(&elfw.Section{Name: ".rela.plt", Type: elf.SHT_RELA,
		Flags: elf.SHF_ALLOC, Addr: 0x400400, Data: make([]byte, 24), Addralign: 8})
	f.AddSection(&elfw.Section{Name: ".plt", Type: elf.SHT_PROGBITS,
		Flags: elf.SHF_ALLOC | elf.SHF_EXECINSTR, Addr: 0x401000,
		Data: []byte{0xF3, 0x0F, 0x1E, 0xFA, 0x90, 0x90}, Addralign: 16})
	f.AddSection(&elfw.Section{Name: ".text", Type: elf.SHT_PROGBITS,
		Flags: elf.SHF_ALLOC | elf.SHF_EXECINSTR, Addr: 0x402000,
		Data: []byte{0xC3}, Addralign: 16})
	raw, err := f.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	bin, err := Load(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(bin.PLT) != 0 {
		t.Errorf("PLT map has %d entries without dynsym", len(bin.PLT))
	}
}
