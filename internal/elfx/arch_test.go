package elfx

import (
	"debug/elf"
	"testing"

	"github.com/funseeker/funseeker/internal/elfw"
)

// AArch64 instruction words used by the test images.
const (
	btiC = 0xD503245F // bti c
	ret  = 0xD65F03C0 // ret
)

func words(ws ...uint32) []byte {
	out := make([]byte, 0, 4*len(ws))
	for _, w := range ws {
		out = append(out, byte(w), byte(w>>8), byte(w>>16), byte(w>>24))
	}
	return out
}

// buildAArch64Image assembles a minimal AArch64 executable: one bti c;
// ret function, with the GNU property note declaring features (0 omits
// the note entirely).
func buildAArch64Image(t *testing.T, features uint32) []byte {
	t.Helper()
	const textBase = 0x401000
	f := elfw.New(elf.ELFCLASS64, elf.ET_EXEC)
	f.Machine = elf.EM_AARCH64
	f.Entry = textBase
	if features != 0 {
		f.AddSection(&elfw.Section{Name: ".note.gnu.property", Type: elf.SHT_NOTE,
			Flags: elf.SHF_ALLOC, Addr: textBase - 0xE00,
			Data: elfw.GNUPropertyNoteAArch64(elf.ELFCLASS64, features), Addralign: 8})
	}
	f.AddSection(&elfw.Section{Name: ".text", Type: elf.SHT_PROGBITS,
		Flags: elf.SHF_ALLOC | elf.SHF_EXECINSTR, Addr: textBase,
		Data: words(btiC, ret), Addralign: 4})
	raw, err := f.Bytes()
	if err != nil {
		t.Fatalf("elfw.Bytes: %v", err)
	}
	return raw
}

// TestDetectArchRejectsNonELF: bytes without a well-formed ELF
// identification must yield ArchUnknown, never a backend arch — the
// engine keys caches on this value before any full parse.
func TestDetectArchRejectsNonELF(t *testing.T) {
	valid := buildTestImage(t, elf.ELFCLASS64)
	badClass := append([]byte(nil), valid...)
	badClass[elf.EI_CLASS] = 9
	badData := append([]byte(nil), valid...)
	badData[elf.EI_DATA] = 9
	cases := map[string][]byte{
		"empty":        nil,
		"garbage":      []byte("this is not an elf image at all"),
		"truncated":    valid[:0x10], // magic intact, e_machine missing
		"wrong magic":  append([]byte("\x7fELG"), valid[4:]...),
		"bad EI_CLASS": badClass,
		"bad EI_DATA":  badData,
	}
	for name, raw := range cases {
		if got := DetectArch(raw); got != ArchUnknown {
			t.Errorf("%s: DetectArch = %v, want unknown", name, got)
		}
	}
}

// TestDetectArchMatchesLoad pins the contract DetectArch exists for:
// the cheap header peek returns exactly the Arch a full Load assigns.
func TestDetectArchMatchesLoad(t *testing.T) {
	cases := []struct {
		name string
		raw  []byte
		want Arch
	}{
		{"x86-64", buildTestImage(t, elf.ELFCLASS64), ArchX86_64},
		{"x86", buildTestImage(t, elf.ELFCLASS32), ArchX86},
		{"aarch64", buildAArch64Image(t, 0x1), ArchAArch64},
	}
	for _, tc := range cases {
		if got := DetectArch(tc.raw); got != tc.want {
			t.Errorf("%s: DetectArch = %v, want %v", tc.name, got, tc.want)
		}
		bin, err := Load(tc.raw)
		if err != nil {
			t.Fatalf("%s: Load: %v", tc.name, err)
		}
		if bin.Arch != tc.want {
			t.Errorf("%s: Load Arch = %v, want %v", tc.name, bin.Arch, tc.want)
		}
	}
}

// TestLoadAArch64Properties: the BTI bit of the AArch64 property note
// maps to BTIEnabled (and only there — never to the x86 CET flag).
func TestLoadAArch64Properties(t *testing.T) {
	bin, err := Load(buildAArch64Image(t, 0x1 /* BTI */))
	if err != nil {
		t.Fatal(err)
	}
	if !bin.BTIEnabled {
		t.Error("BTI note present but BTIEnabled = false")
	}
	if bin.CETEnabled {
		t.Error("CETEnabled = true on an AArch64 binary")
	}
	if !bin.MarkersEnabled() {
		t.Error("MarkersEnabled = false with BTI declared")
	}
	if len(bin.Text) != 8 {
		t.Errorf("text = %d bytes, want 8", len(bin.Text))
	}

	plain, err := Load(buildAArch64Image(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	if plain.BTIEnabled || plain.MarkersEnabled() {
		t.Error("note-free AArch64 binary reports landmark support")
	}
	if plain.Arch != ArchAArch64 {
		t.Errorf("Arch = %v, want aarch64", plain.Arch)
	}
}
