// Package elfx loads ELF binaries for function-identification analysis.
//
// It layers on debug/elf and extracts exactly what the identification
// tools need: the executable sections with their load addresses, the
// exception-handling metadata (.eh_frame, .gcc_except_table), the PLT
// entry → imported-symbol-name map recovered from the PLT relocations,
// and the CET feature bits from the GNU property note.
package elfx

import (
	"bytes"
	"debug/elf"
	"encoding/binary"
	"errors"
	"fmt"
	"os"

	"github.com/funseeker/funseeker/internal/x86"
)

// Binary is a loaded ELF executable ready for analysis.
type Binary struct {
	// Path is the file path the binary was loaded from, empty for
	// in-memory images.
	Path string
	// Arch is the instruction-set architecture from the ELF header; it
	// selects the analysis backend.
	Arch Arch
	// Mode is the x86 decode mode implied by the ELF class (meaningful
	// for the x86 arches only).
	Mode x86.Mode
	// PIE reports whether the file is position independent (ET_DYN).
	PIE bool
	// Entry is the program entry point.
	Entry uint64

	// Text is the contents of .text and TextAddr its load address.
	Text     []byte
	TextAddr uint64

	// EHFrame / EHFrameAddr carry .eh_frame when present.
	EHFrame     []byte
	EHFrameAddr uint64

	// ExceptTable / ExceptTableAddr carry .gcc_except_table when present.
	ExceptTable     []byte
	ExceptTableAddr uint64

	// PLT maps each PLT entry address to the imported symbol name it
	// trampolines to. With the split-PLT layout modern CET toolchains
	// emit (-z ibtplt), the map covers both .plt and .plt.sec entries;
	// calls from program code target the .plt.sec stubs.
	PLT map[uint64]string

	// PLTStart / PLTEnd bound the .plt section (zero when absent).
	PLTStart, PLTEnd uint64
	// PLTSecStart / PLTSecEnd bound .plt.sec when present.
	PLTSecStart, PLTSecEnd uint64

	// FuncSymbols holds STT_FUNC symbols from .symtab when the binary is
	// not stripped; used for ground-truth extraction, never by the
	// identification algorithms.
	FuncSymbols []elf.Symbol

	// CETEnabled reports whether the GNU property note declares IBT
	// support (x86 arches).
	CETEnabled bool
	// BTIEnabled reports whether the GNU property note declares BTI
	// support (AArch64).
	BTIEnabled bool
}

// ErrNoText is returned for binaries without an executable .text section.
var ErrNoText = errors.New("elfx: no .text section")

// ErrNotELF is returned when the input bytes do not parse as an ELF
// image at all. The underlying debug/elf diagnostic is attached as text;
// match with errors.Is(err, ErrNotELF).
var ErrNotELF = errors.New("elfx: not an ELF image")

// ErrMalformed is returned when a section Load reads cannot be read as
// plain bytes of the image (it is compressed, has no file bytes, or lies
// outside the image), or when the image has the ELF magic but an invalid
// class, data or version byte. Match with errors.Is(err, ErrMalformed).
var ErrMalformed = errors.New("elfx: malformed section")

// Open loads the ELF file at path.
func Open(path string) (*Binary, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("elfx: %w", err)
	}
	b, err := Load(raw)
	if err != nil {
		return nil, fmt.Errorf("elfx: %s: %w", path, err)
	}
	b.Path = path
	return b, nil
}

// Load parses an in-memory ELF image.
func Load(raw []byte) (*Binary, error) {
	if err := checkIdent(raw); err != nil {
		return nil, err
	}
	// elf.NewFile reads the section-name string table before Load can
	// check any section, so that one is checked from the raw header.
	if err := checkShstrtab(raw); err != nil {
		return nil, err
	}
	f, err := elf.NewFile(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNotELF, err)
	}
	defer f.Close()

	mode := x86.Mode64
	if f.Class == elf.ELFCLASS32 {
		mode = x86.Mode32
	}
	bin := &Binary{
		Arch:  archFrom(f.Machine, f.Class),
		Mode:  mode,
		PIE:   f.Type == elf.ET_DYN,
		Entry: f.Entry,
		PLT:   make(map[uint64]string),
	}

	text := f.Section(".text")
	if text == nil {
		return nil, ErrNoText
	}
	if bin.Text, err = sectionData(text, raw); err != nil {
		return nil, err
	}
	bin.TextAddr = text.Addr

	if s := f.Section(".eh_frame"); s != nil {
		if bin.EHFrame, err = sectionData(s, raw); err != nil {
			return nil, err
		}
		bin.EHFrameAddr = s.Addr
	}
	if s := f.Section(".gcc_except_table"); s != nil {
		if bin.ExceptTable, err = sectionData(s, raw); err != nil {
			return nil, err
		}
		bin.ExceptTableAddr = s.Addr
	}

	// debug/elf reads the symbol tables itself; check them, and the
	// string tables they link, the way sectionData checks the rest.
	for _, typ := range []elf.SectionType{elf.SHT_SYMTAB, elf.SHT_DYNSYM} {
		if s := f.SectionByType(typ); s != nil {
			if err := checkSection(s, raw); err != nil {
				return nil, err
			}
			if int(s.Link) < len(f.Sections) {
				if err := checkSection(f.Sections[s.Link], raw); err != nil {
					return nil, err
				}
			}
		}
	}
	if syms, err := f.Symbols(); err == nil {
		for _, s := range syms {
			if elf.ST_TYPE(s.Info) == elf.STT_FUNC {
				bin.FuncSymbols = append(bin.FuncSymbols, s)
			}
		}
	}

	var note []byte
	if s := f.Section(".note.gnu.property"); s != nil {
		if note, err = sectionData(s, raw); err != nil {
			return nil, err
		}
	}
	if bin.Arch == ArchAArch64 {
		bin.BTIEnabled = hasPropertyBit(note, f.Class, prTypeAArch64Features, 0x1)
	} else {
		bin.CETEnabled = hasPropertyBit(note, f.Class, prTypeX86Features, 0x1)
	}

	if err := bin.buildPLTMap(f, raw); err != nil {
		return nil, err
	}
	return bin, nil
}

// sectionData returns the bytes of sec, a section Load reads, after
// checkSection accepts it.
func sectionData(sec *elf.Section, raw []byte) ([]byte, error) {
	if err := checkSection(sec, raw); err != nil {
		return nil, err
	}
	data, err := sec.Data()
	if err != nil {
		return nil, fmt.Errorf("%w: read %s: %v", ErrMalformed, sec.Name, err)
	}
	return data, nil
}

// checkSection rejects, with ErrMalformed, a section whose bytes are not
// a plain range of raw: SHF_COMPRESSED, which no toolchain emits on the
// sections Load reads and which lets a small image inflate to any size;
// SHT_NOBITS, whose zero fill is sized by the header alone; and a file
// range outside raw. Sections Load never reads (compressed debug
// sections among them) are not checked.
func checkSection(sec *elf.Section, raw []byte) error {
	return checkHeader(sec.Name, sec.Type, sec.Flags, sec.Offset, sec.FileSize, raw)
}

// checkHeader is checkSection over the raw section-header fields.
func checkHeader(name string, typ elf.SectionType, flags elf.SectionFlag, off, size uint64, raw []byte) error {
	switch {
	case flags&elf.SHF_COMPRESSED != 0:
		return fmt.Errorf("%w: %s is compressed", ErrMalformed, name)
	case typ == elf.SHT_NOBITS:
		return fmt.Errorf("%w: %s has no file bytes", ErrMalformed, name)
	case off > uint64(len(raw)) || size > uint64(len(raw))-off:
		return fmt.Errorf("%w: %s [%#x,+%#x) lies outside the %d-byte image",
			ErrMalformed, name, off, size, len(raw))
	}
	return nil
}

// checkIdent names an invalid class, data or version byte in e_ident,
// which elf.NewFile would report as an out-of-range enum value (class
// 0x20 as "ELFCLASS64+30"). Input without the ELF magic is left for
// elf.NewFile to report as not ELF.
func checkIdent(raw []byte) error {
	if len(raw) < elf.EI_NIDENT || string(raw[:4]) != elf.ELFMAG {
		return nil
	}
	class, data, version := raw[elf.EI_CLASS], raw[elf.EI_DATA], raw[elf.EI_VERSION]
	switch {
	case class != byte(elf.ELFCLASS32) && class != byte(elf.ELFCLASS64):
		return fmt.Errorf("%w: invalid ELF class byte %#02x", ErrMalformed, class)
	case data != byte(elf.ELFDATA2LSB) && data != byte(elf.ELFDATA2MSB):
		return fmt.Errorf("%w: invalid ELF data byte %#02x", ErrMalformed, data)
	case version != byte(elf.EV_CURRENT):
		return fmt.Errorf("%w: invalid ELF version byte %#02x", ErrMalformed, version)
	}
	return nil
}

// checkShstrtab applies checkHeader to the section-name string table
// (e_shstrndx) by reading the ELF and section headers from raw. A header
// too short or out of range to locate it is left for elf.NewFile to
// report.
func checkShstrtab(raw []byte) error {
	if len(raw) < 0x40 || string(raw[:4]) != elf.ELFMAG {
		return nil
	}
	var bo binary.ByteOrder = binary.LittleEndian
	if elf.Data(raw[elf.EI_DATA]) == elf.ELFDATA2MSB {
		bo = binary.BigEndian
	}
	is64 := elf.Class(raw[elf.EI_CLASS]) == elf.ELFCLASS64
	word := func(b []byte) uint64 {
		if is64 {
			return bo.Uint64(b)
		}
		return uint64(bo.Uint32(b))
	}
	// Field offsets of e_shoff and e_shentsize (e_shnum and e_shstrndx
	// follow it), and of sh_flags, sh_offset, sh_size and sh_link, per
	// ELF class.
	shoff, at := word(raw[0x20:]), 0x2E
	flagsAt, offAt, sizeAt, linkAt := 8, 16, 20, 24
	if is64 {
		shoff, at = word(raw[0x28:]), 0x3A
		flagsAt, offAt, sizeAt, linkAt = 8, 24, 32, 40
	}
	shentsize := uint64(bo.Uint16(raw[at:]))
	shnum, shstrndx := uint64(bo.Uint16(raw[at+2:])), uint64(bo.Uint16(raw[at+4:]))
	hdr := func(i uint64) []byte {
		if shentsize < uint64(linkAt+4) || shoff > uint64(len(raw)) ||
			i >= (uint64(len(raw))-shoff)/shentsize {
			return nil
		}
		return raw[shoff+i*shentsize:][:shentsize]
	}
	// Extended numbering keeps the real count and index in section 0.
	if h := hdr(0); h != nil {
		if shnum == 0 {
			shnum = word(h[sizeAt:])
		}
		if shstrndx == uint64(elf.SHN_XINDEX) {
			shstrndx = uint64(bo.Uint32(h[linkAt:]))
		}
	}
	h := hdr(shstrndx)
	if shstrndx == 0 || shstrndx >= shnum || h == nil {
		return nil
	}
	return checkHeader(".shstrtab", elf.SectionType(bo.Uint32(h[4:])), elf.SectionFlag(word(h[flagsAt:])),
		word(h[offAt:]), word(h[sizeAt:]), raw)
}

// PtrSize returns the pointer width in bytes.
func (b *Binary) PtrSize() int {
	if b.Mode == x86.Mode64 {
		return 8
	}
	return 4
}

// MarkersEnabled reports whether the binary's property note declares the
// landmark feature the identification algorithm keys on: IBT for the x86
// arches, BTI for AArch64.
func (b *Binary) MarkersEnabled() bool { return b.CETEnabled || b.BTIEnabled }

// TextEnd returns the first address past the .text section.
func (b *Binary) TextEnd() uint64 { return b.TextAddr + uint64(len(b.Text)) }

// InText reports whether va falls inside .text.
func (b *Binary) InText(va uint64) bool {
	return va >= b.TextAddr && va < b.TextEnd()
}

// InPLT reports whether va falls inside .plt or .plt.sec.
func (b *Binary) InPLT(va uint64) bool {
	if b.PLTEnd > 0 && va >= b.PLTStart && va < b.PLTEnd {
		return true
	}
	return b.PLTSecEnd > 0 && va >= b.PLTSecStart && va < b.PLTSecEnd
}

// PLTName returns the imported symbol a PLT-entry address trampolines to.
func (b *Binary) PLTName(va uint64) (string, bool) {
	name, ok := b.PLT[va]
	return name, ok
}

// GNU property types carrying the landmark feature words: bit 0 of the
// x86 word is IBT, bit 0 of the AArch64 word is BTI.
const (
	prTypeX86Features     = 0xc0000002 // GNU_PROPERTY_X86_FEATURE_1_AND
	prTypeAArch64Features = 0xc0000000 // GNU_PROPERTY_AARCH64_FEATURE_1_AND
)

// hasPropertyBit scans the .note.gnu.property bytes for the property
// word prType and reports whether it carries bit.
func hasPropertyBit(data []byte, class elf.Class, prType, bit uint32) bool {
	if len(data) < 16 {
		return false
	}
	le := binary.LittleEndian
	namesz := le.Uint32(data[0:])
	descsz := le.Uint32(data[4:])
	if namesz != 4 || !bytes.Equal(data[12:16], []byte("GNU\x00")) {
		return false
	}
	desc := data[16:]
	if uint32(len(desc)) < descsz {
		return false
	}
	for off := uint32(0); off+8 <= descsz; {
		gotType := le.Uint32(desc[off:])
		prSize := le.Uint32(desc[off+4:])
		if gotType == prType && prSize >= 4 && off+8+4 <= uint32(len(desc)) {
			return le.Uint32(desc[off+8:])&bit != 0
		}
		// Properties are padded to the class alignment.
		align := uint32(8)
		if class == elf.ELFCLASS32 {
			align = 4
		}
		off += 8 + (prSize+align-1)/align*align
	}
	return false
}

// buildPLTMap resolves each PLT entry to the symbol it imports by reading
// the indirect-jump GOT slot out of each stub and joining it against the
// PLT relocation table. Both the classic single .plt layout and the
// split .plt/.plt.sec layout of CET-enabled links are handled: every
// executable stub section is scanned with the same GOT-slot join.
func (b *Binary) buildPLTMap(f *elf.File, raw []byte) error {
	gotToName, err := pltRelocations(f, raw)
	if err != nil {
		return err
	}
	scan := func(sec *elf.Section) error {
		if sec == nil {
			return nil
		}
		data, err := sectionData(sec, raw)
		if err != nil {
			return err
		}
		switch sec.Name {
		case ".plt":
			b.PLTStart = sec.Addr
			b.PLTEnd = sec.Addr + uint64(len(data))
		case ".plt.sec":
			b.PLTSecStart = sec.Addr
			b.PLTSecEnd = sec.Addr + uint64(len(data))
		}
		if len(gotToName) == 0 || b.Arch == ArchAArch64 {
			// The stub scan below decodes x86; AArch64 PLT stubs would
			// be decoded as garbage, and the map only feeds the x86-only
			// indirect-return endbr filter. Section bounds are still
			// recorded above.
			return nil
		}
		// Walk the stubs: each one contains an indirect jmp through its
		// GOT slot. Attribute the jump to the 16-byte-aligned stub start.
		x86.LinearSweep(data, sec.Addr, b.Mode, func(inst *x86.Inst) bool {
			if inst.Class != x86.ClassJmpInd {
				return true
			}
			var slot uint64
			switch {
			case inst.HasRIPRef:
				slot = inst.RIPRef
			case inst.HasMemDisp:
				slot = inst.MemDisp
			default:
				return true
			}
			name, ok := gotToName[slot]
			if !ok {
				return true
			}
			entry := inst.Addr &^ 0xF // stubs are 16-byte aligned
			if entry < sec.Addr {
				entry = sec.Addr
			}
			b.PLT[entry] = name
			return true
		})
		return nil
	}
	if err := scan(f.Section(".plt")); err != nil {
		return err
	}
	return scan(f.Section(".plt.sec"))
}

// pltRelocations parses .rela.plt / .rel.plt into a GOT-slot → name map.
func pltRelocations(f *elf.File, raw []byte) (map[uint64]string, error) {
	var (
		data []byte
		rela bool
		err  error
	)
	if s := f.Section(".rela.plt"); s != nil {
		if data, err = sectionData(s, raw); err != nil {
			return nil, err
		}
		rela = true
	} else if s := f.Section(".rel.plt"); s != nil {
		if data, err = sectionData(s, raw); err != nil {
			return nil, err
		}
	} else {
		return nil, nil
	}
	dynsyms, err := f.DynamicSymbols()
	if err != nil {
		return nil, nil // no dynamic symbols: nothing to resolve
	}
	nameOf := func(idx uint32) string {
		// DynamicSymbols omits the null symbol: index 1 is element 0.
		if idx == 0 || int(idx) > len(dynsyms) {
			return ""
		}
		return dynsyms[idx-1].Name
	}

	out := make(map[uint64]string)
	le := binary.LittleEndian
	if f.Class == elf.ELFCLASS64 {
		if !rela {
			return nil, errors.New("elfx: ELF64 PLT relocations must be RELA")
		}
		for off := 0; off+24 <= len(data); off += 24 {
			r := elf.Rela64{
				Off:  le.Uint64(data[off:]),
				Info: le.Uint64(data[off+8:]),
			}
			if name := nameOf(elf.R_SYM64(r.Info)); name != "" {
				out[r.Off] = name
			}
		}
		return out, nil
	}
	if rela {
		for off := 0; off+12 <= len(data); off += 12 {
			r := elf.Rela32{
				Off:  le.Uint32(data[off:]),
				Info: le.Uint32(data[off+4:]),
			}
			if name := nameOf(elf.R_SYM32(r.Info)); name != "" {
				out[uint64(r.Off)] = name
			}
		}
		return out, nil
	}
	for off := 0; off+8 <= len(data); off += 8 {
		r := elf.Rel32{
			Off:  le.Uint32(data[off:]),
			Info: le.Uint32(data[off+4:]),
		}
		if name := nameOf(elf.R_SYM32(r.Info)); name != "" {
			out[uint64(r.Off)] = name
		}
	}
	return out, nil
}
