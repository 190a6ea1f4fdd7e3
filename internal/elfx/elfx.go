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
	"cmp"
	"debug/elf"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"slices"

	"github.com/funseeker/funseeker/internal/x86"
)

// Binary is a loaded ELF executable ready for analysis.
//
// Text, EHFrame and ExceptTable are slices of the image Load was given,
// not copies (their capacity is capped, so an append never writes into
// the image). The image must not be mutated while the Binary is in use,
// and a caller that wants to alter a section must load a private copy
// of the image.
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
// outside the image), when the image has the ELF magic but an invalid
// class, data or version byte, when its section names together are
// longer than the image, or when an ELF64 image's PLT relocations are
// REL rather than RELA. Match with errors.Is(err, ErrMalformed).
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

// Load parses an in-memory ELF image. The returned Binary's sections
// alias raw, which must not be mutated while the Binary is in use.
func Load(raw []byte) (*Binary, error) {
	if err := checkIdent(raw); err != nil {
		return nil, err
	}
	if err := checkHeaders(raw); err != nil {
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

	syms, err := symbols(f, elf.SHT_SYMTAB, raw)
	if err != nil {
		return nil, err
	}
	bin.FuncSymbols = slices.DeleteFunc(syms, func(s elf.Symbol) bool { return elf.ST_TYPE(s.Info) != elf.STT_FUNC })
	dynsyms, err := symbols(f, elf.SHT_DYNSYM, raw)
	if err != nil {
		return nil, err
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

	if err := bin.buildPLTMap(f, raw, dynsyms); err != nil {
		return nil, err
	}
	return bin, nil
}

// sectionData returns the bytes of sec, a section Load reads, after
// checkSection accepts it: a slice of raw itself, not a copy, with its
// capacity capped at its length so that an append copies instead of
// writing into the image.
func sectionData(sec *elf.Section, raw []byte) ([]byte, error) {
	if err := checkSection(sec, raw); err != nil {
		return nil, err
	}
	end := sec.Offset + sec.FileSize
	return raw[sec.Offset:end:end], nil
}

// symbols reads the symbol table of type typ as elf.File.Symbols does,
// the null entry omitted, but reads the table and its string table
// through sectionData, and every name is a substring of one copy of the
// string table. So entries that all name one long string cost it once,
// not once each, and no symbol-version section is read (debug/elf's
// DynamicSymbols would inflate a compressed one). A table that is
// missing, empty, ragged or without a string table is nil, as debug/elf
// reports it as an error.
func symbols(f *elf.File, typ elf.SectionType, raw []byte) ([]elf.Symbol, error) {
	s := f.SectionByType(typ)
	if s == nil {
		return nil, nil
	}
	data, err := sectionData(s, raw)
	if err != nil || int(s.Link) >= len(f.Sections) {
		return nil, err
	}
	strtab, err := sectionData(f.Sections[s.Link], raw)
	entSize := 24 // Elf64_Sym
	if f.Class == elf.ELFCLASS32 {
		entSize = 16
	}
	if err != nil || s.Link == 0 || len(data) == 0 || len(data)%entSize != 0 {
		return nil, err
	}
	bo, ents := f.ByteOrder, data[entSize:]
	syms := make([]elf.Symbol, len(ents)/entSize)
	nameOffs := make([]uint32, len(syms))
	for i := range syms {
		e := ents[i*entSize:]
		nameOffs[i] = bo.Uint32(e)
		if entSize == 16 {
			syms[i].Value, syms[i].Size = uint64(bo.Uint32(e[4:])), uint64(bo.Uint32(e[8:]))
			syms[i].Info, syms[i].Other, syms[i].Section = e[12], e[13], elf.SectionIndex(bo.Uint16(e[14:]))
		} else {
			syms[i].Info, syms[i].Other, syms[i].Section = e[4], e[5], elf.SectionIndex(bo.Uint16(e[6:]))
			syms[i].Value, syms[i].Size = bo.Uint64(e[8:]), bo.Uint64(e[16:])
		}
	}
	strs := string(strtab)
	for i, end := range stringEnds(strtab, nameOffs) {
		if end >= 0 {
			syms[i].Name = strs[nameOffs[i]:end]
		}
	}
	return syms, nil
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

// checkHeaders reads the header-table fields from raw and rejects what
// would make elf.NewFile allocate out of proportion to raw, before it
// reads anything: a program or section header table that lies outside
// raw, which NewFile rejects only after reading up to 10 MiB of it
// (ErrNotELF, as NewFile would report it); a section-name string table
// (e_shstrndx) that checkHeader rejects; and section names that
// together are longer than raw, which NewFile would copy out one string
// per section (ErrMalformed). A header too short or out of range to
// locate a table is left for elf.NewFile to report.
func checkHeaders(raw []byte) error {
	if len(raw) < elf.EI_NIDENT || string(raw[:4]) != elf.ELFMAG {
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
	// Field offsets of e_phoff, e_shoff and e_phentsize (e_phnum,
	// e_shentsize, e_shnum and e_shstrndx follow it), the header sizes
	// elf.NewFile requires, and the offsets of sh_flags, sh_offset,
	// sh_size and sh_link, per ELF class.
	ehsize, phoffAt, shoffAt, at, phentMin, shentMin := 0x34, 0x1C, 0x20, 0x2A, 32, 40
	flagsAt, offAt, sizeAt, linkAt := 8, 16, 20, 24
	if is64 {
		ehsize, phoffAt, shoffAt, at, phentMin, shentMin = 0x40, 0x20, 0x28, 0x36, 56, 64
		flagsAt, offAt, sizeAt, linkAt = 8, 24, 32, 40
	}
	if len(raw) < ehsize {
		return nil
	}
	n := uint64(len(raw))
	fits := func(off, num, entsize uint64) bool { return off <= n && num <= (n-off)/entsize }
	phoff, phentsize, phnum := word(raw[phoffAt:]), uint64(bo.Uint16(raw[at:])), uint64(bo.Uint16(raw[at+2:]))
	if phnum > 0 && phentsize >= uint64(phentMin) && !fits(phoff, phnum, phentsize) {
		return fmt.Errorf("%w: program header table [%#x,+%d×%d) lies outside the %d-byte image", ErrNotELF, phoff, phnum, phentsize, n)
	}
	shoff, shentsize := word(raw[shoffAt:]), uint64(bo.Uint16(raw[at+4:]))
	shnum, shstrndx := uint64(bo.Uint16(raw[at+6:])), uint64(bo.Uint16(raw[at+8:]))
	if shoff == 0 || shentsize < uint64(shentMin) {
		return nil // no sections, or a header elf.NewFile rejects unread
	}
	hdr := func(i uint64) []byte { return raw[shoff+i*shentsize:][:shentsize] }
	// Extended numbering keeps the real count and index in section 0.
	if shnum == 0 {
		if !fits(shoff, 1, shentsize) {
			return nil
		}
		shnum = word(hdr(0)[sizeAt:])
		if shstrndx == uint64(elf.SHN_XINDEX) {
			shstrndx = uint64(bo.Uint32(hdr(0)[linkAt:]))
		}
	}
	if !fits(shoff, shnum, shentsize) {
		return fmt.Errorf("%w: section header table [%#x,+%d×%d) lies outside the %d-byte image", ErrNotELF, shoff, shnum, shentsize, n)
	}
	if shstrndx == 0 || shstrndx >= shnum {
		return nil
	}
	h := hdr(shstrndx)
	typ, off, size := elf.SectionType(bo.Uint32(h[4:])), word(h[offAt:]), word(h[sizeAt:])
	if err := checkHeader(".shstrtab", typ, elf.SectionFlag(word(h[flagsAt:])), off, size, raw); err != nil || typ != elf.SHT_STRTAB {
		return err
	}
	names := make([]uint32, shnum)
	for i := range names {
		names[i] = bo.Uint32(hdr(uint64(i)))
	}
	total := 0
	for i, end := range stringEnds(raw[off:off+size], names) {
		if end >= 0 {
			total += end - int(names[i])
		}
	}
	if total > len(raw) {
		return fmt.Errorf("%w: the %d section names total %d bytes, more than the %d-byte image", ErrMalformed, shnum, total, n)
	}
	return nil
}

// stringEnds returns, for each offset in offs, the index in tab of the
// NUL ending the string that starts there, or -1 when the offset lies
// outside tab or no NUL follows it. Taking the offsets in order finds
// every NUL in one pass over tab, where a scan per offset would take
// time quadratic in the table's size for offsets that all start one
// long string.
func stringEnds(tab []byte, offs []uint32) []int {
	order := make([]int, len(offs))
	ends := make([]int, len(offs))
	for i := range order {
		order[i], ends[i] = i, -1
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(offs[a], offs[b]) })
	end := -1 // the NUL ending the last string found
	for _, i := range order {
		if uint64(offs[i]) >= uint64(len(tab)) {
			break
		}
		if off := int(offs[i]); end < off {
			j := bytes.IndexByte(tab[off:], 0)
			if j < 0 {
				break // no NUL from off on
			}
			end = off + j
		}
		ends[i] = end
	}
	return ends
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
func (b *Binary) buildPLTMap(f *elf.File, raw []byte, dynsyms []elf.Symbol) error {
	gotToName, err := pltRelocations(f, raw, dynsyms)
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

// pltRelocations parses .rela.plt / .rel.plt into a GOT-slot → name map,
// naming each slot from dynsyms, the dynamic symbol table.
func pltRelocations(f *elf.File, raw []byte, dynsyms []elf.Symbol) (map[uint64]string, error) {
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
	if dynsyms == nil {
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
			return nil, fmt.Errorf("%w: ELF64 PLT relocations must be RELA", ErrMalformed)
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
