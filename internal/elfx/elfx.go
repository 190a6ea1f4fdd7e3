// Package elfx loads ELF binaries for function-identification analysis.
//
// It reads the ELF header and the section header table itself, in one
// pass over the image, and extracts exactly what the identification
// tools need: the executable sections with their load addresses, the
// exception-handling metadata (.eh_frame, .gcc_except_table), the PLT
// entry → imported-symbol-name map recovered from the PLT relocations,
// and the CET feature bits from the GNU property note. debug/elf
// supplies the constants and types.
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

// Binary is a loaded ELF executable ready for analysis. It holds what
// the identification algorithms and the baseline tools read, and
// nothing else.
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
// image at all: no ELF magic, or an ELF header or section header table
// that debug/elf would reject too. The message names the field at
// fault; match with errors.Is(err, ErrNotELF).
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
	f, err := parse(raw)
	if err != nil {
		return nil, err
	}

	mode := x86.Mode64
	if f.class == elf.ELFCLASS32 {
		mode = x86.Mode32
	}
	bin := &Binary{
		Arch:  archFrom(f.machine, f.class),
		Mode:  mode,
		Entry: f.entry,
		PLT:   make(map[uint64]string),
	}

	if f.section(".text") == nil {
		return nil, ErrNoText
	}
	if bin.Text, bin.TextAddr, err = f.read(".text"); err != nil {
		return nil, err
	}
	if bin.EHFrame, bin.EHFrameAddr, err = f.read(".eh_frame"); err != nil {
		return nil, err
	}
	if bin.ExceptTable, bin.ExceptTableAddr, err = f.read(".gcc_except_table"); err != nil {
		return nil, err
	}

	dynsyms, err := dynamicSymbolNames(f)
	if err != nil {
		return nil, err
	}

	note, _, err := f.read(".note.gnu.property")
	if err != nil {
		return nil, err
	}
	if bin.Arch == ArchAArch64 {
		bin.BTIEnabled = hasPropertyBit(note, f.class, prTypeAArch64Features, 0x1)
	} else {
		bin.CETEnabled = hasPropertyBit(note, f.class, prTypeX86Features, 0x1)
	}

	if err := bin.buildPLTMap(f, dynsyms); err != nil {
		return nil, err
	}
	return bin, nil
}

// file is an ELF image's header and section header table as parse reads
// them from the image: only the fields Load uses.
type file struct {
	raw      []byte
	class    elf.Class
	bo       binary.ByteOrder
	machine  elf.Machine
	entry    uint64
	sections []section
}

// section is one section header. Its name is a slice of .shstrtab in
// the image itself.
type section struct {
	name            []byte
	typ             elf.SectionType
	flags           elf.SectionFlag
	addr, off, size uint64
	link            uint32
}

// ident reads e_ident and e_machine, the header fields DetectArch and
// Load share. Input too short for them or without the ELF magic is
// ErrNotELF; an invalid class, data or version byte is ErrMalformed,
// and the message names the byte.
func (f *file) ident(raw []byte) error {
	if len(raw) < 0x14 || string(raw[:4]) != elf.ELFMAG {
		return fmt.Errorf("%w: no ELF identification and e_machine", ErrNotELF)
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
	f.bo = binary.LittleEndian
	if data == byte(elf.ELFDATA2MSB) {
		f.bo = binary.BigEndian
	}
	f.class, f.machine = elf.Class(class), elf.Machine(f.bo.Uint16(raw[0x12:]))
	return nil
}

// word reads an address-sized field: 8 bytes in ELF64, 4 in ELF32.
func (f *file) word(b []byte) uint64 {
	if f.class == elf.ELFCLASS64 {
		return f.bo.Uint64(b)
	}
	return uint64(f.bo.Uint32(b))
}

// parse reads the ELF header and the section header table of raw in one
// pass, bounds-checking each field where it reads it, and names each
// section by a slice of .shstrtab. What elf.NewFile rejects among the
// fields Load uses is ErrNotELF; a .shstrtab that data rejects, and
// section names longer in total than raw, are ErrMalformed. Program
// headers are never read, only located.
func parse(raw []byte) (*file, error) {
	f := &file{raw: raw}
	if err := f.ident(raw); err != nil {
		return nil, err
	}
	// Per class: the header size, where e_phoff, e_shoff and e_phentsize
	// lie (the other counts and sizes follow it), the entry sizes NewFile
	// requires, and where sh_addr, sh_offset, sh_size and sh_link lie.
	ehsize, phoffAt, shoffAt, at, phentMin, shentMin := 0x34, 0x1C, 0x20, 0x2A, 32, 40
	addrAt, offAt, sizeAt, linkAt := 12, 16, 20, 24
	if f.class == elf.ELFCLASS64 {
		ehsize, phoffAt, shoffAt, at, phentMin, shentMin = 0x40, 0x20, 0x28, 0x36, 56, 64
		addrAt, offAt, sizeAt, linkAt = 16, 24, 32, 40
	}
	n := uint64(len(raw))
	if n < uint64(ehsize) {
		return nil, fmt.Errorf("%w: the %d-byte image ends inside its ELF header", ErrNotELF, n)
	}
	// e_version is a word, but elf.NewFile compares only its low byte.
	if v := elf.Version(f.bo.Uint32(raw[0x14:])); v != elf.EV_CURRENT {
		return nil, fmt.Errorf("%w: e_version %d", ErrNotELF, v)
	}
	f.entry = f.word(raw[0x18:])
	fits := func(off, num, entsize uint64) bool { return off <= n && num <= (n-off)/entsize }
	phoff, phentsize, phnum := f.word(raw[phoffAt:]), uint64(f.bo.Uint16(raw[at:])), uint64(f.bo.Uint16(raw[at+2:]))
	shoff, shentsize := f.word(raw[shoffAt:]), uint64(f.bo.Uint16(raw[at+4:]))
	shnum, shstrndx := uint64(f.bo.Uint16(raw[at+6:])), uint64(f.bo.Uint16(raw[at+8:]))
	if int64(phoff) < 0 || phnum > 0 && (phentsize < uint64(phentMin) || !fits(phoff, phnum, phentsize)) {
		return nil, fmt.Errorf("%w: program header table [%#x,+%d×%d) has short entries or lies outside the %d-byte image", ErrNotELF, phoff, phnum, phentsize, n)
	}
	// Extended numbering keeps the real count, and an e_shstrndx that
	// does not fit, in section 0.
	if shoff > 0 && shnum == 0 {
		if !fits(shoff, 1, uint64(shentMin)) {
			return nil, fmt.Errorf("%w: section header 0 at %#x lies outside the %d-byte image", ErrNotELF, shoff, n)
		}
		h := raw[shoff:]
		if shnum = f.word(h[sizeAt:]); elf.SectionType(f.bo.Uint32(h[4:])) != elf.SHT_NULL || shnum < uint64(elf.SHN_LORESERVE) {
			return nil, fmt.Errorf("%w: section 0 holds no extended section count", ErrNotELF)
		}
		if shstrndx == uint64(elf.SHN_XINDEX) {
			if shstrndx = uint64(f.bo.Uint32(h[linkAt:])); shstrndx < uint64(elf.SHN_LORESERVE) {
				return nil, fmt.Errorf("%w: extended e_shstrndx %d", ErrNotELF, shstrndx)
			}
		}
	}
	switch {
	case shnum == 0:
		return f, nil
	case shoff == 0 || shentsize < uint64(shentMin) || !fits(shoff, shnum, shentsize):
		return nil, fmt.Errorf("%w: section header table [%#x,+%d×%d) has short entries or lies outside the %d-byte image", ErrNotELF, shoff, shnum, shentsize, n)
	case shstrndx >= shnum:
		return nil, fmt.Errorf("%w: e_shstrndx %d of %d sections", ErrNotELF, shstrndx, shnum)
	}

	f.sections = make([]section, shnum)
	names := make([]uint32, shnum)
	for i := range f.sections {
		h := raw[shoff+uint64(i)*shentsize:]
		names[i] = f.bo.Uint32(h)
		f.sections[i] = section{
			typ:   elf.SectionType(f.bo.Uint32(h[4:])),
			flags: elf.SectionFlag(f.word(h[8:])),
			addr:  f.word(h[addrAt:]),
			off:   f.word(h[offAt:]),
			size:  f.word(h[sizeAt:]),
			link:  f.bo.Uint32(h[linkAt:]),
		}
	}
	if shstrndx == 0 {
		return f, nil // no section names
	}
	strtab := &f.sections[shstrndx]
	strtab.name = []byte(".shstrtab") // for data's messages, until the table names it
	tab, err := f.data(strtab)
	if err != nil {
		return nil, err
	}
	if strtab.typ != elf.SHT_STRTAB {
		return nil, fmt.Errorf("%w: .shstrtab is %v, not SHT_STRTAB", ErrNotELF, strtab.typ)
	}
	total := 0
	for i, end := range stringEnds(tab, names) {
		if end < 0 {
			return nil, fmt.Errorf("%w: section %d's name offset %d is not a string of .shstrtab", ErrNotELF, i, names[i])
		}
		f.sections[i].name = tab[names[i]:end]
		total += len(f.sections[i].name)
	}
	if total > len(raw) {
		return nil, fmt.Errorf("%w: the %d section names total %d bytes, more than the %d-byte image", ErrMalformed, shnum, total, n)
	}
	return f, nil
}

// section returns the first section named name, as elf.File.Section
// does, or nil.
func (f *file) section(name string) *section {
	for i := range f.sections {
		if string(f.sections[i].name) == name {
			return &f.sections[i]
		}
	}
	return nil
}

// read returns the bytes (through data) and the address of the first
// section named name, or nothing when there is none.
func (f *file) read(name string) ([]byte, uint64, error) {
	s := f.section(name)
	if s == nil {
		return nil, 0, nil
	}
	data, err := f.data(s)
	return data, s.addr, err
}

// data returns the bytes of s, a section Load reads: a slice of the
// image itself, not a copy, with its capacity capped at its length so
// that an append copies instead of writing into the image. A section
// whose bytes are not a plain range of the image is ErrMalformed:
// SHF_COMPRESSED, which no toolchain emits on the sections Load reads
// and which lets a small image inflate to any size; SHT_NOBITS, whose
// zero fill is sized by the header alone; and a file range outside the
// image. Sections Load never reads (compressed debug sections among
// them) are not checked.
func (f *file) data(s *section) ([]byte, error) {
	n := uint64(len(f.raw))
	switch {
	case s.flags&elf.SHF_COMPRESSED != 0:
		return nil, fmt.Errorf("%w: %s is compressed", ErrMalformed, s.name)
	case s.typ == elf.SHT_NOBITS:
		return nil, fmt.Errorf("%w: %s has no file bytes", ErrMalformed, s.name)
	case s.off > n || s.size > n-s.off:
		return nil, fmt.Errorf("%w: %s [%#x,+%#x) lies outside the %d-byte image", ErrMalformed, s.name, s.off, s.size, n)
	}
	end := s.off + s.size
	return f.raw[s.off:end:end], nil
}

// dynamicSymbolNames reads the names of the first .dynsym-typed table
// as elf.File.DynamicSymbols does, the null entry omitted (so the name
// of symbol i is element i-1), but reads the table and its string table
// through data, and every name is a substring of one copy of the string
// table. So entries that all name one long string cost it once, not
// once each, and no symbol-version section is read (debug/elf would
// inflate a compressed one). A table that is missing, empty, ragged or
// without a string table is nil, as debug/elf reports it as an error.
func dynamicSymbolNames(f *file) ([]string, error) {
	i := slices.IndexFunc(f.sections, func(s section) bool { return s.typ == elf.SHT_DYNSYM })
	if i < 0 {
		return nil, nil
	}
	s := &f.sections[i]
	data, err := f.data(s)
	if err != nil || int(s.link) >= len(f.sections) {
		return nil, err
	}
	strtab, err := f.data(&f.sections[s.link])
	entSize := 24 // Elf64_Sym
	if f.class == elf.ELFCLASS32 {
		entSize = 16
	}
	if err != nil || s.link == 0 || len(data) == 0 || len(data)%entSize != 0 {
		return nil, err
	}
	// st_name is the first word of an entry in both classes.
	ents := data[entSize:]
	nameOffs := make([]uint32, len(ents)/entSize)
	for i := range nameOffs {
		nameOffs[i] = f.bo.Uint32(ents[i*entSize:])
	}
	names := make([]string, len(nameOffs))
	strs := string(strtab)
	for i, end := range stringEnds(strtab, nameOffs) {
		if end >= 0 {
			names[i] = strs[nameOffs[i]:end]
		}
	}
	return names, nil
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
	// off is a uint64, so a pr_datasz past the descriptor ends the scan:
	// near 2^32 it would wrap a uint32 off back to the first property.
	for off := uint64(0); off+8 <= uint64(descsz); {
		gotType := le.Uint32(desc[off:])
		prSize := uint64(le.Uint32(desc[off+4:]))
		if gotType == prType && prSize >= 4 && off+8+4 <= uint64(len(desc)) {
			return le.Uint32(desc[off+8:])&bit != 0
		}
		// Properties are padded to the class alignment.
		align := uint64(8)
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
func (b *Binary) buildPLTMap(f *file, dynsyms []string) error {
	gotToName, err := pltRelocations(f, dynsyms)
	if err != nil {
		return err
	}
	scan := func(name string) error {
		data, addr, err := f.read(name)
		if err != nil || len(gotToName) == 0 || b.Arch == ArchAArch64 {
			// The stub scan below decodes x86; AArch64 PLT stubs would
			// be decoded as garbage, and the map only feeds the x86-only
			// indirect-return endbr filter.
			return err
		}
		// Walk the stubs: each one contains an indirect jmp through its
		// GOT slot. Attribute the jump to the 16-byte-aligned stub start.
		x86.LinearSweep(data, addr, b.Mode, func(inst *x86.Inst) bool {
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
			if entry < addr {
				entry = addr
			}
			b.PLT[entry] = name
			return true
		})
		return nil
	}
	if err := scan(".plt"); err != nil {
		return err
	}
	return scan(".plt.sec")
}

// pltRelocations parses .rela.plt / .rel.plt into a GOT-slot → name map,
// naming each slot from dynsyms, the dynamic symbol table's names.
func pltRelocations(f *file, dynsyms []string) (map[uint64]string, error) {
	s, rela := f.section(".rela.plt"), true
	if s == nil {
		s, rela = f.section(".rel.plt"), false
	}
	if s == nil {
		return nil, nil
	}
	data, err := f.data(s)
	if err != nil {
		return nil, err
	}
	if dynsyms == nil {
		return nil, nil // no dynamic symbols: nothing to resolve
	}
	nameOf := func(idx uint32) string {
		// The null symbol is omitted: index 1 is element 0.
		if idx == 0 || int(idx) > len(dynsyms) {
			return ""
		}
		return dynsyms[idx-1]
	}

	if f.class == elf.ELFCLASS64 && !rela {
		return nil, fmt.Errorf("%w: ELF64 PLT relocations must be RELA", ErrMalformed)
	}

	// An entry is r_offset, r_info and, in RELA, r_addend, each a word of
	// the class; r_info's symbol index is its high 32 bits in ELF64 and
	// its high 24 in ELF32.
	le := binary.LittleEndian
	entSize, symShift := 8, 8 // Elf32_Rel
	fields := func(e []byte) (uint64, uint64) { return uint64(le.Uint32(e)), uint64(le.Uint32(e[4:])) }
	switch {
	case f.class == elf.ELFCLASS64:
		entSize, symShift = 24, 32
		fields = func(e []byte) (uint64, uint64) { return le.Uint64(e), le.Uint64(e[8:]) }
	case rela:
		entSize = 12
	}
	out := make(map[uint64]string)
	for off := 0; off+entSize <= len(data); off += entSize {
		slot, info := fields(data[off:])
		if name := nameOf(uint32(info >> symShift)); name != "" {
			out[slot] = name
		}
	}
	return out, nil
}
