// Package ehframe encodes and parses the DWARF-based .eh_frame section
// used for stack unwinding and C++ exception handling.
//
// The section is a sequence of length-prefixed entries: CIEs (Common
// Information Entries) carrying shared configuration — notably the pointer
// encodings declared by the augmentation string — and FDEs (Frame
// Description Entries), each describing one contiguous code range
// (pc begin / pc range) with an optional pointer to the range's LSDA in
// .gcc_except_table.
//
// Both a builder (used by the synthetic compiler) and a parser (used by
// the FETCH- and Ghidra-style baselines and by FunSeeker's landing-pad
// filter) are provided. The builder emits the encodings GCC and Clang use
// in practice: augmentation "zR" (or "zPLR" when a personality routine
// and LSDA are present) with pcrel|sdata4 pointers.
package ehframe

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/funseeker/funseeker/internal/leb128"
)

// DWARF exception-handling pointer-encoding constants (DW_EH_PE_*).
const (
	// EncAbsPtr is an absolute pointer of the natural word size.
	EncAbsPtr byte = 0x00
	// EncULEB128 is an unsigned LEB128 value.
	EncULEB128 byte = 0x01
	// EncUData2 is an unsigned 2-byte value.
	EncUData2 byte = 0x02
	// EncUData4 is an unsigned 4-byte value.
	EncUData4 byte = 0x03
	// EncUData8 is an unsigned 8-byte value.
	EncUData8 byte = 0x04
	// EncSLEB128 is a signed LEB128 value.
	EncSLEB128 byte = 0x09
	// EncSData2 is a signed 2-byte value.
	EncSData2 byte = 0x0A
	// EncSData4 is a signed 4-byte value.
	EncSData4 byte = 0x0B
	// EncSData8 is a signed 8-byte value.
	EncSData8 byte = 0x0C
	// EncPCRel marks a value relative to the address of the field itself.
	EncPCRel byte = 0x10
	// EncDataRel marks a value relative to the section start.
	EncDataRel byte = 0x30
	// EncIndirect marks a pointer to the value rather than the value.
	EncIndirect byte = 0x80
	// EncOmit marks an omitted field.
	EncOmit byte = 0xFF
)

// Common DWARF CFI opcodes used in initial/FDE instruction streams.
const (
	cfaNop            byte = 0x00
	cfaDefCFA         byte = 0x0C
	cfaDefCFAOffset   byte = 0x0E
	cfaAdvanceLoc4    byte = 0x04
	cfaOffsetExtended byte = 0x05
	opAdvanceLoc      byte = 0x40 // high-2-bits=01 forms
	opOffset          byte = 0x80 // high-2-bits=10 forms
)

// FDE is one parsed Frame Description Entry.
type FDE struct {
	// PCBegin is the absolute start address of the covered code range.
	PCBegin uint64
	// PCRange is the length of the covered range in bytes.
	PCRange uint64
	// LSDA is the absolute address of the range's Language-Specific Data
	// Area; valid when HasLSDA.
	LSDA uint64
	// HasLSDA reports whether the FDE carries an LSDA pointer.
	HasLSDA bool
}

// Errors returned by the parser.
var (
	// ErrMalformed is returned for structurally invalid section data.
	ErrMalformed = errors.New("ehframe: malformed section")
	// ErrUnsupportedEncoding is returned for pointer encodings the parser
	// does not implement.
	ErrUnsupportedEncoding = errors.New("ehframe: unsupported pointer encoding")
)

// cieInfo is the subset of CIE state needed to decode its FDEs.
type cieInfo struct {
	fdeEnc  byte
	lsdaEnc byte
	hasL    bool
	// skipFDEs marks a CIE whose FDE pointer encoding could not be
	// determined (an unrecognized augmentation character appeared before
	// 'R'): its FDEs cannot be decoded and are dropped with a warning.
	skipFDEs bool
}

// Parse decodes every FDE in the section. sectionVA is the virtual address
// the section is mapped at (needed for pcrel pointers) and ptrSize is the
// architecture pointer size in bytes (4 or 8).
//
// Unrecognized CIE augmentation characters do not fail the parse: the 'z'
// augmentation-data length makes unknown trailing entries skippable, so
// the affected CIE is degraded (see ParseWithWarnings) rather than
// dropping every FDE in the section.
func Parse(data []byte, sectionVA uint64, ptrSize int) ([]FDE, error) {
	fdes, _, err := ParseWithWarnings(data, sectionVA, ptrSize)
	return fdes, err
}

// ParseWithWarnings is Parse plus the list of non-fatal degradations the
// parser applied. Today these are all CIE-augmentation downgrades: a CIE
// with an augmentation character the parser does not recognize stops
// interpreting its augmentation data there (the 'z' length field bounds
// it), and — when the unknown character precedes 'R', leaving the FDE
// pointer encoding unknowable — that one CIE's FDEs are skipped instead
// of failing the whole section. A well-formed GCC/Clang section produces
// no warnings.
func ParseWithWarnings(data []byte, sectionVA uint64, ptrSize int) ([]FDE, []string, error) {
	if ptrSize != 4 && ptrSize != 8 {
		return nil, nil, fmt.Errorf("ehframe: bad pointer size %d", ptrSize)
	}
	fdes := make([]FDE, 0, countFDEs(data))
	var warns []string
	cies := make(map[uint64]cieInfo)
	skipped := make(map[uint64]int) // CIE offset -> FDEs dropped
	var skippedOrder []uint64       // first-skip order, for deterministic warnings
	off := uint64(0)
	for off+4 <= uint64(len(data)) {
		length := uint64(binary.LittleEndian.Uint32(data[off:]))
		if length == 0 {
			break // terminator
		}
		if length == 0xFFFFFFFF {
			return nil, warns, fmt.Errorf("%w: 64-bit DWARF length not supported", ErrUnsupportedEncoding)
		}
		entryStart := off + 4
		entryEnd := entryStart + length
		if entryEnd > uint64(len(data)) {
			return nil, warns, fmt.Errorf("%w: entry at %#x overruns section", ErrMalformed, off)
		}
		body := data[entryStart:entryEnd]
		if len(body) < 4 {
			return nil, warns, fmt.Errorf("%w: entry at %#x too short", ErrMalformed, off)
		}
		id := binary.LittleEndian.Uint32(body)
		if id == 0 {
			info, warn, err := parseCIE(body[4:])
			if err != nil {
				return nil, warns, fmt.Errorf("CIE at %#x: %w", off, err)
			}
			if warn != "" {
				warns = append(warns, fmt.Sprintf("CIE at %#x: %s", off, warn))
			}
			cies[off] = info
		} else {
			ciePos := entryStart - uint64(id)
			info, ok := cies[ciePos]
			if !ok {
				return nil, warns, fmt.Errorf("%w: FDE at %#x references unknown CIE %#x", ErrMalformed, off, ciePos)
			}
			if info.skipFDEs {
				if skipped[ciePos] == 0 {
					skippedOrder = append(skippedOrder, ciePos)
				}
				skipped[ciePos]++
				off = entryEnd
				continue
			}
			fde, err := parseFDE(body[4:], info, sectionVA+entryStart+4, ptrSize)
			if err != nil {
				return nil, warns, fmt.Errorf("FDE at %#x: %w", off, err)
			}
			fdes = append(fdes, fde)
		}
		off = entryEnd
	}
	for _, cieOff := range skippedOrder {
		warns = append(warns, fmt.Sprintf("skipped %d FDE(s) of CIE at %#x: FDE pointer encoding unknown", skipped[cieOff], cieOff))
	}
	return fdes, warns, nil
}

// countFDEs counts the well-framed FDE entries at the front of data by
// their length and ID fields alone, stopping where ParseWithWarnings
// would stop or fail: the capacity of its FDE slice.
func countFDEs(data []byte) int {
	n := 0
	for off := uint64(0); off+8 <= uint64(len(data)); {
		length := uint64(binary.LittleEndian.Uint32(data[off:]))
		end := off + 4 + length
		if length < 4 || length == 0xFFFFFFFF || end > uint64(len(data)) {
			break
		}
		if binary.LittleEndian.Uint32(data[off+4:]) != 0 {
			n++
		}
		off = end
	}
	return n
}

// parseCIE extracts the pointer encodings from a CIE body (after the ID).
// The warning return is non-empty when the CIE parsed but was degraded
// (unknown augmentation character); it is a fragment suitable for
// prefixing with the CIE's section offset.
func parseCIE(body []byte) (cieInfo, string, error) {
	r := leb128.NewReader(body)
	version, err := r.Byte()
	if err != nil {
		return cieInfo{}, "", err
	}
	if version != 1 && version != 3 {
		return cieInfo{}, "", fmt.Errorf("%w: CIE version %d", ErrUnsupportedEncoding, version)
	}
	// Augmentation string, NUL-terminated.
	var aug []byte
	for {
		b, err := r.Byte()
		if err != nil {
			return cieInfo{}, "", err
		}
		if b == 0 {
			break
		}
		aug = append(aug, b)
	}
	if _, err := r.Uleb(); err != nil { // code alignment factor
		return cieInfo{}, "", err
	}
	if _, err := r.Sleb(); err != nil { // data alignment factor
		return cieInfo{}, "", err
	}
	// Return-address register: byte in v1, ULEB in v3.
	if version == 1 {
		if _, err := r.Byte(); err != nil {
			return cieInfo{}, "", err
		}
	} else {
		if _, err := r.Uleb(); err != nil {
			return cieInfo{}, "", err
		}
	}
	info := cieInfo{fdeEnc: EncAbsPtr}
	if len(aug) == 0 || aug[0] != 'z' {
		return info, "", nil
	}
	augLen, err := r.Uleb()
	if err != nil {
		return cieInfo{}, "", err
	}
	augData, err := r.Bytes(int(augLen))
	if err != nil {
		return cieInfo{}, "", err
	}
	ar := leb128.NewReader(augData)
	var warn string
	seenR := false
	for _, c := range aug[1:] {
		if warn != "" {
			break
		}
		switch c {
		case 'R':
			enc, err := ar.Byte()
			if err != nil {
				return cieInfo{}, "", err
			}
			info.fdeEnc = enc
			seenR = true
		case 'L':
			enc, err := ar.Byte()
			if err != nil {
				return cieInfo{}, "", err
			}
			info.lsdaEnc = enc
			info.hasL = true
		case 'P':
			enc, err := ar.Byte()
			if err != nil {
				return cieInfo{}, "", err
			}
			// Skip the personality pointer; its size follows from enc.
			if _, err := skipEncoded(ar, enc); err != nil {
				return cieInfo{}, "", err
			}
		case 'S', 'B':
			// Signal frame / ARM B-key markers: no data.
		default:
			// Unknown augmentation character. Its augmentation-data
			// layout is unknowable, so stop interpreting augData here —
			// the 'z' length already bounded it, so the CIE body is
			// still well framed. Without 'R' the FDE pointer encoding
			// is unknown too, making this CIE's FDEs undecodable.
			warn = fmt.Sprintf("unrecognized augmentation %q in %q, remaining augmentation data ignored", string(c), string(aug))
			if !seenR {
				info.skipFDEs = true
				warn += "; FDE pointer encoding unknown, its FDEs will be skipped"
			}
		}
	}
	return info, warn, nil
}

// parseFDE decodes one FDE body. fieldVA is the virtual address of the
// first byte of the body (the pc-begin field), used for pcrel decoding.
func parseFDE(body []byte, info cieInfo, fieldVA uint64, ptrSize int) (FDE, error) {
	r := leb128.NewReader(body)
	pcBegin, err := readEncoded(r, info.fdeEnc, fieldVA+uint64(r.Offset()), ptrSize)
	if err != nil {
		return FDE{}, err
	}
	// pc-range uses the value format of the encoding without the
	// application (pcrel) bits.
	pcRange, err := readEncoded(r, info.fdeEnc&0x0F, 0, ptrSize)
	if err != nil {
		return FDE{}, err
	}
	// Reject ranges that wrap the address space: every consumer computes
	// the covered end as PCBegin+PCRange, and a wrapped interval would
	// corrupt downstream function-extent logic.
	if pcBegin+pcRange < pcBegin {
		return FDE{}, fmt.Errorf("%w: pc range %#x at %#x wraps address space", ErrMalformed, pcRange, pcBegin)
	}
	fde := FDE{PCBegin: pcBegin, PCRange: pcRange}
	if info.hasL {
		augLen, err := r.Uleb()
		if err != nil {
			return FDE{}, err
		}
		if info.lsdaEnc != EncOmit && augLen > 0 {
			lsda, err := readEncoded(r, info.lsdaEnc, fieldVA+uint64(r.Offset()), ptrSize)
			if err != nil {
				return FDE{}, err
			}
			if lsda != 0 {
				fde.LSDA = lsda
				fde.HasLSDA = true
			}
		} else if err := r.Skip(int(augLen)); err != nil {
			return FDE{}, err
		}
	}
	return fde, nil
}

// readEncoded reads one DW_EH_PE-encoded pointer. fieldVA is the virtual
// address of the field (for pcrel application).
func readEncoded(r *leb128.Reader, enc byte, fieldVA uint64, ptrSize int) (uint64, error) {
	if enc == EncOmit {
		return 0, nil
	}
	var value uint64
	format := enc & 0x0F
	switch format {
	case EncAbsPtr:
		b, err := r.Bytes(ptrSize)
		if err != nil {
			return 0, err
		}
		if ptrSize == 8 {
			value = binary.LittleEndian.Uint64(b)
		} else {
			value = uint64(binary.LittleEndian.Uint32(b))
		}
	case EncUData2:
		b, err := r.Bytes(2)
		if err != nil {
			return 0, err
		}
		value = uint64(binary.LittleEndian.Uint16(b))
	case EncUData4:
		b, err := r.Bytes(4)
		if err != nil {
			return 0, err
		}
		value = uint64(binary.LittleEndian.Uint32(b))
	case EncUData8, EncSData8:
		b, err := r.Bytes(8)
		if err != nil {
			return 0, err
		}
		value = binary.LittleEndian.Uint64(b)
	case EncSData2:
		b, err := r.Bytes(2)
		if err != nil {
			return 0, err
		}
		value = uint64(int64(int16(binary.LittleEndian.Uint16(b))))
	case EncSData4:
		b, err := r.Bytes(4)
		if err != nil {
			return 0, err
		}
		value = uint64(int64(int32(binary.LittleEndian.Uint32(b))))
	case EncULEB128:
		v, err := r.Uleb()
		if err != nil {
			return 0, err
		}
		value = v
	case EncSLEB128:
		v, err := r.Sleb()
		if err != nil {
			return 0, err
		}
		value = uint64(v)
	default:
		return 0, fmt.Errorf("%w: format %#x", ErrUnsupportedEncoding, format)
	}
	switch enc & 0x70 {
	case 0: // absolute
	case EncPCRel:
		value += fieldVA
	default:
		return 0, fmt.Errorf("%w: application %#x", ErrUnsupportedEncoding, enc&0x70)
	}
	// The indirect bit (0x80) dereferences through memory; the synthetic
	// toolchain never emits it for FDE/LSDA pointers.
	if enc&EncIndirect != 0 {
		return 0, fmt.Errorf("%w: indirect pointers", ErrUnsupportedEncoding)
	}
	return value, nil
}

// skipEncoded advances past one encoded pointer without interpreting it.
func skipEncoded(r *leb128.Reader, enc byte) (int, error) {
	format := enc & 0x0F
	switch format {
	case EncAbsPtr, EncUData8, EncSData8:
		return 8, r.Skip(8)
	case EncUData2, EncSData2:
		return 2, r.Skip(2)
	case EncUData4, EncSData4:
		return 4, r.Skip(4)
	case EncULEB128:
		_, err := r.Uleb()
		return 0, err
	case EncSLEB128:
		_, err := r.Sleb()
		return 0, err
	default:
		return 0, fmt.Errorf("%w: format %#x", ErrUnsupportedEncoding, format)
	}
}
