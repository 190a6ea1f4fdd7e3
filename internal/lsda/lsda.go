// Package lsda encodes and parses Language-Specific Data Area (LSDA)
// records, the per-function exception tables that GCC and Clang pack into
// the .gcc_except_table section.
//
// Each LSDA describes, for one function, the call-site table mapping code
// ranges to landing pads (the entry points of catch/cleanup blocks). In
// CET-enabled binaries every landing pad starts with an end-branch
// instruction, which is exactly why FunSeeker must parse these records:
// an end branch at a landing pad is not a function entry.
package lsda

import (
	"errors"
	"fmt"

	"github.com/funseeker/funseeker/internal/leb128"
)

// Pointer-encoding bytes reused from the DWARF EH conventions.
const (
	encOmit    byte = 0xFF
	encULEB128 byte = 0x01
)

// CallSite is one call-site table record. All offsets are relative to the
// landing-pad base (the function start when LPStart is omitted).
type CallSite struct {
	// Start is the offset of the covered region.
	Start uint64
	// Length is the region length in bytes.
	Length uint64
	// LandingPad is the landing-pad offset; zero means "no landing pad"
	// (the exception propagates).
	LandingPad uint64
	// Action is the 1-based action-table index; zero means cleanup only.
	Action uint64
}

// Table is one decoded LSDA.
type Table struct {
	// FuncStart is the landing-pad base address: the funcStart supplied
	// at parse time, or the LSDA's explicit LPStart when one is encoded
	// (GCC and Clang normally omit it, making the base the function
	// entry).
	FuncStart uint64
	// CallSites are the decoded call-site records.
	CallSites []CallSite
	// RawLen is the total encoded length of the LSDA in bytes, including
	// the action and type tables.
	RawLen int
}

// AppendLandingPads appends the absolute addresses of all non-zero
// landing pads to dst, in call-site order, and returns the extended
// slice.
func (t *Table) AppendLandingPads(dst []uint64) []uint64 {
	for _, cs := range t.CallSites {
		if cs.LandingPad != 0 {
			dst = append(dst, t.FuncStart+cs.LandingPad)
		}
	}
	return dst
}

// ErrMalformed is returned for undecodable LSDA bytes.
var ErrMalformed = errors.New("lsda: malformed table")

// Parse decodes one LSDA from the front of data. funcStart is the landing
// pad base (the function entry for the usual omitted-LPStart form). It
// returns the decoded table; Table.RawLen reports how many bytes the LSDA
// occupied, allowing densely packed section walks.
func Parse(data []byte, funcStart uint64) (*Table, error) {
	t := &Table{}
	var err error
	t.FuncStart, t.RawLen, err = walk(data, funcStart, func(_ uint64, cs CallSite) {
		t.CallSites = append(t.CallSites, cs)
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// AppendLandingPads decodes one LSDA from the front of data, as Parse
// does, and appends the absolute addresses of its non-zero landing pads
// to dst in call-site order — Parse followed by Table.AppendLandingPads,
// without building the Table. It rejects exactly the LSDAs Parse
// rejects, and on an error returns dst unchanged.
func AppendLandingPads(dst []uint64, data []byte, funcStart uint64) ([]uint64, error) {
	out := dst
	_, _, err := walk(data, funcStart, func(lpBase uint64, cs CallSite) {
		if cs.LandingPad != 0 {
			out = append(out, lpBase+cs.LandingPad)
		}
	})
	if err != nil {
		return dst, err
	}
	return out, nil
}

// walk is the one LSDA decoder. It decodes the LSDA at the front of
// data, calling site with the landing-pad base and each call-site
// record in table order, and returns the landing-pad base and the
// LSDA's encoded length. On an error site may already have been called
// for the records before it.
func walk(data []byte, funcStart uint64, site func(lpBase uint64, cs CallSite)) (lpBase uint64, rawLen int, err error) {
	malformed := func(err error) (uint64, int, error) {
		return 0, 0, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	r := leb128.NewReader(data)
	lpStartEnc, err := r.Byte()
	if err != nil {
		return malformed(err)
	}
	lpBase = funcStart
	if lpStartEnc != encOmit {
		// GCC emits uleb128 LPStart when present.
		if lpStartEnc&0x0F != encULEB128 {
			return 0, 0, fmt.Errorf("%w: LPStart encoding %#x", ErrMalformed, lpStartEnc)
		}
		if lpBase, err = r.Uleb(); err != nil {
			return malformed(err)
		}
	}
	tTypeEnc, err := r.Byte()
	if err != nil {
		return malformed(err)
	}
	// tTypeEnd is the offset (from the current position) of the end of
	// the type table; it bounds the whole LSDA.
	tTypeEnd := -1
	if tTypeEnc != encOmit {
		v, err := r.Uleb()
		if err != nil {
			return malformed(err)
		}
		tTypeEnd = r.Offset() + int(v)
	}
	csEnc, err := r.Byte()
	if err != nil {
		return malformed(err)
	}
	if csEnc&0x0F != encULEB128 {
		return 0, 0, fmt.Errorf("%w: call-site encoding %#x", ErrMalformed, csEnc)
	}
	csLen, err := r.Uleb()
	if err != nil {
		return malformed(err)
	}
	csEnd := r.Offset() + int(csLen)
	if csEnd > len(data) {
		return 0, 0, fmt.Errorf("%w: call-site table overruns data", ErrMalformed)
	}
	maxAction := uint64(0)
	for r.Offset() < csEnd {
		var cs CallSite
		if cs.Start, err = r.Uleb(); err != nil {
			return malformed(err)
		}
		if cs.Length, err = r.Uleb(); err != nil {
			return malformed(err)
		}
		if cs.LandingPad, err = r.Uleb(); err != nil {
			return malformed(err)
		}
		if cs.Action, err = r.Uleb(); err != nil {
			return malformed(err)
		}
		if cs.Action > maxAction {
			maxAction = cs.Action
		}
		site(lpBase, cs)
	}
	rawLen = csEnd
	if tTypeEnd >= 0 {
		if tTypeEnd < csEnd || tTypeEnd > len(data) {
			return 0, 0, fmt.Errorf("%w: type table bound %d out of range", ErrMalformed, tTypeEnd)
		}
		rawLen = tTypeEnd
	} else if maxAction > 0 {
		// No type table: skip the action table, two SLEBs per action
		// record, so the walker can find the next LSDA.
		for i := uint64(0); i < maxAction; i++ {
			if _, err := r.Sleb(); err != nil {
				return malformed(err)
			}
			if _, err := r.Sleb(); err != nil {
				return malformed(err)
			}
		}
		rawLen = r.Offset()
	}
	return lpBase, rawLen, nil
}

// Builder assembles the .gcc_except_table section from per-function
// LSDAs. Each Add returns the section-relative offset the LSDA was placed
// at, which the .eh_frame FDE references.
type Builder struct {
	buf []byte
}

// NewBuilder returns an empty section builder.
func NewBuilder() *Builder { return &Builder{} }

// Add encodes one LSDA with the standard GCC shape: LPStart omitted
// (landing pads are relative to the function start), type table omitted,
// ULEB128 call sites, and a minimal action table covering the largest
// action index referenced. It returns the offset of the LSDA within the
// section.
func (b *Builder) Add(callSites []CallSite) int {
	// GCC aligns LSDAs to 4 bytes.
	for len(b.buf)%4 != 0 {
		b.buf = append(b.buf, 0)
	}
	off := len(b.buf)
	b.buf = append(b.buf, encOmit)    // LPStart: omit
	b.buf = append(b.buf, encOmit)    // TType: omit
	b.buf = append(b.buf, encULEB128) // call-site encoding

	var cs []byte
	maxAction := uint64(0)
	for _, site := range callSites {
		cs = leb128.AppendUleb(cs, site.Start)
		cs = leb128.AppendUleb(cs, site.Length)
		cs = leb128.AppendUleb(cs, site.LandingPad)
		cs = leb128.AppendUleb(cs, site.Action)
		if site.Action > maxAction {
			maxAction = site.Action
		}
	}
	b.buf = leb128.AppendUleb(b.buf, uint64(len(cs)))
	b.buf = append(b.buf, cs...)
	// Action table: records of (type filter, next offset) SLEB pairs.
	for i := uint64(0); i < maxAction; i++ {
		b.buf = leb128.AppendSleb(b.buf, int64(i+1)) // filter: a catch type
		b.buf = leb128.AppendSleb(b.buf, 0)          // no chained action
	}
	return off
}

// Bytes returns the assembled section contents.
func (b *Builder) Bytes() []byte { return b.buf }

// Size returns the current section size.
func (b *Builder) Size() int { return len(b.buf) }
