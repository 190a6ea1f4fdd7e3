package x86

import "fmt"

// maxInstLen is the architectural limit on instruction length.
const maxInstLen = 15

// legacy prefix bytes.
const (
	prefixES      = 0x26
	prefixCS      = 0x2E
	prefixSS      = 0x36
	prefixDS      = 0x3E // doubles as the CET NOTRACK prefix
	prefixFS      = 0x64
	prefixGS      = 0x65
	prefixOpSize  = 0x66
	prefixAdSize  = 0x67
	prefixLock    = 0xF0
	prefixRepne   = 0xF2
	prefixRep     = 0xF3
	prefixNotrack = prefixDS
)

// decodeState carries the mutable state of one Decode call.
type decodeState struct {
	code []byte
	addr uint64
	mode Mode

	pos      int
	prefixes [4]byte // first legacy prefixes, in order
	nprefix  int     // total legacy prefix count (may exceed len(prefixes))
	rex      byte
	hasRex   bool
	opSize   bool // 0x66 seen
	adSize   bool // 0x67 seen
	rep      bool // 0xF3 seen
	repne    bool // 0xF2 seen
	notrack  bool // 0x3E seen
	vex      bool // VEX or EVEX encoded
	vexW     bool // VEX.W / EVEX.W
	vexPP    byte // implied SIMD prefix from VEX/EVEX

	opcodeMap int
	opcode    byte

	hasModRM bool
	modRM    byte
	sib      byte

	disp     int64
	hasDisp  bool
	ripRel   bool
	absDisp  bool
	imm      int64
	hasImm   bool
	immBytes int
}

func (d *decodeState) peek() (byte, error) {
	if d.pos >= len(d.code) {
		return 0, ErrTruncated
	}
	if d.pos >= maxInstLen {
		return 0, ErrTooLong
	}
	return d.code[d.pos], nil
}

func (d *decodeState) next() (byte, error) {
	b, err := d.peek()
	if err != nil {
		return 0, err
	}
	d.pos++
	return b, nil
}

func (d *decodeState) take(n int) ([]byte, error) {
	if d.pos+n > len(d.code) {
		return nil, ErrTruncated
	}
	if d.pos+n > maxInstLen {
		return nil, ErrTooLong
	}
	b := d.code[d.pos : d.pos+n]
	d.pos += n
	return b, nil
}

// Decode decodes a single instruction from the front of code, assuming it
// is located at virtual address addr and executes in the given mode. At
// most the leading 15 bytes of code are examined.
func Decode(code []byte, addr uint64, mode Mode) (Inst, error) {
	var inst Inst
	if err := DecodeInto(code, addr, mode, &inst); err != nil {
		return Inst{}, err
	}
	return inst, nil
}

// decodeSlow is the full decode walk, used for every encoding the fast
// path declines.
func decodeSlow(code []byte, addr uint64, mode Mode, inst *Inst) error {
	d := decodeState{code: code, addr: addr, mode: mode}
	if err := d.run(); err != nil {
		*inst = Inst{}
		return err
	}
	d.finishInto(inst)
	return nil
}

func (d *decodeState) run() error {
	if err := d.parsePrefixes(); err != nil {
		return err
	}
	info, err := d.parseOpcode()
	if err != nil {
		return err
	}
	if info.has(fUndef) {
		return ErrInvalid
	}
	if d.mode == Mode64 && info.has(fInval64) {
		return ErrInvalid
	}
	if d.mode == Mode32 && info.has(fInval32) {
		return ErrInvalid
	}
	if info.has(fModRM) {
		if err := d.parseModRM(); err != nil {
			return err
		}
	}
	return d.parseImmediate(info)
}

// parsePrefixes consumes the legacy prefix run and, in 64-bit mode, a REX
// prefix. Hardware only honours a REX that immediately precedes the opcode,
// so a legacy prefix appearing after REX voids it.
func (d *decodeState) parsePrefixes() error {
	for {
		b, err := d.peek()
		if err != nil {
			return err
		}
		switch b {
		case prefixOpSize:
			d.opSize = true
		case prefixAdSize:
			d.adSize = true
		case prefixRep:
			d.rep = true
		case prefixRepne:
			d.repne = true
		case prefixDS:
			d.notrack = true
		case prefixES, prefixCS, prefixSS, prefixFS, prefixGS, prefixLock:
			// Segment overrides and LOCK do not alter instruction length.
		default:
			if d.mode == Mode64 && b >= 0x40 && b <= 0x4F {
				d.rex = b
				d.hasRex = true
				d.pos++
				// REX must be the final prefix byte.
				nb, err := d.peek()
				if err != nil {
					return err
				}
				if isLegacyPrefix(nb) || (nb >= 0x40 && nb <= 0x4F) {
					// Another prefix follows: this REX is dead.
					d.hasRex = false
					d.rex = 0
					continue
				}
				return nil
			}
			return nil
		}
		if d.nprefix < len(d.prefixes) {
			d.prefixes[d.nprefix] = b
		}
		d.nprefix++
		d.hasRex = false
		d.rex = 0
		d.pos++
	}
}

func isLegacyPrefix(b byte) bool {
	switch b {
	case prefixES, prefixCS, prefixSS, prefixDS, prefixFS, prefixGS,
		prefixOpSize, prefixAdSize, prefixLock, prefixRep, prefixRepne:
		return true
	default:
		return false
	}
}

// parseOpcode consumes the opcode byte(s), including VEX/EVEX introducers
// and the 0F / 0F 38 / 0F 3A escapes, and returns the attribute entry.
func (d *decodeState) parseOpcode() (opinfo, error) {
	b, err := d.next()
	if err != nil {
		return opinfo{}, err
	}

	// VEX / EVEX introducers. In 32-bit mode the bytes C4/C5/62 are only a
	// VEX/EVEX prefix when the following byte's top two bits are 11
	// (otherwise they decode as LES/LDS/BOUND with a memory ModRM).
	switch b {
	case 0xC5:
		if d.vexAmbiguityIsVex() {
			return d.parseVex2()
		}
	case 0xC4:
		if d.vexAmbiguityIsVex() {
			return d.parseVex3()
		}
	case 0x62:
		if d.vexAmbiguityIsVex() {
			return d.parseEvex()
		}
	}

	if b != 0x0F {
		d.opcodeMap = 1
		d.opcode = b
		return oneByte[b], nil
	}

	b2, err := d.next()
	if err != nil {
		return opinfo{}, err
	}
	switch b2 {
	case 0x38:
		b3, err := d.next()
		if err != nil {
			return opinfo{}, err
		}
		d.opcodeMap = 3
		d.opcode = b3
		return threeByte38, nil
	case 0x3A:
		b3, err := d.next()
		if err != nil {
			return opinfo{}, err
		}
		d.opcodeMap = 4
		d.opcode = b3
		return threeByte3A, nil
	default:
		d.opcodeMap = 2
		d.opcode = b2
		return twoByte[b2], nil
	}
}

// vexAmbiguityIsVex reports whether a C4/C5/62 byte at the current position
// introduces a VEX/EVEX prefix rather than LES/LDS/BOUND.
func (d *decodeState) vexAmbiguityIsVex() bool {
	if d.mode == Mode64 {
		return true
	}
	if d.pos >= len(d.code) {
		return false
	}
	return d.code[d.pos] >= 0xC0
}

func (d *decodeState) parseVex2() (opinfo, error) {
	p, err := d.next()
	if err != nil {
		return opinfo{}, err
	}
	d.vex = true
	d.vexPP = p & 3
	op, err := d.next()
	if err != nil {
		return opinfo{}, err
	}
	d.opcodeMap = 2
	d.opcode = op
	return twoByte[op], nil
}

func (d *decodeState) parseVex3() (opinfo, error) {
	p1, err := d.next()
	if err != nil {
		return opinfo{}, err
	}
	p2, err := d.next()
	if err != nil {
		return opinfo{}, err
	}
	d.vex = true
	d.vexW = p2&0x80 != 0
	d.vexPP = p2 & 3
	op, err := d.next()
	if err != nil {
		return opinfo{}, err
	}
	switch p1 & 0x1F {
	case 1:
		d.opcodeMap = 2
		d.opcode = op
		return twoByte[op], nil
	case 2:
		d.opcodeMap = 3
		d.opcode = op
		return threeByte38, nil
	case 3:
		d.opcodeMap = 4
		d.opcode = op
		return threeByte3A, nil
	default:
		return opinfo{}, ErrInvalid
	}
}

func (d *decodeState) parseEvex() (opinfo, error) {
	p, err := d.take(3)
	if err != nil {
		return opinfo{}, err
	}
	d.vex = true
	d.vexW = p[1]&0x80 != 0
	d.vexPP = p[1] & 3
	op, err := d.next()
	if err != nil {
		return opinfo{}, err
	}
	switch p[0] & 0x07 {
	case 1:
		d.opcodeMap = 2
		d.opcode = op
		return twoByte[op], nil
	case 2:
		d.opcodeMap = 3
		d.opcode = op
		return threeByte38, nil
	case 3:
		d.opcodeMap = 4
		d.opcode = op
		return threeByte3A, nil
	default:
		return opinfo{}, ErrInvalid
	}
}

// addr16 reports whether the effective address size is 16 bits.
func (d *decodeState) addr16() bool {
	return d.mode == Mode32 && d.adSize
}

func (d *decodeState) parseModRM() error {
	m, err := d.next()
	if err != nil {
		return err
	}
	d.hasModRM = true
	d.modRM = m
	mod := int(m>>6) & 3
	rm := int(m) & 7
	if mod == 3 {
		return nil
	}
	if d.addr16() {
		// 16-bit addressing form: no SIB, disp16 instead of disp32.
		switch {
		case mod == 0 && rm == 6:
			return d.readDisp(2, true)
		case mod == 1:
			return d.readDisp(1, false)
		case mod == 2:
			return d.readDisp(2, false)
		}
		return nil
	}
	// 32/64-bit addressing form.
	hasSIB := rm == 4
	sibBase := -1
	if hasSIB {
		sib, err := d.next()
		if err != nil {
			return err
		}
		d.sib = sib
		sibBase = int(sib) & 7
	}
	switch mod {
	case 0:
		if !hasSIB && rm == 5 {
			// disp32: RIP-relative in 64-bit mode, absolute in 32-bit.
			if err := d.readDisp(4, d.mode == Mode32); err != nil {
				return err
			}
			if d.mode == Mode64 {
				d.ripRel = true
			}
			return nil
		}
		if hasSIB && sibBase == 5 {
			return d.readDisp(4, true)
		}
		return nil
	case 1:
		return d.readDisp(1, false)
	case 2:
		return d.readDisp(4, false)
	}
	return nil
}

// readDisp consumes an n-byte little-endian displacement. abs marks
// displacements that form an absolute address (no base register).
func (d *decodeState) readDisp(n int, abs bool) error {
	b, err := d.take(n)
	if err != nil {
		return err
	}
	d.disp = signExtendLE(b)
	d.hasDisp = true
	d.absDisp = abs
	return nil
}

// effOpSize returns the effective operand size in bytes (2, 4, or 8) for
// immediate sizing.
func (d *decodeState) effOpSize(info opinfo) int {
	if d.mode == Mode64 {
		if d.hasRex && d.rex&0x08 != 0 || d.vexW {
			return 8
		}
		if d.opSize {
			return 2
		}
		return 4
	}
	if d.opSize {
		return 2
	}
	return 4
}

func (d *decodeState) parseImmediate(info opinfo) error {
	kind := info.imm
	if info.has(fGroup3) && d.hasModRM {
		// F6/F7: the immediate exists only for the TEST forms (/0, /1).
		if reg := int(d.modRM>>3) & 7; reg != 0 && reg != 1 {
			return nil
		}
	}
	switch kind {
	case immNone:
		return nil
	case imm8:
		return d.readImm(1)
	case imm16:
		return d.readImm(2)
	case imm16x8:
		if err := d.readImm(2); err != nil {
			return err
		}
		_, err := d.next() // the nesting-level byte of ENTER
		return err
	case immZ:
		n := d.effOpSize(info)
		if n == 8 {
			n = 4 // iz immediates never exceed 32 bits
		}
		return d.readImm(n)
	case immV:
		return d.readImm(d.effOpSize(info))
	case immAddr:
		n := 4
		if d.mode == Mode64 {
			n = 8
			if d.adSize {
				n = 4
			}
		} else if d.adSize {
			n = 2
		}
		return d.readImm(n)
	case rel8:
		return d.readImm(1)
	case relZ:
		// Near-branch displacements are always 32 bits in 64-bit mode
		// (operand size defaults to 64 and 66 is ignored by shipping
		// CPUs); in 32-bit mode a 66 prefix selects rel16.
		n := 4
		if d.mode == Mode32 && d.opSize {
			n = 2
		}
		return d.readImm(n)
	case farPtr:
		n := 6
		if d.opSize {
			n = 4
		}
		_, err := d.take(n)
		return err
	default:
		return fmt.Errorf("x86: unknown immediate kind %d", kind)
	}
}

func (d *decodeState) readImm(n int) error {
	b, err := d.take(n)
	if err != nil {
		return err
	}
	d.imm = signExtendLE(b)
	d.hasImm = true
	d.immBytes = n
	return nil
}

func signExtendLE(b []byte) int64 {
	var v uint64
	for i := len(b) - 1; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	shift := uint(64 - 8*len(b))
	return int64(v<<shift) >> shift
}

// finish assembles the Inst from the decode state, classifying the
// instruction and materializing branch targets.
func (d *decodeState) finish() Inst {
	var inst Inst
	d.finishInto(&inst)
	return inst
}

// finishInto assembles the decode state into *inst, overwriting it.
func (d *decodeState) finishInto(inst *Inst) {
	*inst = Inst{
		Addr:      d.addr,
		Len:       d.pos,
		Class:     ClassOther,
		Opcode:    d.opcode,
		OpcodeMap: d.opcodeMap,
		ModRM:     d.modRM,
		HasModRM:  d.hasModRM,
		Imm:       d.imm,
		HasImm:    d.hasImm,
		Prefix:    d.prefixes,
		NPrefix:   uint8(min(d.nprefix, 255)),
	}
	d.classify(inst)
	if d.hasDisp {
		if d.ripRel {
			inst.RIPRef = truncAddr(d.mode, d.addr+uint64(d.pos)+uint64(d.disp))
			inst.HasRIPRef = true
		} else if d.absDisp && !d.addr16() {
			inst.MemDisp = uint64(uint32(d.disp))
			inst.HasMemDisp = true
		}
	}
}

func (d *decodeState) classify(inst *Inst) {
	if d.vex || d.opcodeMap > 2 {
		return // no VEX or three-byte-map instruction is branch-relevant
	}
	inst.Class = opClass(d.opcodeMap, d.opcode)
	switch inst.Class {
	case ClassCallRel, ClassJmpRel, ClassJccRel:
		inst.Target = truncAddr(d.mode, d.addr+uint64(d.pos)+uint64(d.imm))
		inst.HasTarget = true
	case ClassNop:
		// 90 is a NOP plain or behind 66, but F3 90 is PAUSE and REX.B
		// 90 is XCHG R8.
		if d.opcodeMap == 1 && (d.rep || d.repne || d.hasRex && d.rex&1 != 0) {
			inst.Class = ClassOther
		}
	}
	switch {
	case d.opcodeMap == 1 && d.opcode == 0xFF:
		switch inst.Reg() {
		case 2:
			inst.Class = ClassCallInd
			inst.Notrack = d.notrack
		case 4:
			inst.Class = ClassJmpInd
			inst.Notrack = d.notrack
		}
	case d.opcodeMap == 2 && d.opcode == 0x1E && d.rep && d.hasModRM:
		// F3 0F 1E FA = ENDBR64, F3 0F 1E FB = ENDBR32. Any other
		// ModRM value is a reserved hint NOP.
		switch d.modRM {
		case 0xFA:
			inst.Class = ClassEndbr64
		case 0xFB:
			inst.Class = ClassEndbr32
		}
	}
}

// opClass is the class of an opcode in map 1 or 2 before the
// refinements that depend on prefixes or ModRM: FF /2 and /4, endbr
// behind F3, and the 90 forms that are not a NOP. classify and the fast
// path's descriptor tables both read it.
func opClass(opcodeMap int, op byte) Class {
	if opcodeMap == 2 {
		switch {
		case op >= 0x80 && op <= 0x8F:
			return ClassJccRel
		case op == 0x1F:
			return ClassNop // 0F 1F /0 long NOP
		case op == 0x0B || op == 0xB9:
			return ClassUD
		}
		return ClassOther
	}
	switch {
	case op == 0xE8:
		return ClassCallRel
	case op == 0xE9 || op == 0xEB:
		return ClassJmpRel
	case op >= 0x70 && op <= 0x7F, op >= 0xE0 && op <= 0xE3:
		return ClassJccRel
	case op == 0xC3 || op == 0xC2 || op == 0xCB || op == 0xCA:
		return ClassRet
	case op == 0xCC:
		return ClassInt3
	case op == 0xF4:
		return ClassHlt
	case op == 0xC9:
		return ClassLeave
	case op == 0x90:
		return ClassNop
	}
	return ClassOther
}
