package x86

import "sync"

// The length table sits in front of the core in the records sweep. Most
// compiler-generated instructions have a length that their first two
// bytes fix: a one-byte opcode with no ModRM, or an opcode and a ModRM
// whose addressing form needs no SIB base to size it. For those the
// sweep needs one table load instead of a call to scan.
//
// A lenTable is indexed by code[off] | code[off+1]<<8. An entry n in
// 1..15 means that every encoding starting with those two bytes has
// length n, that scan accepts it, and that its class is not recorded, so
// the sweep sets the boundary bit and moves on.
// Zero means the two bytes do not fix all three: the sweep calls scan
// (and decodeFull where scan declines) exactly as it would without the
// table. The recorded classes (end branches, direct branches) are always
// zero, so every record still comes from scan or the full decoder.
//
// In Mode64, rexNext marks a REX prefix ahead of an opcode whose length
// the next byte may decide (a ModRM opcode, or the 0F escape): the
// answer is one more than the entry one byte on, where REX changes
// nothing. A REX ahead of an opcode with no ModRM is answered in place,
// MOV r, iv (B8-BF) with the immediate REX.W selects.
//
// Each table is derived from the core's own tables (fastOps, fastOps2,
// modrmForm), as fastOps is derived from oneByte, and is built on the
// first sweep in its mode, never at package init: a process that never
// sweeps pays nothing. TestLenTableExhaustive enumerates every entry
// against decodeSlow.
type lenTable [1 << 16]uint8

// rexNext marks a Mode64 REX prefix key: probe again one byte on.
const rexNext = 0x80

var lenTable32, lenTable64 = newLenTables()

// newLenTables returns the lazily built Mode32 and Mode64 tables.
func newLenTables() (func() *lenTable, func() *lenTable) {
	return sync.OnceValue(func() *lenTable { return buildLenTable(Mode32) }),
		sync.OnceValue(func() *lenTable { return buildLenTable(Mode64) })
}

// lenTableFor returns mode's length table, building it on first use.
// mode must be Mode32 or Mode64.
func lenTableFor(mode Mode) *lenTable {
	if mode == Mode64 {
		return lenTable64()
	}
	return lenTable32()
}

// tableLen is the table's length for the encoding at code[off:], or 0
// when the table does not answer or the encoding would run past the end
// of code. It needs both probes' keys in code, so the last two bytes of
// a text always take scan.
func tableLen(t *lenTable, code []byte, off int) int {
	if off+3 > len(code) {
		return 0
	}
	k := uint16(code[off]) | uint16(code[off+1])<<8
	n := int(t[k])
	if n == rexNext {
		if n = int(t[k>>8|uint16(code[off+2])<<8]); n == 0 {
			return 0
		}
		n++
	}
	if off+n > len(code) {
		return 0
	}
	return n
}

// buildLenTable derives mode's table a row (one first byte b0) at a
// time, following scan's own steps: the prefix, escape or REX, the
// opcode's descriptor, and the ModRM's addressing form, each of which
// must lie inside the two-byte key.
func buildLenTable(mode Mode) *lenTable {
	t := new(lenTable)
	set := func(b0, b1 int, n uint8) { t[b0|b1<<8] = n }
	for b0 := range 256 {
		d := fastOps[b0]
		switch {
		case mode == Mode64 && b0&0xF0 == 0x40:
			// A REX: the opcode is the second byte. Ahead of a ModRM
			// opcode or the 0F escape the rest is sized one byte on; scan
			// leaves a dead REX (ahead of a prefix or another REX) to the
			// full decoder.
			for b1 := range 256 {
				op := fastOps[b1]
				switch {
				case legacyPrefixTab[b1] || b1&0xF0 == 0x40:
				case b1 == 0x0F || op.flags&dModRM != 0:
					set(b0, b1, rexNext)
				default:
					if op.flags&dImmW != 0 && b0&0x08 != 0 {
						op.imm = 8 // REX.W widens MOV r, iv
					}
					set(b0, b1, bareLen(op, 2))
				}
			}
		case b0 == 0x0F:
			for b1 := range 256 {
				set(b0, b1, bareLen(fastOps2[b1], 2))
			}
		case b0 == 0x66:
			set(b0, 0x90, bareLen(fastOps[0x90], 2)) // the one prefixed form scan takes outside map 2
		case d.flags&dModRM == 0:
			for b1 := range 256 {
				set(b0, b1, bareLen(d, 1))
			}
		case answers(d):
			for b1 := range 256 {
				f := modrmForm[b1]
				if f&mSIB != 0 && b1 < 0x40 {
					continue // mod 0: the SIB base, past the key, decides the displacement
				}
				n := 2 + int(f&mDisp) + int(d.imm)
				if f&mSIB != 0 {
					n++
				}
				set(b0, b1, uint8(n))
			}
		}
	}
	return t
}

// answers reports whether the table may answer for an opcode with
// descriptor d: scan takes it (a prefix byte's own descriptor declines)
// and its class is not recorded (nor is it a direct branch, whose
// displacement d.rel counts).
func answers(d opDesc) bool {
	return d.flags&dAccept != 0 && d.rel == 0 && !Class(d.class).recorded()
}

// bareLen is the entry for an opcode with descriptor d at byte n of the
// key and no ModRM: its length, or 0 where the table must not answer
// (a ModRM would lie past the key).
func bareLen(d opDesc, n int) uint8 {
	if !answers(d) || d.flags&dModRM != 0 {
		return 0
	}
	return uint8(n + int(d.imm))
}
