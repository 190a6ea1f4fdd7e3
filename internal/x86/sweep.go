package x86

// LinearSweep disassembles code linearly from base, invoking fn for every
// decoded instruction. On a decode error the sweep re-synchronizes by
// advancing one byte, mirroring the recovery strategy used by FunSeeker
// (Kim et al., DSN 2022, §IV-B). fn may return false to stop the sweep.
//
// The *Inst passed to fn points at a single buffer reused across the
// whole sweep — this is what makes the sweep allocation-free. Callbacks
// that need the instruction beyond the callback's return must copy the
// pointee, never retain the pointer.
//
// The returned count is the number of bytes that had to be skipped due to
// decode errors, which is zero for well-formed compiler-generated text.
func LinearSweep(code []byte, base uint64, mode Mode, fn func(*Inst) bool) (skipped int) {
	if mode != Mode32 && mode != Mode64 {
		// DecodeInto fails on every byte of an unsupported mode; short-
		// circuit the same observable result (nothing decoded, every byte
		// skipped) without paying the per-byte error path.
		return len(code)
	}
	var inst Inst
	off := 0
	for off < len(code) {
		// DecodeInto's two paths, with its mode check hoisted out of the
		// loop.
		if _, _, _, ok := scan(code[off:], base+uint64(off), mode, &inst); !ok &&
			decodeSlow(code[off:], base+uint64(off), mode, &inst) != nil {
			off++
			skipped++
			continue
		}
		if !fn(&inst) {
			return skipped
		}
		off += inst.Len
	}
	return skipped
}
