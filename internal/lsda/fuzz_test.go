package lsda

import (
	"slices"
	"testing"
)

// buildSeed encodes a small valid LSDA via the package builder so the
// corpus starts on the valid-input region.
func buildSeed() []byte {
	b := NewBuilder()
	b.Add([]CallSite{
		{Start: 0x10, Length: 0x20, LandingPad: 0x80, Action: 1},
		{Start: 0x40, Length: 0x08, LandingPad: 0, Action: 0},
	})
	return b.Bytes()
}

// FuzzParse feeds arbitrary bytes to the LSDA parser: it must return
// ErrMalformed-class errors on garbage, never panic, and any table it
// does return must be internally consistent (RawLen within bounds,
// landing pads derived from the supplied base). The table-free
// AppendLandingPads must accept and reject the same inputs, append what
// Parse + Table.AppendLandingPads appends, and leave dst as it was on
// an error.
func FuzzParse(f *testing.F) {
	f.Add(buildSeed(), uint64(0x401000))
	f.Add([]byte{}, uint64(0))
	f.Add([]byte{0xff}, uint64(0x1000))              // omitted LPStart, bad next byte
	f.Add([]byte{0xff, 0xff, 0x00}, uint64(0))       // omit+omit, empty call-site table
	f.Add([]byte{0x00, 0x80, 0x80, 0x80}, uint64(4)) // truncated uleb
	f.Fuzz(func(t *testing.T, data []byte, funcStart uint64) {
		table, err := Parse(data, funcStart)
		prefix := []uint64{1, 2, 3}
		pads, padsErr := AppendLandingPads(slices.Clip(prefix), data, funcStart)
		if (err == nil) != (padsErr == nil) {
			t.Fatalf("Parse error %v, AppendLandingPads error %v (input %x)", err, padsErr, data)
		}
		if err != nil {
			if !slices.Equal(pads, prefix) {
				t.Fatalf("AppendLandingPads changed dst on an error: %#x (input %x)", pads, data)
			}
			return
		}
		if want := table.AppendLandingPads(slices.Clone(prefix)); !slices.Equal(pads, want) {
			t.Fatalf("AppendLandingPads %#x, Parse + Table.AppendLandingPads %#x (input %x)", pads, want, data)
		}
		if table.RawLen < 0 || table.RawLen > len(data) {
			t.Fatalf("RawLen %d outside [0,%d] (input %x)", table.RawLen, len(data), data)
		}
		// The supplied base applies only to the omitted-LPStart form; an
		// explicit LPStart (first byte != 0xff) overrides it.
		if len(data) > 0 && data[0] == 0xff && table.FuncStart != funcStart {
			t.Fatalf("FuncStart %#x != supplied %#x", table.FuncStart, funcStart)
		}
		for _, pad := range table.AppendLandingPads(nil) {
			if pad == table.FuncStart {
				t.Fatalf("zero-offset landing pad leaked through (input %x)", data)
			}
		}
		// Determinism.
		again, err2 := Parse(data, funcStart)
		if err2 != nil || len(again.CallSites) != len(table.CallSites) || again.RawLen != table.RawLen {
			t.Fatalf("re-parse diverged (input %x)", data)
		}
	})
}

// FuzzBuilderRoundTrip: tables produced by the builder always parse back
// with the same call sites.
func FuzzBuilderRoundTrip(f *testing.F) {
	f.Add(uint64(0x10), uint64(0x20), uint64(0x80), uint64(1))
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0))
	f.Add(uint64(1<<20), uint64(1<<16), uint64(1<<21), uint64(3))
	f.Fuzz(func(t *testing.T, start, length, pad, action uint64) {
		// Keep offsets in the uleb-friendly range the builder targets.
		const cap = uint64(1) << 30
		cs := CallSite{Start: start % cap, Length: length % cap, LandingPad: pad % cap, Action: action % 8}
		b := NewBuilder()
		b.Add([]CallSite{cs})
		table, err := Parse(b.Bytes(), 0x401000)
		if err != nil {
			t.Fatalf("builder output unparseable: %v (cs %+v)", err, cs)
		}
		if len(table.CallSites) != 1 {
			t.Fatalf("got %d call sites, want 1", len(table.CallSites))
		}
		got := table.CallSites[0]
		if got.Start != cs.Start || got.Length != cs.Length || got.LandingPad != cs.LandingPad || got.Action != cs.Action {
			t.Fatalf("round trip: %+v -> %+v", cs, got)
		}
	})
}
