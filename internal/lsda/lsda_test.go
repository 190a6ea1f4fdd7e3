package lsda

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestRoundtripSimple(t *testing.T) {
	b := NewBuilder()
	sites := []CallSite{
		{Start: 0x10, Length: 0x20, LandingPad: 0x100, Action: 1},
		{Start: 0x40, Length: 0x08, LandingPad: 0, Action: 0},
		{Start: 0x50, Length: 0x30, LandingPad: 0x140, Action: 2},
	}
	off := b.Add(sites)
	if off != 0 {
		t.Fatalf("first LSDA offset = %d, want 0", off)
	}
	table, err := Parse(b.Bytes(), 0x401000)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !reflect.DeepEqual(table.CallSites, sites) {
		t.Fatalf("call sites = %+v, want %+v", table.CallSites, sites)
	}
	pads := table.AppendLandingPads(nil)
	want := []uint64{0x401100, 0x401140}
	if !reflect.DeepEqual(pads, want) {
		t.Fatalf("landing pads = %#x, want %#x", pads, want)
	}
}

func TestMultipleLSDAsPacked(t *testing.T) {
	b := NewBuilder()
	off1 := b.Add([]CallSite{{Start: 0, Length: 8, LandingPad: 0x40, Action: 1}})
	off2 := b.Add([]CallSite{{Start: 4, Length: 12, LandingPad: 0x80, Action: 1}})
	off3 := b.Add(nil)
	data := b.Bytes()

	t1, err := Parse(data[off1:], 0x1000)
	if err != nil {
		t.Fatal(err)
	}
	if pads := t1.AppendLandingPads(nil); len(pads) != 1 || pads[0] != 0x1040 {
		t.Fatalf("LSDA1 pads = %#x", pads)
	}
	t2, err := Parse(data[off2:], 0x2000)
	if err != nil {
		t.Fatal(err)
	}
	if pads := t2.AppendLandingPads(nil); len(pads) != 1 || pads[0] != 0x2080 {
		t.Fatalf("LSDA2 pads = %#x", pads)
	}
	t3, err := Parse(data[off3:], 0x3000)
	if err != nil {
		t.Fatal(err)
	}
	if len(t3.CallSites) != 0 {
		t.Fatalf("empty LSDA has %d call sites", len(t3.CallSites))
	}
	// RawLen of LSDA1 must not extend into LSDA2.
	if off1+t1.RawLen > off2 {
		t.Fatalf("LSDA1 RawLen %d overlaps LSDA2 at %d", t1.RawLen, off2)
	}
}

func TestAlignment(t *testing.T) {
	b := NewBuilder()
	b.Add([]CallSite{{Start: 0, Length: 1, LandingPad: 2, Action: 0}})
	off2 := b.Add(nil)
	if off2%4 != 0 {
		t.Fatalf("second LSDA at unaligned offset %d", off2)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string][]byte{
		"empty":              {},
		"only-lpstart":       {0xFF},
		"bad-cs-encoding":    {0xFF, 0xFF, 0x0B, 0x00},
		"truncated-cs-table": {0xFF, 0xFF, 0x01, 0x10, 0x01},
		"bad-lpstart-enc":    {0x0B, 0x00},
	}
	for name, data := range cases {
		if _, err := Parse(data, 0); err == nil {
			t.Errorf("%s: want parse error", name)
		}
	}
}

func TestNoLandingPads(t *testing.T) {
	b := NewBuilder()
	b.Add([]CallSite{
		{Start: 0, Length: 0x10, LandingPad: 0, Action: 0},
		{Start: 0x10, Length: 0x10, LandingPad: 0, Action: 0},
	})
	table, err := Parse(b.Bytes(), 0x5000)
	if err != nil {
		t.Fatal(err)
	}
	if pads := table.AppendLandingPads(nil); len(pads) != 0 {
		t.Fatalf("got %d pads, want 0", len(pads))
	}
}

func TestRoundtripQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(10)
		sites := make([]CallSite, 0, n)
		off := uint64(0)
		for i := 0; i < n; i++ {
			length := uint64(1 + rng.Intn(200))
			var lp uint64
			if rng.Intn(2) == 0 {
				lp = uint64(0x100 + rng.Intn(1<<16))
			}
			var action uint64
			if lp != 0 {
				action = uint64(rng.Intn(3))
			}
			sites = append(sites, CallSite{Start: off, Length: length, LandingPad: lp, Action: action})
			off += length + uint64(rng.Intn(32))
		}
		b := NewBuilder()
		b.Add(sites)
		table, err := Parse(b.Bytes(), 0x400000)
		if err != nil {
			return false
		}
		if len(table.CallSites) != len(sites) {
			return false
		}
		for i := range sites {
			if table.CallSites[i] != sites[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestParseWithExplicitLPStart(t *testing.T) {
	// Hand-encode an LSDA whose LPStart is present (ULEB form): landing
	// pads become relative to that base rather than the function start.
	var data []byte
	data = append(data, 0x01)       // LPStart encoding: uleb128
	data = appendUleb(data, 0x5000) // LPStart value
	data = append(data, 0xFF)       // TType: omit
	data = append(data, 0x01)       // call-site encoding: uleb128
	var cs []byte
	cs = appendUleb(cs, 0)    // start
	cs = appendUleb(cs, 8)    // length
	cs = appendUleb(cs, 0x40) // landing pad
	cs = appendUleb(cs, 0)    // action
	data = appendUleb(data, uint64(len(cs)))
	data = append(data, cs...)

	table, err := Parse(data, 0x1000 /* function start, ignored */)
	if err != nil {
		t.Fatal(err)
	}
	pads := table.AppendLandingPads(nil)
	if len(pads) != 1 || pads[0] != 0x5040 {
		t.Fatalf("pads = %#x, want [0x5040]", pads)
	}
}

func TestParseWithTypeTable(t *testing.T) {
	// TType present: the ULEB after the encoding byte bounds the LSDA.
	var data []byte
	data = append(data, 0xFF) // LPStart: omit
	data = append(data, 0x9B) // TType: pcrel|sdata4|indirect (typical GCC)
	var cs []byte
	cs = appendUleb(cs, 0)
	cs = appendUleb(cs, 4)
	cs = appendUleb(cs, 0x20)
	cs = appendUleb(cs, 1)
	// ttBase counts from after its own ULEB to the end of the type table.
	rest := []byte{0x01} // call-site encoding
	rest = appendUleb(rest, uint64(len(cs)))
	rest = append(rest, cs...)
	rest = append(rest, 0x01, 0x00)             // action table: one record
	rest = append(rest, 0xEE, 0xEE, 0xEE, 0xEE) // one 4-byte type entry
	data = appendUleb(data, uint64(len(rest)))
	data = append(data, rest...)

	table, err := Parse(data, 0x2000)
	if err != nil {
		t.Fatal(err)
	}
	if table.RawLen != len(data) {
		t.Fatalf("RawLen = %d, want %d", table.RawLen, len(data))
	}
	if pads := table.AppendLandingPads(nil); len(pads) != 1 || pads[0] != 0x2020 {
		t.Fatalf("pads = %#x", pads)
	}
}

func appendUleb(dst []byte, v uint64) []byte {
	for {
		b := byte(v & 0x7f)
		v >>= 7
		if v != 0 {
			dst = append(dst, b|0x80)
			continue
		}
		return append(dst, b)
	}
}
