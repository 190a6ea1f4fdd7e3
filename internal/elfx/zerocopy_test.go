package elfx

import (
	"bytes"
	"debug/elf"
	"errors"
	"reflect"
	"testing"

	"github.com/funseeker/funseeker/internal/armsynth"
	"github.com/funseeker/funseeker/internal/corpus"
	"github.com/funseeker/funseeker/internal/synth"
	"github.com/funseeker/funseeker/internal/x86"
)

// cppImage compiles one stripped x86-64 C++ program with exception
// handling, so that .text, .eh_frame and .gcc_except_table are all
// present; scale multiplies its function count.
func cppImage(t testing.TB, scale float64) []byte {
	t.Helper()
	for _, spec := range corpus.Generate(corpus.SPEC, corpus.Options{Scale: scale, Seed: 7}) {
		if spec.Lang != synth.LangCPP {
			continue
		}
		res, err := synth.Compile(spec, synth.Config{Compiler: synth.GCC, Mode: x86.Mode64, Opt: synth.O2})
		if err != nil {
			t.Fatal(err)
		}
		return res.Stripped
	}
	t.Fatal("the SPEC corpus generated no C++ program")
	return nil
}

// TestLoadSectionsAliasImage: Text, EHFrame and ExceptTable are the
// image's own bytes at each section's file offset, not copies, and their
// capacity is capped at their length so that an append cannot write
// into the image.
func TestLoadSectionsAliasImage(t *testing.T) {
	raw := cppImage(t, 0.2)
	bin, err := Load(raw)
	if err != nil {
		t.Fatal(err)
	}
	f, err := elf.NewFile(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{".text", bin.Text},
		{".eh_frame", bin.EHFrame},
		{".gcc_except_table", bin.ExceptTable},
	} {
		sec := f.Section(tc.name)
		if sec == nil || len(tc.data) == 0 {
			t.Fatalf("%s: missing from the test image", tc.name)
		}
		if uint64(len(tc.data)) != sec.Size || &tc.data[0] != &raw[sec.Offset] {
			t.Errorf("%s: %d bytes not at the image's offset %#x", tc.name, len(tc.data), sec.Offset)
		}
		if cap(tc.data) != len(tc.data) {
			t.Errorf("%s: cap %d, want the length %d", tc.name, cap(tc.data), len(tc.data))
		}
		end := sec.Offset + sec.Size
		if end < uint64(len(raw)) {
			next := raw[end]
			_ = append(tc.data, next+1)
			if raw[end] != next {
				t.Errorf("%s: an append wrote into the image", tc.name)
			}
		}
	}
}

// TestLoadAllocatesLessThanImage: with the sections sliced out of the
// image, Load allocates only headers, symbols and the PLT map, well
// under a quarter of the image; copying .text alone exceeds that.
func TestLoadAllocatesLessThanImage(t *testing.T) {
	raw := cppImage(t, 4)
	if _, err := Load(raw); err != nil {
		t.Fatal(err)
	}
	bin, err, alloc := loadAlloc(raw)
	if err != nil {
		t.Fatal(err)
	}
	if 4*alloc >= uint64(len(raw)) {
		t.Errorf("Load allocated %d bytes for a %d-byte image (.text %d bytes), want < %d",
			alloc, len(raw), len(bin.Text), len(raw)/4)
	}
}

// FuzzLoad feeds Load mutations of real images of each architecture and
// of the decompression-bomb images. For every input Load must not
// panic, must give the same answer twice, and must allocate at most a
// small multiple of the input's size: sections are slices of the input,
// so any range checkSection lets through would panic here.
func FuzzLoad(f *testing.F) {
	raw := synthImage(f)
	f.Add(raw)
	f.Add(synthImage32(f))
	f.Add(cppImage(f, 0.2))
	arm, err := armsynth.Compile(&synth.ProgSpec{
		Name: "fuzz_arm",
		Lang: synth.LangC,
		Seed: 3,
		Funcs: []synth.FuncSpec{
			{Name: "main", BodySize: 4, Calls: []int{1}},
			{Name: "helper", Static: true, AddressTaken: true, BodySize: 3},
		},
	}, armsynth.Config{Opt: synth.O2})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(arm.Image)
	for _, name := range []string{".text", ".eh_frame", ".plt.sec", ".rela.plt", ".symtab", ".shstrtab"} {
		f.Add(withBomb(f, raw, name))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		b1, err1, alloc := loadAlloc(in)
		if budget := 16*uint64(len(in)) + 1<<20; alloc > budget {
			t.Fatalf("Load allocated %d bytes for a %d-byte input, over the %d-byte budget", alloc, len(in), budget)
		}
		b2, err2 := Load(in)
		if (err1 == nil) != (err2 == nil) || err1 != nil && err1.Error() != err2.Error() {
			t.Fatalf("two loads disagree: %v, then %v", err1, err2)
		}
		if !reflect.DeepEqual(b1, b2) {
			t.Fatal("two loads of the same input returned different binaries")
		}
		if err1 != nil && !errors.Is(err1, ErrNotELF) && !errors.Is(err1, ErrMalformed) && !errors.Is(err1, ErrNoText) {
			t.Fatalf("Load failed outside the error taxonomy: %v", err1)
		}
	})
}
