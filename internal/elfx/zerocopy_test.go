package elfx

import (
	"bytes"
	"debug/elf"
	"errors"
	"fmt"
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
// so any range data lets through would panic here. parse must also
// agree with elf.NewFile (agreeWithDebugElf).
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
		agreeWithDebugElf(t, in)
	})
}

// agreeWithDebugElf holds parse to elf.NewFile, the reference parser.
// Where both accept, every header and section-header field Load uses is
// equal. Where only NewFile accepts, parse's error is ErrMalformed: one
// of the rejections Load made before it called NewFile (an invalid
// identification byte, a .shstrtab that is not plain bytes of the
// image, section names longer than the image). Where only parse
// accepts, NewFile rejected the image for a field parse never reads
// (unreadFieldFault).
func agreeWithDebugElf(t *testing.T, in []byte) {
	p, perr := parse(in)
	if errors.Is(perr, ErrMalformed) {
		return // NewFile would inflate a compressed .shstrtab
	}
	ref, rerr := newFile(in)
	switch {
	case perr != nil && rerr == nil:
		t.Fatalf("parse rejects an image elf.NewFile accepts: %v", perr)
	case perr == nil && rerr != nil:
		if !unreadFieldFault(in, p) {
			t.Fatalf("parse accepts an image elf.NewFile rejects: %v", rerr)
		}
	case perr == nil:
		if p.class != ref.Class || p.bo != ref.ByteOrder || p.machine != ref.Machine || p.typ != ref.Type ||
			p.entry != ref.Entry || len(p.sections) != len(ref.Sections) {
			t.Fatalf("ELF header: parse %v %v %v %v %#x with %d sections; elf.NewFile %v %v %v %v %#x with %d",
				p.class, p.bo, p.machine, p.typ, p.entry, len(p.sections),
				ref.Class, ref.ByteOrder, ref.Machine, ref.Type, ref.Entry, len(ref.Sections))
		}
		for i, want := range ref.Sections {
			s := p.sections[i]
			if string(s.name) != want.Name || s.typ != want.Type || s.flags != want.Flags || s.addr != want.Addr ||
				s.off != want.Offset || s.size != want.FileSize || s.link != want.Link {
				t.Fatalf("section %d: parse %+v, elf.NewFile %+v", i, s, want.SectionHeader)
			}
		}
	}
}

// newFile is elf.NewFile with a panic reported as an error: NewFile
// indexes its sections with an extended e_shstrndx it never checked.
func newFile(in []byte) (f *elf.File, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("elf.NewFile panicked: %v", r)
		}
	}()
	return elf.NewFile(bytes.NewReader(in))
}

// unreadFieldFault reports whether elf.NewFile rejects in, which parse
// accepted, for a field parse never reads: an ELF64 program header
// whose offset or file size is 2^63 or more, or a section whose offset
// or size is, or whose compression header does not fit in the section
// or the image.
func unreadFieldFault(in []byte, p *file) bool {
	chdrSize := uint64(12) // Elf32_Chdr
	if p.class == elf.ELFCLASS64 {
		chdrSize = 24
		phoff, phentsize, phnum := p.bo.Uint64(in[0x20:]), uint64(p.bo.Uint16(in[0x36:])), uint64(p.bo.Uint16(in[0x38:]))
		for i := uint64(0); i < phnum; i++ {
			ph := in[phoff+i*phentsize:]
			if int64(p.bo.Uint64(ph[8:])) < 0 || int64(p.bo.Uint64(ph[32:])) < 0 {
				return true
			}
		}
	}
	for _, s := range p.sections {
		if int64(s.off) < 0 || int64(s.size) < 0 ||
			s.flags&elf.SHF_COMPRESSED != 0 && (s.size < chdrSize || s.off+chdrSize > uint64(len(in))) {
			return true
		}
	}
	return false
}
