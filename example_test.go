package funseeker_test

import (
	"fmt"

	"github.com/funseeker/funseeker"
)

// Example demonstrates the complete round trip: synthesize a CET-enabled
// binary with known ground truth, identify its function entries, and
// score the result.
func Example() {
	spec := &funseeker.ProgramSpec{
		Name: "demo",
		Lang: funseeker.LangC,
		Seed: 1,
		Funcs: []funseeker.FuncSpec{
			{Name: "main", Calls: []int{1}},
			{Name: "helper", Static: true},
			{Name: "exported_api"},
		},
	}
	cfg := funseeker.BuildConfig{
		Compiler: funseeker.GCC,
		Mode:     funseeker.ModeX64,
		Opt:      funseeker.O2,
	}
	res, err := funseeker.Compile(spec, cfg)
	if err != nil {
		fmt.Println("compile:", err)
		return
	}
	report, err := funseeker.IdentifyBytes(res.Stripped, funseeker.DefaultOptions)
	if err != nil {
		fmt.Println("identify:", err)
		return
	}
	m := funseeker.Score(report.Entries, res.GT)
	fmt.Printf("found %d entries, precision %.0f%%, recall %.0f%%\n",
		len(report.Entries), m.Precision(), m.Recall())
	// Output:
	// found 4 entries, precision 100%, recall 100%
}

// ExampleClassifyEndbrs reproduces the paper's Table I measurement on a
// single binary: where do the end-branch instructions sit?
func ExampleClassifyEndbrs() {
	spec := &funseeker.ProgramSpec{
		Name: "study",
		Lang: funseeker.LangCPP,
		Seed: 2,
		Funcs: []funseeker.FuncSpec{
			{Name: "main", Calls: []int{1, 2}},
			{Name: "uses_setjmp", IndirectReturnCall: "setjmp"},
			{Name: "thrower", HasEH: true, NumLandingPads: 1, CallsPLT: []string{"__cxa_throw"}},
		},
	}
	cfg := funseeker.BuildConfig{
		Compiler: funseeker.GCC,
		Mode:     funseeker.ModeX64,
		Opt:      funseeker.O2,
	}
	res, err := funseeker.Compile(spec, cfg)
	if err != nil {
		fmt.Println("compile:", err)
		return
	}
	bin, err := funseeker.Load(res.Stripped)
	if err != nil {
		fmt.Println("load:", err)
		return
	}
	dist, err := funseeker.ClassifyEndbrs(bin)
	if err != nil {
		fmt.Println("classify:", err)
		return
	}
	fmt.Printf("entries=%d indirect-return=%d exception=%d\n",
		dist.FuncEntry, dist.IndirectReturn, dist.Exception)
	// Output:
	// entries=4 indirect-return=1 exception=1
}

// ExampleCompileBTI shows the ARM BTI port of the algorithm: the same
// IdentifyBytes call dispatches an AArch64 image on its ELF header.
func ExampleCompileBTI() {
	spec := &funseeker.ProgramSpec{
		Name: "armdemo",
		Lang: funseeker.LangC,
		Seed: 3,
		Funcs: []funseeker.FuncSpec{
			{Name: "main", Calls: []int{1}},
			{Name: "worker", Static: true},
		},
	}
	res, err := funseeker.CompileBTI(spec, funseeker.BTIBuildConfig{Opt: funseeker.O2})
	if err != nil {
		fmt.Println("compile:", err)
		return
	}
	report, err := funseeker.IdentifyBytes(res.Image, funseeker.DefaultOptions)
	if err != nil {
		fmt.Println("identify:", err)
		return
	}
	m := funseeker.Score(report.Entries, res.GT)
	fmt.Printf("%s: found %d entries, recall %.0f%%\n", report.Arch, len(report.Entries), m.Recall())
	// Output:
	// aarch64: found 3 entries, recall 100%
}
