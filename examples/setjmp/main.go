// Setjmp: reproduces the paper's Figure 2a scenario. A call to setjmp is
// followed by an end-branch instruction (the landing point of longjmp's
// indirect return). Treating raw end branches as function entries
// (configuration ①) misreports that point; FILTERENDBR (configuration ②)
// recognizes the preceding PLT call to a known indirect-return function
// and removes it.
package main

import (
	"fmt"
	"os"

	"github.com/funseeker/funseeker"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "setjmp:", err)
		os.Exit(1)
	}
}

func run() error {
	spec := &funseeker.ProgramSpec{
		Name: "sortlike",
		Lang: funseeker.LangC,
		Seed: 7,
		Funcs: []funseeker.FuncSpec{
			{Name: "main", Calls: []int{1}},
			// sort_files saves its context with setjmp, like the ls
			// example in the paper.
			{Name: "sort_files", IndirectReturnCall: "setjmp", CallsPLT: []string{"printf"}},
		},
	}
	cfg := funseeker.BuildConfig{
		Compiler: funseeker.GCC,
		Mode:     funseeker.ModeX64,
		Opt:      funseeker.O2,
	}
	res, err := funseeker.Compile(spec, cfg)
	if err != nil {
		return err
	}
	fmt.Println("indirect-return functions known to compilers:",
		funseeker.IndirectReturnFuncs())

	bin, err := funseeker.Load(res.Stripped)
	if err != nil {
		return err
	}
	dist, err := funseeker.ClassifyEndbrs(funseeker.NewContext(bin))
	if err != nil {
		return err
	}
	fmt.Printf("\nend-branch classification: %d at function entries, %d after indirect-return calls, %d at landing pads\n",
		dist.FuncEntry, dist.IndirectReturn, dist.Exception)

	raw, err := funseeker.IdentifyBinary(bin, funseeker.Config1)
	if err != nil {
		return err
	}
	filtered, err := funseeker.IdentifyBinary(bin, funseeker.Config2)
	if err != nil {
		return err
	}
	m1 := funseeker.Score(raw.Entries, res.GT)
	m2 := funseeker.Score(filtered.Entries, res.GT)
	fmt.Printf("\nconfig ① (raw endbr ∪ calls):   precision %.1f%% recall %.1f%% — the setjmp return point is a false entry\n",
		m1.Precision(), m1.Recall())
	fmt.Printf("config ② (+FILTERENDBR):        precision %.1f%% recall %.1f%% — filtered %d indirect-return end branch(es)\n",
		m2.Precision(), m2.Recall(), filtered.FilteredIndirectReturn)
	return nil
}
