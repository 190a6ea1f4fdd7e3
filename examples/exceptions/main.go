// Exceptions: reproduces the paper's Figure 2b scenario. In C++
// binaries every catch block (exception landing pad) starts with an
// end-branch instruction because libstdc++ reaches it through an
// indirect jump. Naively treating end branches as function entries
// floods the result with catch blocks; FunSeeker parses the LSDA
// records in .gcc_except_table to filter them.
package main

import (
	"fmt"
	"os"

	"github.com/funseeker/funseeker"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "exceptions:", err)
		os.Exit(1)
	}
}

func run() error {
	// A C++ program shaped like the paper's 508.namd example: methods
	// with try/catch blocks.
	spec := &funseeker.ProgramSpec{
		Name: "namdlike",
		Lang: funseeker.LangCPP,
		Seed: 508,
		Funcs: []funseeker.FuncSpec{
			{Name: "main", Calls: []int{1, 2}},
			{Name: "_ZN8MoleculeC2Ev", HasEH: true, NumLandingPads: 2,
				CallsPLT: []string{"__cxa_throw"}},
			{Name: "_ZN8Molecule7computeEv", HasEH: true, NumLandingPads: 1,
				CallsPLT: []string{"__cxa_throw"}},
			{Name: "helper", Static: true},
		},
	}
	spec.Funcs[1].Calls = []int{3}
	cfg := funseeker.BuildConfig{
		Compiler: funseeker.GCC,
		Mode:     funseeker.ModeX64,
		Opt:      funseeker.O2,
	}
	res, err := funseeker.Compile(spec, cfg)
	if err != nil {
		return err
	}
	bin, err := funseeker.Load(res.Stripped)
	if err != nil {
		return err
	}

	pads, err := funseeker.LandingPads(bin)
	if err != nil {
		return err
	}
	fmt.Printf("exception landing pads found via .gcc_except_table:\n")
	for _, p := range pads {
		fmt.Printf("  %#x\n", p)
	}

	dist, err := funseeker.ClassifyEndbrs(funseeker.NewContext(bin))
	if err != nil {
		return err
	}
	total := dist.Total()
	fmt.Printf("\nend branches: %d total, %d (%.0f%%) at exception landing pads\n",
		total, dist.Exception, 100*float64(dist.Exception)/float64(total))

	raw, err := funseeker.IdentifyBinary(bin, funseeker.Config1)
	if err != nil {
		return err
	}
	full, err := funseeker.IdentifyBinary(bin, funseeker.DefaultOptions)
	if err != nil {
		return err
	}
	m1 := funseeker.Score(raw.Entries, res.GT)
	m4 := funseeker.Score(full.Entries, res.GT)
	fmt.Printf("\nconfig ① precision %.1f%% (catch blocks misreported as functions)\n", m1.Precision())
	fmt.Printf("config ④ precision %.1f%% recall %.1f%% (%d landing-pad end branches filtered)\n",
		m4.Precision(), m4.Recall(), full.FilteredLandingPads)
	return nil
}
