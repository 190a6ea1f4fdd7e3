// Command funseeker identifies function entry points in CET-enabled
// x86-64 and BTI-enabled AArch64 ELF binaries, dispatching on the ELF
// header.
//
// Usage:
//
//	funseeker [-config 4] [-gt truth.json] [-stats] [-v] <binary>
//	funseeker [-config 4] [-jobs N] [-json] <binary|dir> ...
//
// By default the full algorithm (configuration ④) runs and the entry
// addresses are printed one per line. Configuration ⑤ additionally
// fuses .eh_frame FDE evidence, which also recovers functions on
// binaries built without CET markers. With -gt the result is scored
// against a ground-truth sidecar produced by synthgen. With -stats the
// intermediate set sizes and filter counters are reported.
//
// Given several paths — or a directory, which is walked for ELF files —
// funseeker switches to corpus mode: the binaries are analyzed -jobs
// at a time (default GOMAXPROCS), with at most 2×-jobs read and in
// flight ahead of the one being printed, and one result per binary is
// emitted in input order, as JSON lines with -json. Per-binary
// failures are reported on stderr without stopping the batch. In corpus
// mode -stats additionally prints a per-stage latency summary table
// (count, p50, p90, p99, total for queue wait, each analysis stage the
// run exercised — sweep, eh-parse, landing-pad, fde-index under
// configuration ⑤, superset, filter, tail-call — and end-to-end
// analyze) on stderr at exit.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"github.com/funseeker/funseeker"
	"github.com/funseeker/funseeker/internal/engine"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "funseeker:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		configN  = flag.Int("config", 4, "algorithm configuration 1-5 (Table II; 5 fuses .eh_frame evidence)")
		gtPath   = flag.String("gt", "", "score against this ground-truth JSON")
		stats    = flag.Bool("stats", false, "print intermediate set statistics")
		quiet    = flag.Bool("quiet", false, "suppress the entry listing")
		jsonOut  = flag.Bool("json", false, "emit the report as JSON")
		superset = flag.Bool("superset", false, "additionally scan all byte offsets for end branches (data-in-text robustness)")
		verbose  = flag.Bool("v", false, "report analysis degradations (e.g. unreadable exception metadata)")
		dist     = flag.Bool("endbr-dist", false, "print the end-branch location distribution (Table I study)")
		jobs     = flag.Int("jobs", 0, "max concurrent analyses in corpus mode (0 = GOMAXPROCS)")
	)
	flag.Parse()
	if flag.NArg() < 1 {
		return fmt.Errorf("usage: funseeker [flags] <binary|dir> ...")
	}

	var opts funseeker.Options
	switch *configN {
	case 1:
		opts = funseeker.Config1
	case 2:
		opts = funseeker.Config2
	case 3:
		opts = funseeker.Config3
	case 4:
		opts = funseeker.Config4
	case 5:
		opts = funseeker.Config5
	default:
		return fmt.Errorf("-config must be 1-5, got %d", *configN)
	}
	opts.SupersetEndbrScan = *superset

	// Several paths, or a directory, switch to engine-backed corpus mode.
	if flag.NArg() > 1 || isDir(flag.Arg(0)) {
		if *gtPath != "" || *dist {
			return fmt.Errorf("-gt and -endbr-dist apply to a single binary")
		}
		return runCorpus(flag.Args(), opts, *configN, *jobs, *jsonOut, *quiet, *stats, *verbose)
	}

	raw, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		return err
	}
	bin, err := funseeker.Load(raw)
	if err != nil {
		return err
	}
	bin.Path = flag.Arg(0)
	if !bin.MarkersEnabled() {
		if bin.Arch == funseeker.ArchAArch64 {
			fmt.Fprintln(os.Stderr, "funseeker: warning: binary is not marked BTI-enabled (no BTI property note)")
		} else {
			fmt.Fprintln(os.Stderr, "funseeker: warning: binary is not marked CET-enabled (no IBT property note)")
		}
	}
	if *dist {
		if bin.Arch == funseeker.ArchAArch64 {
			return fmt.Errorf("-endbr-dist is an x86 study (Table I); not supported for aarch64")
		}
		d, err := funseeker.ClassifyEndbrs(funseeker.NewContext(bin))
		if err != nil {
			return err
		}
		total := d.Total()
		if total == 0 {
			fmt.Println("no end-branch instructions found")
			return nil
		}
		fmt.Printf("end branches: %d\n", total)
		fmt.Printf("  function entries:      %6d (%.2f%%)\n", d.FuncEntry, 100*float64(d.FuncEntry)/float64(total))
		fmt.Printf("  indirect-return sites: %6d (%.2f%%)\n", d.IndirectReturn, 100*float64(d.IndirectReturn)/float64(total))
		fmt.Printf("  exception pads:        %6d (%.2f%%)\n", d.Exception, 100*float64(d.Exception)/float64(total))
		return nil
	}

	report, err := funseeker.IdentifyBinary(bin, opts)
	if err != nil {
		return err
	}
	if *verbose {
		for _, w := range report.Warnings {
			fmt.Fprintln(os.Stderr, "funseeker: warning:", w)
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		sum := sha256.Sum256(raw)
		return enc.Encode(corpusLine{
			Binary: flag.Arg(0), Answer: *engine.NewAnswer(report),
			Config: *configN, SHA256: hex.EncodeToString(sum[:]),
		})
	}
	if !*quiet {
		for _, e := range report.Entries {
			fmt.Printf("%#x\n", e)
		}
	}
	if *stats {
		fmt.Fprintf(os.Stderr, "arch:              %s\n", report.Arch)
		fmt.Fprintf(os.Stderr, "endbrs:            %d\n", len(report.Endbrs))
		fmt.Fprintf(os.Stderr, "call targets:      %d\n", len(report.CallTargets))
		fmt.Fprintf(os.Stderr, "jump targets:      %d\n", len(report.JumpTargets))
		fmt.Fprintf(os.Stderr, "tail-call targets: %d\n", len(report.TailCallTargets))
		fmt.Fprintf(os.Stderr, "filtered (indirect-return): %d\n", report.FilteredIndirectReturn)
		fmt.Fprintf(os.Stderr, "filtered (landing pads):    %d\n", report.FilteredLandingPads)
		fmt.Fprintf(os.Stderr, "entries:           %d\n", len(report.Entries))
	}
	if *gtPath != "" {
		gt, err := funseeker.LoadGroundTruth(*gtPath)
		if err != nil {
			return err
		}
		m := funseeker.Score(report.Entries, gt)
		fmt.Fprintf(os.Stderr, "precision %.3f%%  recall %.3f%%  (tp=%d fp=%d fn=%d)\n",
			m.Precision(), m.Recall(), m.TP, m.FP, m.FN)
	}
	return nil
}

func isDir(path string) bool {
	info, err := os.Stat(path)
	return err == nil && info.IsDir()
}

// corpusLine is the JSON record of one binary, in both modes: the
// engine's answer beside the binary's path, configuration, content hash
// and cache flag, or, in corpus mode, the binary's error.
type corpusLine struct {
	Binary string `json:"binary"`
	engine.Answer
	Config int    `json:"config"`
	SHA256 string `json:"sha256"`
	Cached bool   `json:"cached"`
	Error  string `json:"error,omitempty"`
}

// runCorpus analyzes every named binary (directories are walked for ELF
// files) through the engine's batch pipeline, emitting results in input
// order. Per-binary failures go to stderr — and into the JSONL stream
// with an "error" field — without aborting the batch. Ctrl-C cancels
// cleanly: in-flight sweeps stop at the next cancellation check.
func runCorpus(args []string, opts funseeker.Options, configN, jobs int, jsonOut, quiet, stats, verbose bool) error {
	paths, err := engine.Expand(args)
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		return fmt.Errorf("no ELF files found under %v", args)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	eng := engine.New(engine.Config{Jobs: jobs})
	enc := json.NewEncoder(os.Stdout)
	var failures int
	err = eng.Files(ctx, paths, opts, func(fr engine.FileResult) error {
		if fr.Err != nil {
			failures++
			fmt.Fprintf(os.Stderr, "funseeker: %s: %v\n", fr.Path, fr.Err)
			if jsonOut {
				return enc.Encode(corpusLine{Binary: fr.Path, Config: configN, Error: fr.Err.Error()})
			}
			return nil
		}
		ans := fr.Result.Answer
		if verbose {
			for _, w := range ans.Warnings {
				fmt.Fprintf(os.Stderr, "funseeker: %s: warning: %s\n", fr.Path, w)
			}
		}
		if jsonOut {
			return enc.Encode(corpusLine{
				Binary: fr.Path, Answer: *ans, Config: configN,
				SHA256: fr.Result.SHA256, Cached: fr.Result.CacheSource != "",
			})
		}
		if !quiet {
			for _, e := range ans.Entries {
				fmt.Printf("%s %#x\n", fr.Path, e)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if stats {
		st := eng.Stats()
		fmt.Fprintf(os.Stderr, "binaries analyzed: %d (%d failed, %d cache hits)\n",
			st.Engine.Analyzed, st.Engine.Failures, st.Cache.Hits)
		fmt.Fprintf(os.Stderr, "bytes analyzed:    %d\n", st.Engine.BytesAnalyzed)
		fmt.Fprint(os.Stderr, eng.StageLatencyTable())
	}
	if failures > 0 {
		return fmt.Errorf("%d of %d binaries failed", failures, len(paths))
	}
	return nil
}
