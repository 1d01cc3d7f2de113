// Command acbtrace inspects workloads statically and through the
// Fields-style critical-path model: disassembly, hammock/reconvergence
// analysis, and the fraction of mispredictions that actually lie on the
// critical path (the paper's Sec. II-A motivation). Trace mode runs the
// cycle-level core with event tracing on and exports the pipeline events
// (dual-fetch windows, flushes, gate decisions) for chrome://tracing.
//
// Usage:
//
//	acbtrace -workload soplex -mode critpath
//	acbtrace -workload gcc -mode disasm
//	acbtrace -workload gcc -mode hammocks
//	acbtrace -workload astar -mode trace -format chrome -o trace.json
package main

import (
	"flag"
	"fmt"
	"os"

	"acb/internal/config"
	"acb/internal/core"
	"acb/internal/critpath"
	"acb/internal/experiments"
	"acb/internal/ooo"
	"acb/internal/prog"
	"acb/internal/workload"
)

func main() {
	var (
		name   = flag.String("workload", "gcc", "workload selector: name, trace:<file>, or adversarial entry")
		mode   = flag.String("mode", "critpath", "disasm | hammocks | critpath | attribute | export | trace")
		out    = flag.String("o", "", "output file for export/trace modes (default stdout)")
		steps  = flag.Int64("steps", 200_000, "trace length for critpath mode")
		budget = flag.Int64("budget", 400_000, "retired-instruction budget for trace mode")
		format = flag.String("format", "chrome", "trace mode output: chrome | text")
		scheme = flag.String("scheme", "acb", "trace mode scheme: baseline | perfect-bp | acb | acb-nodynamo | acb-eager | dmp | dmp-pbh | dhp")
		cap    = flag.Int("trace-cap", ooo.DefaultTraceCap, "event-ring capacity for trace mode (oldest events drop beyond it)")
	)
	flag.Parse()

	w, err := workload.Resolve(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	p, m := w.Build()

	switch *mode {
	case "disasm":
		fmt.Print(prog.Disassemble(p))

	case "hammocks":
		for _, hm := range prog.AnalyzeHammocks(p, 64) {
			fmt.Printf("branch pc=%-5d recon=%-5d takenLen=%-3d notTakenLen=%-3d simple=%v\n",
				hm.BranchPC, hm.ReconvPC, hm.TakenLen, hm.NotTakenLen, hm.Simple)
		}

	case "critpath":
		opts := critpath.DefaultCaptureOptions()
		opts.Steps = *steps
		trace := critpath.Capture(p, m, opts)
		res := critpath.Analyze(trace, critpath.DefaultModel())
		on, total := critpath.MispredictsOnPath(trace, res)
		fmt.Printf("workload          %s (%s)\n", w.Name, w.Category)
		fmt.Printf("trace             %d instructions, critical path %d cycles\n", len(trace), res.Length)
		fmt.Printf("mispredict share  %.1f%% of critical path\n", res.MispredictShare*100)
		fmt.Printf("memory share      %.1f%% of critical path\n", res.MemShare*100)
		if total > 0 {
			fmt.Printf("mispredictions    %d/%d on the critical path (%.1f%%)\n",
				on, total, float64(on)*100/float64(total))
		} else {
			fmt.Printf("mispredictions    none in trace\n")
		}

	case "export":
		opts := critpath.DefaultCaptureOptions()
		opts.Steps = *steps
		trace := critpath.Capture(p, m, opts)
		dst := os.Stdout
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer f.Close()
			dst = f
		}
		if err := critpath.WriteJSONL(dst, trace); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %d events\n", len(trace))

	case "attribute":
		opts := critpath.DefaultCaptureOptions()
		opts.Steps = *steps
		trace := critpath.Capture(p, m, opts)
		att := critpath.Attribute(trace, critpath.DefaultModel())
		fmt.Printf("critical path: %d cycles over %d instructions\n\n", att.TotalCycles, len(trace))
		fmt.Println("top misprediction contributors (the ACB criticality targets):")
		for _, s := range att.TopMispredictors(8) {
			fmt.Printf("  pc=%-5d  %-28s %8d cycles  %5.1f%%\n",
				s.PC, p[s.PC].String(), s.Cycles, s.Share*100)
		}
		fmt.Println("\ntop execution-latency contributors:")
		for _, s := range att.TopExecutors(8) {
			fmt.Printf("  pc=%-5d  %-28s %8d cycles  %5.1f%%\n",
				s.PC, p[s.PC].String(), s.Cycles, s.Share*100)
		}

	case "trace":
		newPred, newScheme, err := experiments.SchemeFor(experiments.SchemeKind(*scheme), "tage", &w)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		var sch ooo.Scheme
		if newScheme != nil {
			sch = newScheme()
		}
		c := ooo.NewWithMemory(config.Skylake(), p, newPred(), sch, m)
		ring := c.EnableTrace(*cap)
		if acb, ok := sch.(*core.ACB); ok {
			acb.SetTrace(ring)
		}
		c.EnableCPIStack()
		res, err := c.Run(*budget)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		dst := os.Stdout
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer f.Close()
			dst = f
		}
		events := ring.Events()
		switch *format {
		case "chrome":
			if err := ooo.WriteChromeTrace(dst, events); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		case "text":
			for _, ev := range events {
				fmt.Fprintf(dst, "cycle=%-8d %-14s pc=%-5d ctx=%-4d arg=%d\n",
					ev.Cycle, ev.Kind, ev.PC, ev.Ctx, ev.Arg)
			}
		default:
			fmt.Fprintf(os.Stderr, "unknown format %q (want chrome or text)\n", *format)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "%s/%s: %d events (%d dropped), IPC=%.3f\n",
			w.Name, res.Scheme, len(events), ring.Dropped(), res.IPC)
		if res.CPI != nil {
			fmt.Fprintf(os.Stderr, "cpi stack: %s\n", res.CPI)
		}

	default:
		fmt.Fprintf(os.Stderr, "unknown mode %q\n", *mode)
		os.Exit(1)
	}
}
