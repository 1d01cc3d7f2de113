// Command acbsweep regenerates the paper's tables and figures on the
// synthetic workload suite.
//
// Usage:
//
//	acbsweep -experiment fig6 -budget 400000
//	acbsweep -experiment all -format csv
//
// Experiments: fig1 fig6 fig7 fig8 fig9 fig10 fig11 scaling power census
// table1 table3 all (plus sens-* and multirecon; see -h).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"acb/internal/experiments"
	"acb/internal/ooo"
	"acb/internal/stats"
	"acb/internal/viz"
	"acb/internal/workload"
)

func main() {
	var (
		exp       = flag.String("experiment", "all", "experiment to run ("+strings.Join(experiments.Names(), " ")+" all)")
		budget    = flag.Int64("budget", 400_000, "retired-instruction budget per simulation")
		names     = flag.String("workloads", "", "comma-separated workload selectors: names, trace:<file>, tier=adversarial (default: full suite)")
		jobs      = flag.Int("jobs", 0, "concurrent simulations (0 = GOMAXPROCS, 1 = serial; output is identical either way)")
		format    = flag.String("format", "ascii", "table rendering: json | csv | ascii")
		plot      = flag.Bool("plot", false, "render ASCII charts alongside the tables")
		verbose   = flag.Bool("v", false, "per-run progress and runner stats on stderr")
		listNames = flag.Bool("list", false, "list workloads and exit")
	)
	flag.Parse()
	render := renderer(*format)
	if render == nil {
		fmt.Fprintf(os.Stderr, "unknown format %q (want json, csv or ascii)\n", *format)
		os.Exit(1)
	}

	if *listNames {
		for _, w := range workload.All() {
			fmt.Printf("%-12s %-8s %s\n", w.Name, w.Category, w.Mirrors)
		}
		if advs, err := workload.Adversarial(); err == nil {
			for _, w := range advs {
				fmt.Printf("%-12s %-8s %s\n", w.Name, w.Category, w.Mirrors)
			}
		}
		return
	}

	opts := experiments.DefaultOptions()
	opts.Budget = *budget
	if *names != "" {
		ws, err := workload.Expand(strings.Split(*names, ","))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		opts.Workloads = append(opts.Workloads, ws...)
	}
	opts.Jobs = *jobs
	runStats := &experiments.RunnerStats{}
	opts.Stats = runStats
	if *verbose {
		opts.Verbose = true
		opts.Logf = func(format string, args ...interface{}) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	ran := false
	for _, e := range experiments.Experiments() {
		if *exp != e.Name && !(*exp == "all" && !e.Extra) {
			continue
		}
		ran = true
		fmt.Printf("== %s ==\n", e.Name)
		t := e.Func(opts)
		fmt.Print(render(t))
		if *plot {
			fmt.Println()
			fmt.Print(renderPlot(e.Name, t))
		}
		fmt.Println()
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(1)
	}
	if *verbose && runStats.Jobs() > 0 {
		fmt.Fprintf(os.Stderr, "runner total: %s\n", runStats)
	}
}

// renderer returns the table-to-string function for a -format value (nil
// for an unknown format). JSON goes through stats.Table.MarshalJSON — the
// same serialization the acbd API serves, so a piped `acbsweep -format
// json` and a `GET /v1/results/{key}` are interchangeable.
func renderer(format string) func(*stats.Table) string {
	switch format {
	case "json":
		return func(t *stats.Table) string {
			b, err := t.MarshalJSON()
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			return string(b) + "\n"
		}
	case "csv":
		return (*stats.Table).CSV
	case "ascii":
		return (*stats.Table).String
	}
	return nil
}

// renderPlot draws an ASCII chart for the figure tables that benefit from
// one: speedup bar charts for fig6/fig8/fig11/scaling, and the Fig. 7
// correlation scatter.
func renderPlot(name string, t *stats.Table) string {
	// strconv.ParseFloat rejects garbage-suffixed cells like "1.2x" that
	// Sscanf("%g") would silently truncate to 1.2.
	parse := func(cell string) (float64, bool) {
		v, err := strconv.ParseFloat(strings.TrimSpace(cell), 64)
		if err != nil {
			return 0, false
		}
		return v, true
	}
	switch name {
	case "fig6", "fig8", "fig11", "scaling":
		c := &viz.BarChart{Title: t.Header[1] + " (| = 1.0)", Reference: 1.0, Width: 44}
		for _, row := range t.Rows {
			if v, ok := parse(row[1]); ok {
				c.Add(row[0], v)
			}
		}
		return c.String()
	case "cpistack":
		c := &viz.StackedBar{
			Title:  "CPI stack (share of cycles per bucket)",
			Series: ooo.CPIBucketNames,
		}
		for _, row := range t.Rows {
			vals := make([]float64, 0, len(row)-3)
			ok := true
			for _, cell := range row[3:] {
				v, parsed := parse(cell)
				if !parsed {
					ok = false
					break
				}
				vals = append(vals, v)
			}
			if ok {
				c.Add(row[0]+"/"+row[1], vals...)
			}
		}
		return c.String()
	case "fig7":
		s := &viz.Scatter{
			Title:  "mis-speculation ratio vs performance ratio (one point per workload)",
			XLabel: "flush ratio (ACB/base)",
			YLabel: "perf ratio (ACB/base)",
		}
		for _, row := range t.Rows {
			x, okX := parse(row[2])
			y, okY := parse(row[1])
			if okX && okY {
				s.Add(row[0], x, y)
			}
		}
		return s.String()
	}
	return ""
}
