// Package repro's benchmark harness regenerates every table and figure of
// the paper's evaluation (run with `go test -bench=. -benchmem`). Each
// benchmark executes its experiment once per b.N iteration; pass
// -acb.tables to also print the resulting data series (EXPERIMENTS.md
// records the paper-vs-measured comparison for each). Every benchmark
// reports allocations and simulated cycles per wall second — the
// throughput metric docs/PERFORMANCE.md tracks and cmd/acbbench gates in
// CI. BenchmarkAblation* additionally quantify the design choices
// DESIGN.md calls out (Dynamo, the ROB-criticality heuristic, the eager
// select-µop variant, and the body-size confidence mapping).
package main

import (
	"flag"
	"fmt"
	"testing"

	"acb/internal/core"
	"acb/internal/experiments"
	"acb/internal/stats"
)

// acbTables gates the experiment-table dumps: benchmarks are silent by
// default so `go test -bench` output stays parseable by benchstat and the
// CI perf gate.
var acbTables = flag.Bool("acb.tables", false, "print experiment result tables from benchmarks")

// benchBudget is the per-simulation retired-instruction budget for the
// figure benchmarks. The experiments are deterministic; larger budgets
// sharpen the numbers but scale run time linearly.
const benchBudget = 400_000

func benchOpts(rs *experiments.RunnerStats) experiments.Options {
	o := experiments.DefaultOptions()
	o.Budget = benchBudget
	o.Stats = rs
	return o
}

// benchExperiment runs one table-producing experiment per iteration,
// reporting allocations and simulated cycles per wall second.
func benchExperiment(b *testing.B, run func(experiments.Options) *stats.Table) {
	b.Helper()
	var rs experiments.RunnerStats
	o := benchOpts(&rs)
	b.ReportAllocs()
	b.ResetTimer()
	var t *stats.Table
	for i := 0; i < b.N; i++ {
		t = run(o)
	}
	b.StopTimer()
	b.ReportMetric(float64(rs.Cycles())/b.Elapsed().Seconds(), "cycles/sec")
	report(b, t)
}

func report(b *testing.B, t *stats.Table) {
	b.Helper()
	b.StopTimer()
	if *acbTables && t != nil {
		fmt.Printf("\n%s\n", t.String())
	}
}

// BenchmarkTableI — the paper's Table I: ACB storage (386 bytes). No
// simulation runs, so no cycles/sec metric.
func BenchmarkTableI(b *testing.B) {
	b.ReportAllocs()
	var t *stats.Table
	for i := 0; i < b.N; i++ {
		t = experiments.TableI()
	}
	report(b, t)
}

// BenchmarkMispredictCensus — Sec. II motivation: branch-PC coverage of
// dynamic mispredictions and the convergent/loop/non-convergent split.
func BenchmarkMispredictCensus(b *testing.B) {
	benchExperiment(b, experiments.MispredictCensus)
}

// BenchmarkFigure1 — perfect-BP headroom vs core scaling.
func BenchmarkFigure1(b *testing.B) {
	benchExperiment(b, experiments.Figure1)
}

// BenchmarkFigure6 — ACB speedup and flush reduction, category-wise.
func BenchmarkFigure6(b *testing.B) {
	benchExperiment(b, experiments.Figure6)
}

// BenchmarkFigure7 — per-workload mis-speculation vs performance ratios.
func BenchmarkFigure7(b *testing.B) {
	benchExperiment(b, experiments.Figure7)
}

// BenchmarkFigure8 — ACB vs ACB-without-Dynamo vs DMP.
func BenchmarkFigure8(b *testing.B) {
	benchExperiment(b, experiments.Figure8)
}

// BenchmarkFigure9 — DMP vs DMP-PBH vs ACB on the D/E outlier classes.
func BenchmarkFigure9(b *testing.B) {
	benchExperiment(b, experiments.Figure9)
}

// BenchmarkFigure10 — allocation stalls on category-E workloads.
func BenchmarkFigure10(b *testing.B) {
	benchExperiment(b, experiments.Figure10)
}

// BenchmarkFigure11 — ACB vs DHP coverage comparison.
func BenchmarkFigure11(b *testing.B) {
	benchExperiment(b, experiments.Figure11)
}

// BenchmarkCoreScaling — Sec. V-D: ACB on the future 8-wide core.
func BenchmarkCoreScaling(b *testing.B) {
	benchExperiment(b, experiments.CoreScaling)
}

// BenchmarkPowerProxy — Sec. V-E: allocation and flush reductions.
func BenchmarkPowerProxy(b *testing.B) {
	benchExperiment(b, experiments.PowerProxy)
}

// ---- Ablations ------------------------------------------------------------

// ablationWorkloads is a small representative slice: one big winner, one
// history-pollution outlier, one predication-hostile workload, one
// memory-shadowed workload.
func ablationWorkloads() []string {
	return []string{"lammps", "omnetpp", "eembc", "soplex", "gobmk"}
}

// runACBVariant routes the ablation sweep through the experiments
// package's shared worker pool (baseline and variant per workload fan out
// up to GOMAXPROCS wide; the geomean is scheduling-independent).
func runACBVariant(b *testing.B, rs *experiments.RunnerStats, cfg core.Config, names []string) float64 {
	b.Helper()
	return experiments.ACBGeomean(benchOpts(rs), cfg, names)
}

// reportAblation finishes an ablation benchmark: cycles/sec metric plus
// the gated result line.
func reportAblation(b *testing.B, rs *experiments.RunnerStats, format string, args ...interface{}) {
	b.Helper()
	b.StopTimer()
	b.ReportMetric(float64(rs.Cycles())/b.Elapsed().Seconds(), "cycles/sec")
	if *acbTables {
		fmt.Printf(format, args...)
	}
}

// BenchmarkAblationDynamo — ACB with vs without the run-time monitor.
func BenchmarkAblationDynamo(b *testing.B) {
	var rs experiments.RunnerStats
	b.ReportAllocs()
	var with, without float64
	for i := 0; i < b.N; i++ {
		with = runACBVariant(b, &rs, core.DefaultConfig(), ablationWorkloads())
		cfg := core.DefaultConfig()
		cfg.UseDynamo = false
		without = runACBVariant(b, &rs, cfg, ablationWorkloads())
	}
	reportAblation(b, &rs, "\nACB geomean with Dynamo: %.3f   without: %.3f\n", with, without)
}

// BenchmarkAblationROBFrac — the Sec. III-A ROB-quartile criticality
// refinement on vs off.
func BenchmarkAblationROBFrac(b *testing.B) {
	var rs experiments.RunnerStats
	b.ReportAllocs()
	var off, on float64
	for i := 0; i < b.N; i++ {
		off = runACBVariant(b, &rs, core.DefaultConfig(), ablationWorkloads())
		cfg := core.DefaultConfig()
		cfg.ROBFracLimit = 0.25
		on = runACBVariant(b, &rs, cfg, ablationWorkloads())
	}
	reportAblation(b, &rs, "\nACB geomean without ROB-quartile filter: %.3f   with: %.3f\n", off, on)
}

// BenchmarkAblationEagerACB — the Sec. V-C sensitivity study: ACB with
// DMP-style select micro-ops instead of stall-and-transparency (the paper
// measured only ~0.2% benefit, justifying the simpler design).
func BenchmarkAblationEagerACB(b *testing.B) {
	var rs experiments.RunnerStats
	b.ReportAllocs()
	var stall, eager float64
	for i := 0; i < b.N; i++ {
		stall = runACBVariant(b, &rs, core.DefaultConfig(), ablationWorkloads())
		cfg := core.DefaultConfig()
		cfg.Eager = true
		eager = runACBVariant(b, &rs, cfg, ablationWorkloads())
	}
	reportAblation(b, &rs, "\nACB geomean stall/transparency: %.3f   eager select-µops: %.3f\n", stall, eager)
}

// BenchmarkAblationLearningWindow — sensitivity of the convergence
// learning window N (paper: 40).
func BenchmarkAblationLearningWindow(b *testing.B) {
	var rs experiments.RunnerStats
	b.ReportAllocs()
	results := map[int]float64{}
	for i := 0; i < b.N; i++ {
		for _, n := range []int{16, 40, 64} {
			cfg := core.DefaultConfig()
			cfg.N = n
			results[n] = runACBVariant(b, &rs, cfg, ablationWorkloads())
		}
	}
	reportAblation(b, &rs, "\nACB geomean by learning window: N=16 %.3f  N=40 %.3f  N=64 %.3f\n",
		results[16], results[40], results[64])
}

// BenchmarkSensitivityN — the paper's N-window sweep (Sec. III-B).
func BenchmarkSensitivityN(b *testing.B) {
	benchExperiment(b, experiments.SensitivityN)
}

// BenchmarkSensitivityEpoch — the Dynamo epoch-length sweep (Sec. III-C).
func BenchmarkSensitivityEpoch(b *testing.B) {
	benchExperiment(b, experiments.SensitivityEpoch)
}

// BenchmarkSensitivityACBTable — ACB Table size sweep (Sec. III-B:
// "increasing its size from 32 to 256 had negligible effect").
func BenchmarkSensitivityACBTable(b *testing.B) {
	benchExperiment(b, experiments.SensitivityACBTable)
}

// BenchmarkSensitivityPredictor — ACB's gain across baseline predictors.
func BenchmarkSensitivityPredictor(b *testing.B) {
	benchExperiment(b, experiments.SensitivityPredictor)
}

// BenchmarkMultiRecon — the paper's category-B1 future-work extension:
// multiple reconvergence points learned from divergence feedback
// (Sec. V-C, "ACB can be enhanced to support the same by actively
// learning and allocating multiple reconvergence points").
func BenchmarkMultiRecon(b *testing.B) {
	benchExperiment(b, experiments.MultiRecon)
}

// BenchmarkAblationThrottle — Dynamo vs the paper's rejected pre-Dynamo
// stall-counting throttle (Sec. V-B): the stall metric over-throttles
// cases where saved flushes outweigh the added stalls.
func BenchmarkAblationThrottle(b *testing.B) {
	var rs experiments.RunnerStats
	b.ReportAllocs()
	var dynamo, stalls float64
	for i := 0; i < b.N; i++ {
		dynamo = runACBVariant(b, &rs, core.DefaultConfig(), ablationWorkloads())
		cfg := core.DefaultConfig()
		cfg.UseDynamo = false
		cfg.ThrottleStalls = true
		stalls = runACBVariant(b, &rs, cfg, ablationWorkloads())
	}
	reportAblation(b, &rs, "\nACB geomean with Dynamo: %.3f   with stall-count throttle: %.3f\n", dynamo, stalls)
}
