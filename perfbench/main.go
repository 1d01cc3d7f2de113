// Command perfbench is the repository's end-to-end and per-layer
// benchmark. One invocation runs one workload from a seed for a fixed
// number of seconds, checks every simulator output it produced, and prints
// one JSON object as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
// with -trace 1 they are its per-layer metrics, taken from a separate
// traced run that records spans around every call into a layer and a CPU
// profile. README.md in this directory explains the workloads and metrics.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload fig6-detailed --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// Seeds recorded for this benchmark: the default seed, and a held-out
// seed that no tuning of the benchmark or of the program has looked at.
const (
	defaultSeed = 1
	heldOutSeed = 977
)

// metricDef declares one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd lists the metrics of an untraced run. Every workload reports
// every one of them; README.md defines each per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"baseline_minstr_s", "Minstr/s"},
	{"acb_minstr_s", "Minstr/s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics of a traced run. A layer a workload does not
// exercise reports 0.
var perLayer = []metricDef{
	{"workload.build_s", "s"},
	{"experiments.pool_speedup", "x"},
	{"ooo.baseline.ns_per_cycle", "ns"},
	{"ooo.acb.ns_per_cycle", "ns"},
	{"ooo.baseline.fetch_share", "ratio"},
	{"ooo.baseline.rename_share", "ratio"},
	{"ooo.baseline.issue_share", "ratio"},
	{"ooo.baseline.complete_share", "ratio"},
	{"ooo.baseline.retire_share", "ratio"},
	{"ooo.acb.fetch_share", "ratio"},
	{"ooo.acb.rename_share", "ratio"},
	{"ooo.acb.issue_share", "ratio"},
	{"ooo.acb.complete_share", "ratio"},
	{"ooo.acb.retire_share", "ratio"},
	{"ooo.baseline.allocs_per_kcycle", "count"},
	{"ooo.acb.allocs_per_kcycle", "count"},
	{"ooo.acb_cost_ratio_min", "ratio"},
	{"ooo.acb_cost_ratio_geomean", "ratio"},
	{"ooo.baseline.ipc", "ratio"},
	{"ooo.baseline.mpki", "count"},
	{"ooo.baseline.flushes_pki", "count"},
	{"ooo.acb.ipc", "ratio"},
	{"ooo.acb.mpki", "count"},
	{"ooo.acb.flushes_pki", "count"},
	{"ooo.acb.div_flushes_pki", "count"},
	{"ooo.acb.predications_pki", "count"},
	{"core.hook_calls_per_kinstr", "count"},
	{"core.hook_ns", "ns"},
	{"core.hook_share", "ratio"},
	{"core.predicated_useful_ratio", "ratio"},
	{"bpu.predict_ns", "ns"},
	{"bpu.update_ns", "ns"},
	{"bpu.lookups_per_kinstr", "count"},
	{"bpu.accuracy", "ratio"},
	{"mem.access_ns", "ns"},
	{"mem.l1_hit_ratio", "ratio"},
	{"mem.llc_hit_ratio", "ratio"},
	{"isa.step_minstr_s", "Minstr/s"},
	{"sample.ff_share", "ratio"},
	{"sample.window_ms", "ms"},
	{"sample.windows", "count"},
	{"sample.detailed_frac", "ratio"},
	{"sample.cpi_err_pct_max", "%"},
	{"sample.cpi_err_pct_mean", "%"},
	{"sample.boundary_failures", "count"},
	{"trace.decode_mb_s", "MB/s"},
	{"trace.verify_minstr_s", "Minstr/s"},
	{"trace.load_share", "ratio"},
	{"trace.bytes_per_branch", "B"},
	{"service.queue_wait_ms", "ms"},
	{"service.run_ms", "ms"},
	{"service.store_hit_ratio", "ratio"},
	{"service.peer_hits", "count"},
	{"service.hit_p50_ms", "ms"},
	{"service.hit_p99_ms", "ms"},
	{"service.jobs_per_s", "1/s"},
	{"cluster.dispatch_ms", "ms"},
	{"cluster.completion_lag_ms_p50", "ms"},
	{"cluster.completion_lag_ms_p90", "ms"},
	{"cluster.assigns_per_job", "count"},
	{"wal.append_ms", "ms"},
	{"wal.records_per_job", "count"},
	{"self_s.experiments", "s"},
	{"self_s.workload", "s"},
	{"self_s.ooo", "s"},
	{"self_s.sample", "s"},
	{"self_s.isa", "s"},
	{"self_s.trace", "s"},
	{"self_s.service", "s"},
	{"host.ref_mops", "Mop/s"},
	{"host.cal_mops", "Mop/s"},
	{"trace_overhead_pct", "%"},
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*run) error{
	"fig6-detailed": runDetailed,
	"fig6-sampled":  runSampled,
	"trace-replay":  runReplay,
	"acbd-mixed":    runACBD,
}

// metricJSON is one printed metric.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultJSON is the last line of standard output.
type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: fig6-detailed, fig6-sampled, trace-replay or acbd-mixed")
		seed    = flag.Uint64("seed", defaultSeed, "workload seed; every input is derived from it")
		seconds = flag.Float64("seconds", 25, "measured time of one run")
		traced  = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics; 0 = end-to-end metrics")
		work    = flag.String("work", ".bench_build/work", "scratch directory for traces, stores, journals, spans and profiles")
	)
	flag.Parse()
	if _, ok := workloads[*name]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %v)\n", *name, workloadNames())
		os.Exit(2)
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: -trace must be 0 or 1\n")
		os.Exit(2)
	}
	res, err := execute(*name, settings{
		seed:    *seed,
		seconds: *seconds,
		trace:   *traced == 1,
		work:    *work,
		sizes:   fullSizes,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// execute runs one workload and assembles its result. Only metrics
// declared for the run's mode are printed, so a runner that forgets one
// fails the metric-name test instead of printing an undeclared name.
func execute(name string, cfg settings) (*resultJSON, error) {
	r, err := newRun(cfg, name)
	if err != nil {
		return nil, err
	}
	defer r.close()
	if err := workloads[name](r); err != nil {
		return nil, err
	}
	if cfg.trace {
		r.layer["host.ref_mops"] = refMops()
		r.layer["host.cal_mops"] = calMops()
		r.writeSpans()
	}
	r.metrics["peak_rss_mb"] = r.peakRSS()

	defs, vals := endToEnd, r.metrics
	if cfg.trace {
		defs, vals = perLayer, r.layer
	}
	res := &resultJSON{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricJSON, len(defs)),
	}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok && !cfg.trace {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	return res, nil
}
