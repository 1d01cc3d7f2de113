// Command acbbench measures the simulator's hot-loop throughput on the
// Fig. 6 workload sweep and writes a machine-readable snapshot
// (BENCH_cycleloop.json at the repository root). The committed snapshot is
// the performance baseline; CI's perf-gate job re-measures and compares
// with -compare, failing on a normalized-throughput regression, on
// allocation growth in the cycle loop, or on any change in simulated
// timing.
//
// Raw rates are hardware-dependent, so every run also times a fixed
// pure-Go calibration loop (refScore) and divides by it, which transfers
// across machines of different speeds. Three throughput geomeans are
// gated: cycles/sec over both schemes, and retired instructions/sec for
// each scheme on its own — ACB retires more work per simulated cycle, and
// a per-scheme gate keeps a gain on one scheme from hiding a loss on the
// other. Allocations per simulated cycle are hardware-independent and
// gated strictly. Simulated cycles and retired instructions are
// deterministic, so every row must reproduce the snapshot exactly: a
// performance change that moves them is a timing change.
//
// Usage:
//
//	go run ./cmd/acbbench -out BENCH_cycleloop.json                            # refresh baseline
//	go run ./cmd/acbbench -compare BENCH_cycleloop.json -out measured.json     # CI gate
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"acb/internal/config"
	"acb/internal/experiments"
	"acb/internal/ooo"
	"acb/internal/stats"
	"acb/internal/workload"
)

// Snapshot is the serialized benchmark result set.
type Snapshot struct {
	GoVersion string         `json:"go_version"`
	GOARCH    string         `json:"goarch"`
	Budget    int64          `json:"budget"`
	RefScore  float64        `json:"ref_score"` // calibration loop iterations/sec
	Rows      []WorkloadRow  `json:"workloads"`
	Geomean   GeomeanSummary `json:"geomean"`
}

// WorkloadRow is one (workload, scheme) measurement.
type WorkloadRow struct {
	Name          string  `json:"name"`
	Scheme        string  `json:"scheme"`
	Cycles        int64   `json:"cycles"`
	Retired       int64   `json:"retired"`
	WallSec       float64 `json:"wall_sec"`
	CyclesPerSec  float64 `json:"cycles_per_sec"`
	Normalized    float64 `json:"normalized_cps"` // cycles_per_sec / ref_score
	InstrPerSec   float64 `json:"instr_per_sec"`  // retired / wall_sec
	NormalizedIPS float64 `json:"normalized_ips"` // instr_per_sec / ref_score
	Mallocs       uint64  `json:"mallocs"`
	AllocsPerKCyc float64 `json:"allocs_per_kcycle"`
}

// GeomeanSummary aggregates the gated quantities.
type GeomeanSummary struct {
	NormalizedCPS float64 `json:"normalized_cps"`
	// NormalizedIPS is the geomean of normalized_ips per scheme.
	NormalizedIPS map[string]float64 `json:"normalized_ips"`
	AllocsPerKCyc float64            `json:"allocs_per_kcycle"` // arithmetic mean (zeros are legal)
}

// schemes are the engines measured per workload.
var schemes = []string{"baseline", "acb"}

// throughputTolerance is the allowed fractional drop in each normalized
// geomean throughput before the gate fails.
const throughputTolerance = 0.10

// allocSlack is the allowed fractional growth in per-workload
// allocs/kcycle, plus an absolute floor so near-zero baselines don't trip
// on runtime jitter (a map rehash landing differently, etc.).
const (
	allocSlackFrac = 0.05
	allocSlackAbs  = 0.5 // allocs per kilocycle
)

func main() { os.Exit(run(os.Args[1:])) }

// run is acbbench with its arguments; it returns the exit status.
func run(args []string) int {
	fs := flag.NewFlagSet("acbbench", flag.ExitOnError)
	var (
		out     = fs.String("out", "BENCH_cycleloop.json", "write the measured snapshot here ('' to skip)")
		compare = fs.String("compare", "", "baseline snapshot to gate against (exit 1 on regression)")
		budget  = fs.Int64("budget", 400_000, "retired-instruction budget per simulation")
		repeat  = fs.Int("repeat", 3, "measurement repetitions; the fastest wall time wins")
	)
	fs.Parse(args)

	// Load the baseline before anything is written: -out may name the
	// same file.
	var base *Snapshot
	if *compare != "" {
		var err error
		if base, err = load(*compare); err != nil {
			fmt.Fprintf(os.Stderr, "acbbench: %v\n", err)
			return 2
		}
	}

	snap, err := measure(*budget, *repeat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "acbbench: %v\n", err)
		return 2
	}

	if *out != "" {
		buf, _ := json.MarshalIndent(snap, "", "  ")
		if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "acbbench: %v\n", err)
			return 2
		}
		fmt.Printf("wrote %s\n", *out)
	}

	fmt.Printf("ref_score %.3g/s   geomean normalized %.4g   allocs/kcycle %.3f\n",
		snap.RefScore, snap.Geomean.NormalizedCPS, snap.Geomean.AllocsPerKCyc)
	for _, sch := range schemes {
		fmt.Printf("  %-8s normalized instr/s geomean %.4g\n", sch, snap.Geomean.NormalizedIPS[sch])
	}

	if base != nil {
		if !gate(base, snap) {
			return 1
		}
		fmt.Println("perf gate: PASS")
	}
	return 0
}

// refScore times a fixed xorshift/sum loop — pure integer compute, no
// allocation — as a proxy for the host's single-thread speed.
func refScore() float64 {
	const iters = 1 << 26
	best := 0.0
	for r := 0; r < 3; r++ {
		x := uint64(0x9E3779B97F4A7C15)
		var sum uint64
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			sum += x
		}
		el := time.Since(t0).Seconds()
		if sum == 42 { // defeat dead-code elimination
			fmt.Fprintln(os.Stderr, "impossible")
		}
		if s := float64(iters) / el; s > best {
			best = s
		}
	}
	return best
}

// measure runs the Fig. 6 sweep (baseline and ACB engines per workload)
// and assembles a snapshot.
func measure(budget int64, repeat int) (*Snapshot, error) {
	snap := &Snapshot{
		GoVersion: runtime.Version(),
		GOARCH:    runtime.GOARCH,
		Budget:    budget,
		RefScore:  refScore(),
	}
	var normalized, allocs []float64
	ips := map[string][]float64{}
	for _, w := range workload.All() {
		for _, sch := range schemes {
			row, err := measureOne(&w, sch, budget, repeat)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", w.Name, sch, err)
			}
			row.Normalized = row.CyclesPerSec / snap.RefScore
			row.NormalizedIPS = row.InstrPerSec / snap.RefScore
			snap.Rows = append(snap.Rows, *row)
			normalized = append(normalized, row.Normalized)
			ips[sch] = append(ips[sch], row.NormalizedIPS)
			allocs = append(allocs, row.AllocsPerKCyc)
		}
	}
	snap.Geomean.NormalizedCPS = stats.Geomean(normalized)
	snap.Geomean.NormalizedIPS = map[string]float64{}
	for _, sch := range schemes {
		snap.Geomean.NormalizedIPS[sch] = stats.Geomean(ips[sch])
	}
	var sum float64
	for _, a := range allocs {
		sum += a
	}
	snap.Geomean.AllocsPerKCyc = sum / float64(len(allocs))
	return snap, nil
}

// measureOne times one (workload, scheme) simulation. Engines run bare
// (no observers), matching the throughput configuration the cycle loop is
// optimized for. Simulated cycles and allocation counts are deterministic
// across repetitions; wall time takes the fastest of `repeat` runs.
func measureOne(w *workload.Workload, sch string, budget int64, repeat int) (*WorkloadRow, error) {
	newPred, newScheme, err := experiments.SchemeFor(experiments.SchemeKind(sch), "tage", w)
	if err != nil {
		return nil, err
	}
	row := &WorkloadRow{Name: w.Name, Scheme: sch}
	for r := 0; r < repeat; r++ {
		p, m := w.Build()
		var scheme ooo.Scheme
		if newScheme != nil {
			scheme = newScheme()
		}
		c := ooo.NewWithMemory(config.Skylake(), p, newPred(), scheme, m)

		var msBefore, msAfter runtime.MemStats
		runtime.ReadMemStats(&msBefore)
		t0 := time.Now()
		res, err := c.Run(budget)
		wall := time.Since(t0).Seconds()
		runtime.ReadMemStats(&msAfter)
		if err != nil {
			return nil, err
		}

		mallocs := msAfter.Mallocs - msBefore.Mallocs
		if r == 0 || wall < row.WallSec {
			row.WallSec = wall
		}
		// Deterministic quantities: take them from the first rep, and use
		// the minimum malloc count thereafter (a concurrent GC cycle can
		// only add to the delta, never subtract).
		if r == 0 || mallocs < row.Mallocs {
			row.Mallocs = mallocs
		}
		row.Cycles = res.Cycles
		row.Retired = res.Retired
	}
	row.CyclesPerSec = float64(row.Cycles) / row.WallSec
	row.InstrPerSec = float64(row.Retired) / row.WallSec
	row.AllocsPerKCyc = float64(row.Mallocs) / float64(row.Cycles) * 1000
	return row, nil
}

func load(path string) (*Snapshot, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(buf, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// gate compares the fresh measurement against the committed baseline and
// reports whether it passes. Throughput is compared via hardware-normalized
// geomeans; simulated timing and allocations per kilocycle are compared per
// (workload, scheme) row.
func gate(base, cur *Snapshot) bool {
	ok := true
	if base.Budget != cur.Budget {
		fmt.Fprintf(os.Stderr, "perf gate: budget mismatch (baseline %d, current %d) — not comparable\n",
			base.Budget, cur.Budget)
		return false
	}

	ok = gateThroughput("cycles/sec", base.Geomean.NormalizedCPS, cur.Geomean.NormalizedCPS) && ok
	for _, sch := range schemes {
		ok = gateThroughput(sch+" instr/sec", base.Geomean.NormalizedIPS[sch], cur.Geomean.NormalizedIPS[sch]) && ok
	}

	baseRows := map[string]WorkloadRow{}
	for _, r := range base.Rows {
		baseRows[r.Name+"/"+r.Scheme] = r
	}
	keys := make([]string, 0, len(cur.Rows))
	curRows := map[string]WorkloadRow{}
	for _, r := range cur.Rows {
		k := r.Name + "/" + r.Scheme
		keys = append(keys, k)
		curRows[k] = r
	}
	sort.Strings(keys)
	timingOK := true
	for _, k := range keys {
		b, found := baseRows[k]
		if !found {
			continue // new workload: no baseline yet
		}
		c := curRows[k]
		if c.Cycles != b.Cycles || c.Retired != b.Retired {
			fmt.Fprintf(os.Stderr, "perf gate: FAIL %s simulated %d cycles / %d retired, baseline %d / %d\n",
				k, c.Cycles, c.Retired, b.Cycles, b.Retired)
			timingOK = false
		}
		limit := b.AllocsPerKCyc*(1+allocSlackFrac) + allocSlackAbs
		if c.AllocsPerKCyc > limit {
			fmt.Fprintf(os.Stderr, "perf gate: FAIL %s allocs/kcycle %.3f > %.3f (baseline %.3f)\n",
				k, c.AllocsPerKCyc, limit, b.AllocsPerKCyc)
			ok = false
		}
	}
	if timingOK {
		fmt.Printf("timing: all %d rows simulate the baseline's cycles and retired instructions\n", len(keys))
	}
	if ok {
		fmt.Printf("allocations: all %d rows within %.0f%%+%.1f of baseline\n",
			len(keys), allocSlackFrac*100, allocSlackAbs)
	}
	return ok && timingOK
}

// gateThroughput checks one normalized throughput geomean against its
// baseline, allowing a throughputTolerance drop. A baseline without the
// metric (zero) fails: the snapshot predates the gate and needs a refresh.
func gateThroughput(what string, base, cur float64) bool {
	floor := base * (1 - throughputTolerance)
	if base <= 0 || cur < floor {
		fmt.Fprintf(os.Stderr, "perf gate: FAIL normalized %s geomean %.4g < %.4g (baseline %.4g - %d%%)\n",
			what, cur, floor, base, int(throughputTolerance*100))
		return false
	}
	fmt.Printf("throughput: normalized %s geomean %.4g vs baseline %.4g (floor %.4g) ok\n",
		what, cur, base, floor)
	return true
}
