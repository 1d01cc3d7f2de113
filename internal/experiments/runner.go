// Package experiments regenerates every table and figure of the paper's
// evaluation (Sec. V) on the synthetic workload suite: one exported
// function per experiment, each returning a stats.Table whose rows are the
// data series the corresponding paper figure plots. EXPERIMENTS.md records
// the paper-vs-measured comparison for each.
//
// Every (workload, scheme) simulation is independent and
// seed-deterministic, so the harness fans them out over a bounded worker
// pool (Options.Jobs); results are aggregated by job index, which makes
// the emitted tables byte-identical whatever the job count.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"acb/internal/bpu"
	"acb/internal/config"
	"acb/internal/core"
	"acb/internal/dmp"
	"acb/internal/ooo"
	"acb/internal/stats"
	"acb/internal/workload"
)

// Options controls an experiment run.
type Options struct {
	// Budget is the retired-instruction budget per simulation.
	Budget int64
	// Workloads defaults to the full suite.
	Workloads []workload.Workload
	// Config defaults to the Skylake-like baseline.
	Config config.Core
	// Jobs bounds how many simulations run concurrently. 0 means
	// runtime.GOMAXPROCS(0); 1 reproduces the serial runner exactly.
	Jobs int
	// Verbose emits per-run progress and a per-pool runner summary
	// through Logf.
	Verbose bool
	Logf    func(format string, args ...interface{})
	// Stats, when non-nil, accumulates runner totals across every pool
	// executed with these Options (acbsweep prints it after an -all run).
	Stats *RunnerStats
	// CPIStats, when non-nil, enables per-cycle CPI-stack attribution on
	// every simulation run with these Options (see ooo.CPIStack; results
	// carry it in ooo.Result.CPI) and accumulates the per-scheme bucket
	// totals; the acbd service exposes them on /v1/metrics.
	CPIStats *CPIAccumulator
	// Context, when non-nil, cancels the run cooperatively: queued
	// simulations are skipped and in-flight ones stop mid-run (see
	// ooo.Core.RunContext). Callers must go through Run to observe the
	// cancellation as an error; direct experiment calls panic instead.
	Context context.Context
}

// DefaultOptions returns the budget and configuration used by the bench
// harness.
func DefaultOptions() Options {
	return Options{
		Budget: 400_000,
		Config: config.Skylake(),
	}
}

func (o *Options) fill() {
	if o.Budget == 0 {
		o.Budget = 400_000
	}
	if len(o.Workloads) == 0 {
		o.Workloads = workload.All()
	}
	if o.Config.Name == "" {
		o.Config = config.Skylake()
	}
	if o.Jobs <= 0 {
		o.Jobs = runtime.GOMAXPROCS(0)
	}
	if o.Logf == nil {
		o.Logf = func(string, ...interface{}) {}
	}
	if o.Context == nil {
		o.Context = context.Background()
	}
	// Serialise the sink: parallel jobs emit whole lines, never
	// interleaved mid-line.
	logf := o.Logf
	var mu sync.Mutex
	o.Logf = func(format string, args ...interface{}) {
		mu.Lock()
		defer mu.Unlock()
		logf(format, args...)
	}
}

// RunnerStats accumulates pool totals: jobs run, wall-clock time, the
// cumulative single-threaded simulation time (whose ratio to wall time is
// the effective parallel speedup), and total simulated cycles — the
// numerator of the harness's own cycles-per-second throughput metric.
type RunnerStats struct {
	mu     sync.Mutex
	jobs   int64
	wall   time.Duration
	sim    time.Duration
	cycles int64
}

func (s *RunnerStats) add(jobs int, wall, sim time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jobs += int64(jobs)
	s.wall += wall
	s.sim += sim
}

// AddCycles credits simulated cycles to the pool totals (called once per
// completed simulation).
func (s *RunnerStats) AddCycles(n int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cycles += n
}

// Cycles returns the total simulated cycles across pools.
func (s *RunnerStats) Cycles() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cycles
}

// Jobs returns the total number of simulations dispatched.
func (s *RunnerStats) Jobs() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs
}

// Wall returns the cumulative wall-clock time across pools.
func (s *RunnerStats) Wall() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wall
}

// Sim returns the cumulative single-threaded simulation time.
func (s *RunnerStats) Sim() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sim
}

// Speedup returns cumulative simulation time / wall time (1.0 for a
// serial run, approaching the worker count under ideal scaling). The
// second return is false when no wall time has accumulated yet — i.e.
// there is no measurement, as opposed to a measured 0x.
func (s *RunnerStats) Speedup() (float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wall <= 0 {
		return 0, false
	}
	return float64(s.sim) / float64(s.wall), true
}

func (s *RunnerStats) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	sp := "n/a (no runs)"
	if s.wall > 0 {
		sp = fmt.Sprintf("%.2fx", float64(s.sim)/float64(s.wall))
	}
	return fmt.Sprintf("%d jobs, wall %s, sim %s, effective speedup %s",
		s.jobs, s.wall.Round(time.Millisecond), s.sim.Round(time.Millisecond), sp)
}

// poolError carries the first job failure out of a pool. It wraps the
// underlying error (rather than flattening it to a string) so callers —
// experiments.Run in particular — can errors.Is it against
// context.Canceled / DeadlineExceeded after recovering the re-panic.
type poolError struct {
	job int
	err error
}

func (e *poolError) Error() string { return fmt.Sprintf("experiments: job %d: %v", e.job, e.err) }
func (e *poolError) Unwrap() error { return e.err }

// runPool executes jobs 0..n-1 with at most opts.Jobs running at once.
// Each job writes into its own pre-allocated result slot, so aggregation
// order — and therefore every emitted table — is independent of
// scheduling. A panic in any job is re-raised on the caller's goroutine
// after the pool drains (as a *poolError when the job panicked with an
// error). When opts.Context is cancelled, not-yet-started jobs are
// skipped, leaving their result slots zero — callers must treat a
// cancelled context as poisoning the whole pool's output.
func runPool(opts *Options, n int, run func(i int)) {
	if n == 0 {
		return
	}
	workers := opts.Jobs
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}

	start := time.Now()
	var sim atomic.Int64
	var panicked atomic.Pointer[poolError]
	timed := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				err, ok := r.(error)
				if !ok {
					err = fmt.Errorf("%v", r)
				}
				panicked.CompareAndSwap(nil, &poolError{job: i, err: err})
			}
		}()
		t0 := time.Now()
		run(i)
		sim.Add(int64(time.Since(t0)))
	}

	if workers == 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				break
			}
			timed(i)
		}
	} else {
		var wg sync.WaitGroup
		var next atomic.Int64
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n || ctx.Err() != nil {
						return
					}
					timed(i)
				}
			}()
		}
		wg.Wait()
	}

	wall := time.Since(start)
	simTotal := time.Duration(sim.Load())
	if opts.Stats != nil {
		opts.Stats.add(n, wall, simTotal)
	}
	if opts.Verbose {
		sp := 0.0
		if wall > 0 {
			sp = float64(simTotal) / float64(wall)
		}
		opts.Logf("runner: %d jobs on %d workers: wall %s, sim %s, %.2fx effective speedup",
			n, workers, wall.Round(time.Millisecond), simTotal.Round(time.Millisecond), sp)
	}
	if p := panicked.Load(); p != nil {
		panic(error(p))
	}
}

// Pool executes jobs 0..n-1 on the bounded worker pool described by opts
// (Options.Jobs workers, Options.Context cancellation) and returns the
// first job failure, if any, instead of panicking. It exists for callers
// outside this package — cmd/acbfuzz's differential campaigns in
// particular — that want the same race-safe, deterministic fan-out the
// experiment sweeps use: each job writes only its own state, so results
// are independent of scheduling. A cancelled context is reported as an
// error wrapping ctx.Err() even when no job observed it, since skipped
// jobs leave their outputs unfilled.
func Pool(opts Options, n int, run func(i int)) (err error) {
	opts.fill()
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(error); ok {
				err = e
				return
			}
			err = fmt.Errorf("experiments: pool job panicked: %v", r)
		}
	}()
	runPool(&opts, n, run)
	if cerr := opts.Context.Err(); cerr != nil {
		return fmt.Errorf("experiments: pool cancelled: %w", cerr)
	}
	return nil
}

// SchemeKind names the simulation variants.
type SchemeKind string

// Variants.
const (
	SchemeBaseline    SchemeKind = "baseline"
	SchemePerfectBP   SchemeKind = "perfect-bp"
	SchemeACB         SchemeKind = "acb"
	SchemeACBNoDynamo SchemeKind = "acb-nodynamo"
	SchemeACBEager    SchemeKind = "acb-eager"
	SchemeDMP         SchemeKind = "dmp"
	SchemeDMPPBH      SchemeKind = "dmp-pbh"
	SchemeDHP         SchemeKind = "dhp"
)

// profileCache caches DMP profiling results per workload (the compiler
// pass runs once per binary, not once per simulation). It is
// concurrency-safe with per-workload single-flight semantics: when
// several schemes of the same workload are in flight at once, exactly one
// runs dmp.Profile and the rest block on its entry.
type profileCache struct {
	mu   sync.Mutex
	m    map[string]*profileEntry
	runs atomic.Int64 // dmp.Profile executions, observable by tests
}

type profileEntry struct {
	once sync.Once
	c    []dmp.Candidate
}

func newProfileCache() *profileCache { return &profileCache{m: make(map[string]*profileEntry)} }

// get returns w's DMP candidates.
func (pc *profileCache) get(w *workload.Workload) []dmp.Candidate {
	pc.mu.Lock()
	e, ok := pc.m[w.Name]
	if !ok {
		e = &profileEntry{}
		pc.m[w.Name] = e
	}
	pc.mu.Unlock()
	e.once.Do(func() {
		pc.runs.Add(1)
		e.c = profileTrain(w)
	})
	return e.c
}

// profileTrain runs the DMP compiler pass on w's *training* input (the
// paper's Sec. II-B/V-C point about input mismatch); the simulation then
// runs the actual input.
func profileTrain(w *workload.Workload) []dmp.Candidate {
	tp, tm := w.BuildTrain()
	return dmp.Profile(tp, tm, dmp.DefaultProfileConfig())
}

// predictors are the baseline branch predictors by name, at the sizes
// SensitivityPredictor compares; every other experiment runs tage.
var predictors = map[string]func() bpu.Predictor{
	"bimodal":    func() bpu.Predictor { return bpu.NewBimodal(14) },
	"gshare":     func() bpu.Predictor { return bpu.NewGShare(14, 16) },
	"perceptron": func() bpu.Predictor { return bpu.NewPerceptron(10, 32) },
	"tage":       func() bpu.Predictor { return bpu.NewTAGE(bpu.DefaultTAGEConfig()) },
}

// SchemeFor returns constructors for the branch predictor and the
// predication scheme of variant kind on workload w — the switch every
// experiment simulates through, exported so that single-run tools build
// exactly what a sweep runs. predictor names a baseline predictor
// (bimodal, gshare, perceptron or tage); the perfect-bp variant ignores
// it. newScheme is nil for the variants without a scheme, and the DMP
// variants profile w's training input before SchemeFor returns.
func SchemeFor(kind SchemeKind, predictor string, w *workload.Workload) (newPred func() bpu.Predictor, newScheme func() ooo.Scheme, err error) {
	return schemeFor(kind, predictor, w, newProfileCache())
}

func schemeFor(kind SchemeKind, predictor string, w *workload.Workload, cache *profileCache) (func() bpu.Predictor, func() ooo.Scheme, error) {
	newPred, ok := predictors[predictor]
	if !ok {
		return nil, nil, fmt.Errorf("experiments: unknown predictor %q", predictor)
	}
	acb := func(tune func(*core.Config)) func() ooo.Scheme {
		return func() ooo.Scheme {
			cfg := core.DefaultConfig()
			tune(&cfg)
			return core.New(cfg)
		}
	}
	dmpScheme := func(mode dmp.Mode, pbh bool) func() ooo.Scheme {
		cfg := dmp.DefaultConfig(mode)
		cfg.PerfectBranchHistory = pbh
		cands := cache.get(w)
		return func() ooo.Scheme { return dmp.New(cfg, cands) }
	}
	switch kind {
	case SchemeBaseline:
		return newPred, nil, nil
	case SchemePerfectBP:
		return func() bpu.Predictor { return bpu.NewOracle() }, nil, nil
	case SchemeACB:
		return newPred, acb(func(*core.Config) {}), nil
	case SchemeACBNoDynamo:
		return newPred, acb(func(c *core.Config) { c.UseDynamo = false }), nil
	case SchemeACBEager:
		return newPred, acb(func(c *core.Config) { c.Eager = true }), nil
	case SchemeDMP:
		return newPred, dmpScheme(dmp.ModeDMP, false), nil
	case SchemeDMPPBH:
		return newPred, dmpScheme(dmp.ModeDMP, true), nil
	case SchemeDHP:
		return newPred, dmpScheme(dmp.ModeDHP, false), nil
	}
	return nil, nil, fmt.Errorf("experiments: unknown scheme %q", kind)
}

// runOne simulates one workload under one scheme variant.
func runOne(opts *Options, cache *profileCache, w *workload.Workload, kind SchemeKind) ooo.Result {
	p, m := w.Build()
	newPred, newScheme, err := schemeFor(kind, "tage", w, cache)
	if err != nil {
		panic(err)
	}
	var scheme ooo.Scheme
	if newScheme != nil {
		scheme = newScheme()
	}
	return simulate(opts, ooo.NewWithMemory(opts.Config, p, newPred(), scheme, m), w.Name, string(kind))
}

// simulate runs one built core under opts: the build-run-check path
// every experiment's simulations share. The run honours opts.Context,
// feeds the CPI stack and cycle totals to opts.CPIStats and opts.Stats,
// and logs one line labelled name and kind.
func simulate(opts *Options, c *ooo.Core, name, kind string) ooo.Result {
	if opts.CPIStats != nil {
		c.EnableCPIStack()
	}
	res, err := c.RunContext(opts.Context, opts.Budget)
	if err != nil {
		// Panic with the wrapped error (not a flattened string): runPool
		// re-raises it and experiments.Run recovers it, so a context
		// cancellation stays errors.Is-able all the way up.
		panic(fmt.Errorf("experiments: %s/%s: %w", name, kind, err))
	}
	if opts.CPIStats != nil {
		opts.CPIStats.Add(res.Scheme, res.CPI)
	}
	if opts.Stats != nil {
		opts.Stats.AddCycles(res.Cycles)
	}
	opts.Logf("%-12s %-12s IPC=%.3f flushes/k=%.2f", name, kind, res.IPC, res.FlushPerKilo())
	return res
}

// sweep runs every workload under each scheme variant on the worker pool
// and returns per-workload results keyed by scheme.
func sweep(opts Options, kinds ...SchemeKind) map[string]map[SchemeKind]ooo.Result {
	opts.fill()
	cache := newProfileCache()
	nk := len(kinds)
	results := make([]ooo.Result, len(opts.Workloads)*nk)
	runPool(&opts, len(results), func(i int) {
		results[i] = runOne(&opts, cache, &opts.Workloads[i/nk], kinds[i%nk])
	})
	out := make(map[string]map[SchemeKind]ooo.Result, len(opts.Workloads))
	for wi := range opts.Workloads {
		res := make(map[SchemeKind]ooo.Result, nk)
		for ki, k := range kinds {
			res[k] = results[wi*nk+ki]
		}
		out[opts.Workloads[wi].Name] = res
	}
	return out
}

// speedup returns b.IPC / a.IPC.
func speedup(a, b ooo.Result) float64 { return stats.Ratio(b.IPC, a.IPC) }

// geomeanSpeedup aggregates over workloads. It iterates in sorted name
// order so the floating-point accumulation — and with it the printed
// geomean — is deterministic across runs and job counts.
func geomeanSpeedup(results map[string]map[SchemeKind]ooo.Result, base, other SchemeKind) float64 {
	names := make([]string, 0, len(results))
	for n := range results {
		names = append(names, n)
	}
	sort.Strings(names)
	xs := make([]float64, 0, len(names))
	for _, n := range names {
		r := results[n]
		xs = append(xs, speedup(r[base], r[other]))
	}
	return stats.Geomean(xs)
}
