package difftest

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"acb/internal/bpu"
	"acb/internal/config"
	"acb/internal/core"
	"acb/internal/isa"
	"acb/internal/ooo"
)

// forcedScheme predicates exactly the generator-reported sites. Because
// the generator knows each hammock's branch PC, merge point and body bound
// statically, a forced engine exercises the dual-fetch machinery on every
// program — unlike the real ACB, whose learning pipeline needs dozens of
// mispredictions before it applies. Variants perturb the specs to reach
// the corner cases: eager select-µop mode, inverted fetch-first direction
// (perspective swap), and a bogus reconvergence PC that forces every
// instance down the divergence-flush recovery path.
type forcedScheme struct {
	name  string
	specs map[int]ooo.PredSpec
}

func (f *forcedScheme) Name() string { return f.name }

func (f *forcedScheme) ShouldPredicate(pc int, _ bool, _ int, _ uint64) (ooo.PredSpec, bool) {
	s, ok := f.specs[pc]
	return s, ok
}

func (f *forcedScheme) OnFetch(ooo.FetchEvent)           {}
func (f *forcedScheme) OnFlush()                         {}
func (f *forcedScheme) OnBranchResolve(ooo.ResolveEvent) {}
func (f *forcedScheme) OnRetireTick(int64)               {}
func (f *forcedScheme) OnRetire(int64, int64) int64      { return math.MaxInt64 }
func (f *forcedScheme) FetchQuiet() bool                 { return true }

// Engine is one column of the differential matrix: a scheme factory (nil
// result = plain speculation baseline) plus an optional fault injection
// for oracle self-tests.
type Engine struct {
	Name      string
	Mutation  ooo.Mutation
	NewScheme func(a *Assembled) ooo.Scheme
}

func baselineEngine() Engine {
	return Engine{Name: "baseline", NewScheme: func(*Assembled) ooo.Scheme { return nil }}
}

// forcedEngine builds an engine whose scheme predicates every recorded
// site after passing it through xform (return ok=false to drop a site).
func forcedEngine(name string, xform func(Site, *Assembled) (ooo.PredSpec, bool)) Engine {
	return Engine{Name: name, NewScheme: func(a *Assembled) ooo.Scheme {
		specs := make(map[int]ooo.PredSpec, len(a.Sites))
		for _, s := range a.Sites {
			if spec, ok := xform(s, a); ok {
				specs[s.BranchPC] = spec
			}
		}
		return &forcedScheme{name: name, specs: specs}
	}}
}

func siteSpec(s Site) ooo.PredSpec {
	return ooo.PredSpec{ReconPC: s.ReconPC, FirstTaken: s.FirstTaken, MaxBody: s.MaxBody}
}

// HotACBConfig returns the paper configuration with the application
// threshold dropped so the learning pipeline (Critical → Learning → ACB
// Table → confidence) starts predicating within fuzz-sized programs; with
// the paper's threshold of 32 a branch needs ~50 flush-causing
// mispredictions before its first dual-fetch, which a 20K-step program
// rarely reaches.
func HotACBConfig() core.Config {
	c := core.DefaultConfig()
	c.ApplyThreshold = 2
	c.UseDynamo = false
	return c
}

func acbEngine(name string, cfg core.Config) Engine {
	return Engine{Name: name, NewScheme: func(*Assembled) ooo.Scheme { return core.New(cfg) }}
}

// DefaultMatrix is the campaign's engine matrix: the speculation baseline,
// forced-predication engines covering the convergence types, the
// perspective swap, eager select-µop mode and forced divergence, and real
// ACB engines with the Dynamo and StallThrottle gates on and off.
func DefaultMatrix() []Engine {
	div := forcedEngine("forced-div", func(s Site, a *Assembled) (ooo.PredSpec, bool) {
		// Reconvergence at the halt instruction: unreachable within
		// MaxBody from any hammock body, so every instance diverges and
		// recovers through the divergence flush.
		return ooo.PredSpec{ReconPC: len(a.Insts) - 1, FirstTaken: s.FirstTaken, MaxBody: 6}, true
	})
	swap := forcedEngine("forced-swap", func(s Site, _ *Assembled) (ooo.PredSpec, bool) {
		spec := siteSpec(s)
		spec.FirstTaken = !spec.FirstTaken
		return spec, true
	})
	eager := forcedEngine("forced-eager", func(s Site, _ *Assembled) (ooo.PredSpec, bool) {
		spec := siteSpec(s)
		spec.Eager = true
		return spec, true
	})
	dynamo := HotACBConfig()
	dynamo.UseDynamo = true
	throttle := HotACBConfig()
	throttle.ThrottleStalls = true
	return []Engine{
		baselineEngine(),
		forcedEngine("forced", func(s Site, _ *Assembled) (ooo.PredSpec, bool) {
			return siteSpec(s), true
		}),
		eager,
		swap,
		div,
		acbEngine("acb-hot", HotACBConfig()),
		acbEngine("acb-dynamo", dynamo),
		acbEngine("acb-throttle", throttle),
		acbEngine("acb", core.DefaultConfig()),
	}
}

// MatrixByNames filters DefaultMatrix to the named engines (order
// preserved); unknown names are reported.
func MatrixByNames(names []string) ([]Engine, error) {
	all := DefaultMatrix()
	byName := make(map[string]Engine, len(all))
	for _, e := range all {
		byName[e.Name] = e
	}
	var out []Engine
	for _, n := range names {
		e, ok := byName[strings.TrimSpace(n)]
		if !ok {
			return nil, fmt.Errorf("difftest: unknown engine %q (have %s)", n, EngineNames())
		}
		out = append(out, e)
	}
	return out, nil
}

// EngineNames lists the default matrix's engine names.
func EngineNames() string {
	var names []string
	for _, e := range DefaultMatrix() {
		names = append(names, e.Name)
	}
	return strings.Join(names, ",")
}

// Options parameterizes one differential check.
type Options struct {
	Matrix     []Engine    // nil = DefaultMatrix()
	Invariants []Invariant // nil = DefaultInvariants(); empty slice = none
	CoreCfg    config.Core // zero = config.Skylake()
	TraceCap   int         // trace ring capacity (0 = DefaultTraceCap)
	// BudgetSlack is added to the functional step count to form each OOO
	// run's retire budget; an engine that has not halted by then fails.
	BudgetSlack int64
	// Timeout bounds each engine run's wall-clock time; a run that exceeds
	// it is reported as a FailRun failure instead of stalling the caller
	// (shrink loops check hundreds of candidates — one wedged engine must
	// not hang the campaign). Zero means no bound.
	Timeout time.Duration
	// Context cancels in-flight engine runs early (campaign shutdown).
	// nil means context.Background().
	Context context.Context
}

func (o *Options) fill() {
	if o.Matrix == nil {
		o.Matrix = DefaultMatrix()
	}
	if o.Invariants == nil {
		o.Invariants = DefaultInvariants()
	}
	if o.CoreCfg.ROBSize == 0 {
		o.CoreCfg = config.Skylake()
	}
	if o.BudgetSlack <= 0 {
		o.BudgetSlack = 64
	}
}

// Failure is one engine's deviation from the oracle: an architectural
// mismatch, an invariant violation, a stuck pipeline, or a panic out of
// the core's internal consistency checks.
type Failure struct {
	Engine string `json:"engine"`
	Kind   string `json:"kind"`
	Detail string `json:"detail"`
}

func (f Failure) String() string {
	return fmt.Sprintf("[%s] %s: %s", f.Engine, f.Kind, f.Detail)
}

// Failure kinds.
const (
	FailAssemble  = "assemble"  // program did not assemble
	FailNoHalt    = "nohalt"    // functional emulator did not halt in bound
	FailRun       = "run"       // OOO run error (deadlock) or budget exhausted
	FailPanic     = "panic"     // core internal consistency panic
	FailRetired   = "retired"   // retired-instruction count differs
	FailRegs      = "regs"      // final architectural registers differ
	FailMem       = "mem"       // final memory image differs
	FailInvariant = "invariant" // invariant pack violation
)

// Report is the outcome of one program's differential check.
type Report struct {
	Seed     uint64    `json:"seed"`
	Steps    int64     `json:"steps"` // functional instruction count
	Failures []Failure `json:"failures,omitempty"`

	// Aggregate machinery-exercise counters across all engines, used by
	// campaigns to prove the fuzzer reaches the paper's mechanisms.
	Predications   int64 `json:"predications"`
	DivFlushes     int64 `json:"div_flushes"`
	TransparentOps int64 `json:"transparent_ops"`
	SelectUops     int64 `json:"select_uops"`
	InvalidatedMem int64 `json:"invalidated_mem"`
}

// OK reports whether the check passed.
func (r *Report) OK() bool { return len(r.Failures) == 0 }

// Check runs one program through the functional emulator and every engine
// of the matrix, comparing final architectural state and enforcing the
// invariant pack. It never panics: internal core panics are captured as
// failures, which both protects long campaigns and lets the mutation
// self-test observe oracle-detected corruption.
func Check(p *Prog, opts Options) *Report {
	opts.fill()
	rep := &Report{Seed: p.Seed}

	asm, err := Assemble(p)
	if err != nil {
		rep.Failures = append(rep.Failures, Failure{Engine: "-", Kind: FailAssemble, Detail: err.Error()})
		return rep
	}

	// Ground truth: the functional emulator run to halt.
	refMem := asm.Mem.Clone()
	ref := isa.NewArchState(refMem)
	steps, halted := ref.Run(asm.Insts, asm.StepBound+16)
	rep.Steps = steps
	if !halted {
		rep.Failures = append(rep.Failures, Failure{
			Engine: "-", Kind: FailNoHalt,
			Detail: fmt.Sprintf("functional emulator ran %d steps without halting (bound %d)", steps, asm.StepBound),
		})
		return rep
	}

	for _, e := range opts.Matrix {
		fails, res := runEngine(e, asm, ref, refMem, steps, opts)
		rep.Failures = append(rep.Failures, fails...)
		rep.Predications += res.Predications
		rep.DivFlushes += res.DivFlushes
		rep.TransparentOps += res.TransparentOps
		rep.SelectUops += res.SelectUops
		rep.InvalidatedMem += res.InvalidatedMem
	}
	return rep
}

// runEngine executes one engine and compares it against the functional
// reference. Panics out of the core are converted into failures.
func runEngine(e Engine, asm *Assembled, ref *isa.ArchState, refMem *isa.Memory, steps int64, opts Options) (fails []Failure, res ooo.Result) {
	defer func() {
		if r := recover(); r != nil {
			fails = append(fails, Failure{
				Engine: e.Name, Kind: FailPanic, Detail: fmt.Sprint(r),
			})
		}
	}()

	scheme := e.NewScheme(asm)
	image := asm.Mem.Clone()
	c := ooo.NewWithMemory(opts.CoreCfg, asm.Insts, bpu.NewTAGE(bpu.DefaultTAGEConfig()), scheme, image)
	c.EnablePipeStats()
	c.EnableCPIStack()
	tr := c.EnableTrace(opts.TraceCap)
	if a, ok := scheme.(*core.ACB); ok {
		a.SetTrace(tr)
	}
	if e.Mutation != ooo.MutNone {
		c.InjectMutation(e.Mutation)
	}

	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Timeout)
		defer cancel()
	}
	budget := steps + opts.BudgetSlack
	res, err := c.RunContext(ctx, budget)
	if err != nil {
		fails = append(fails, Failure{Engine: e.Name, Kind: FailRun, Detail: err.Error()})
		return fails, res
	}
	if !res.Halted {
		fails = append(fails, Failure{
			Engine: e.Name, Kind: FailRun,
			Detail: fmt.Sprintf("not halted after retiring %d (functional steps %d, budget %d)", res.Retired, steps, budget),
		})
		return fails, res
	}

	// Architectural transparency: the predicated run must retire the exact
	// state of the functional run — same useful-instruction count, same
	// registers, byte-identical memory image.
	if res.Retired != steps {
		fails = append(fails, Failure{
			Engine: e.Name, Kind: FailRetired,
			Detail: fmt.Sprintf("retired %d useful instructions, functional emulator executed %d", res.Retired, steps),
		})
	}
	for i, v := range res.FinalRegs {
		if v != ref.Regs[i] {
			fails = append(fails, Failure{
				Engine: e.Name, Kind: FailRegs,
				Detail: fmt.Sprintf("r%d = %#x, functional emulator has %#x", i, v, ref.Regs[i]),
			})
			break
		}
	}
	if diffs := image.DiffWords(refMem, 3); len(diffs) > 0 {
		var d []string
		for _, w := range diffs {
			d = append(d, fmt.Sprintf("[%#x]=%#x want %#x", w.Addr, w.A, w.B))
		}
		fails = append(fails, Failure{
			Engine: e.Name, Kind: FailMem,
			Detail: "memory image differs: " + strings.Join(d, ", "),
		})
	}

	art := &Artifacts{
		Engine: e.Name,
		Cfg:    opts.CoreCfg,
		Res:    res,
		Pipe:   c.PipeStats(),
		Trace:  tr,
		Scheme: scheme,
		Steps:  steps,
		Budget: budget,
	}
	for _, inv := range opts.Invariants {
		if err := inv.Check(art); err != nil {
			fails = append(fails, Failure{
				Engine: e.Name, Kind: FailInvariant,
				Detail: fmt.Sprintf("%s: %v", inv.Name, err),
			})
		}
	}
	return fails, res
}
