package core_test

import (
	"reflect"
	"testing"

	"acb/internal/bpu"
	"acb/internal/config"
	"acb/internal/core"
	"acb/internal/difftest"
	"acb/internal/isa"
	"acb/internal/ooo"
	"acb/internal/workload"
)

// plainScheme forwards only the ooo.Scheme methods, as a counting or
// tracing wrapper does, so the core drives the engine inside through its
// per-instruction adapter: OnRetireTick on every retirement and every
// believed-correct-path fetch event.
type plainScheme struct{ inner ooo.Scheme }

func (s plainScheme) Name() string { return s.inner.Name() }
func (s plainScheme) ShouldPredicate(pc int, predTaken bool, conf int, hist uint64) (ooo.PredSpec, bool) {
	return s.inner.ShouldPredicate(pc, predTaken, conf, hist)
}
func (s plainScheme) OnFetch(ev ooo.FetchEvent)           { s.inner.OnFetch(ev) }
func (s plainScheme) OnFlush()                            { s.inner.OnFlush() }
func (s plainScheme) OnBranchResolve(ev ooo.ResolveEvent) { s.inner.OnBranchResolve(ev) }
func (s plainScheme) OnRetireTick(cycle int64)            { s.inner.OnRetireTick(cycle) }

// boundaryConfig shortens ACB's criticality window and Dynamo's epochs
// and reset interval so a short run crosses many of each boundary.
func boundaryConfig(cfg core.Config) core.Config {
	cfg.WindowInstrs = 7_000
	cfg.Dynamo.EpochLen = 1_500
	cfg.Dynamo.ResetInterval = 40_000
	return cfg
}

// telemetry is the ACB and Dynamo state a report reads.
type telemetry struct {
	Learnings, TrackFails, Divergences      int64
	EpochPairs, GoodMoves, BadMoves, Resets int64
}

func telemetryOf(a *core.ACB) telemetry {
	d := a.Dynamo()
	return telemetry{a.Learnings, a.TrackFails, a.Divergences, d.EpochPairs, d.GoodMoves, d.BadMoves, d.Resets}
}

// boundaryCase is one program the exactness test runs.
type boundaryCase struct {
	name   string
	prog   []isa.Instruction
	mem    *isa.Memory
	cfg    core.Config
	budget int64
}

// boundaryCases returns wrong-path-heavy suite workloads under the paper
// configuration, and generated programs and the difftest seed corpus under
// the hot configuration (which learns within a few iterations, so their
// hammocks also fail tracking and diverge), all with boundaryConfig's
// short windows.
func boundaryCases(t *testing.T, budget int64) []boundaryCase {
	var cases []boundaryCase
	for _, name := range []string{"leela", "premiere", "compression", "xalancbmk", "omnetpp"} {
		w, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p, m := w.Build()
		cases = append(cases, boundaryCase{name, p, m, boundaryConfig(core.DefaultConfig()), budget})
	}
	// Two generated programs whose learned hammocks fail tracking, then
	// the seed corpus.
	progs := []*difftest.CorpusEntry{
		{Name: "gen-66", Prog: difftest.Generate(66, difftest.DefaultGenConfig())},
		{Name: "recon-284", Prog: difftest.Generate(284, difftest.ReconvergenceGenConfig())},
	}
	for _, e := range append(progs, difftest.SeedCorpus()...) {
		asm, err := difftest.Assemble(e.Prog)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		cases = append(cases, boundaryCase{e.Name, asm.Insts, asm.Mem, boundaryConfig(difftest.HotACBConfig()), asm.StepBound + 64})
	}
	return cases
}

// TestBoundaryHooksExact: ACB driven through its boundary-only hooks
// (OnRetire at window and epoch boundaries, fetch events only while the
// Learning or Tracking table is armed) simulates exactly what the same
// engine driven per instruction does. The Result, the telemetry and the
// whole engine state must match, at issue widths 8 and 2, with shortened
// windows and epochs so the runs cross Dynamo resets.
func TestBoundaryHooksExact(t *testing.T) {
	budget := int64(60_000)
	if testing.Short() {
		budget = 20_000
	}
	var sum telemetry
	for _, bc := range boundaryCases(t, budget) {
		for _, width := range []int{8, 2} {
			cfg := config.Skylake()
			cfg.IssueWidth = width
			run := func(wrap bool) (ooo.Result, *core.ACB) {
				a := core.New(bc.cfg)
				var sch ooo.Scheme = a
				if wrap {
					sch = plainScheme{a}
				}
				c := ooo.NewWithMemory(cfg, bc.prog, bpu.NewTAGE(bpu.DefaultTAGEConfig()), sch, bc.mem.Clone())
				res, err := c.Run(bc.budget)
				if err != nil {
					t.Fatalf("%s/width %d: %v", bc.name, width, err)
				}
				return res, a
			}
			fast, fa := run(false)
			slow, sa := run(true)
			if !reflect.DeepEqual(fast, slow) {
				t.Errorf("%s/width %d: boundary hooks changed the result:\n fast %+v\n tick %+v", bc.name, width, fast, slow)
			}
			ft, st := telemetryOf(fa), telemetryOf(sa)
			if ft != st {
				t.Errorf("%s/width %d: telemetry fast %+v, tick %+v", bc.name, width, ft, st)
			}
			if !reflect.DeepEqual(fa, sa) {
				t.Errorf("%s/width %d: engine state differs after the run", bc.name, width)
			}
			sum.Learnings += ft.Learnings
			sum.TrackFails += ft.TrackFails
			sum.Divergences += ft.Divergences
			sum.EpochPairs += ft.EpochPairs
			sum.GoodMoves += ft.GoodMoves
			sum.BadMoves += ft.BadMoves
			sum.Resets += ft.Resets
		}
	}
	// The comparison only means something if the runs exercised what the
	// fast path skips or batches.
	t.Logf("totals: %+v", sum)
	if sum.Learnings == 0 || sum.TrackFails == 0 || sum.Divergences == 0 ||
		sum.EpochPairs == 0 || sum.GoodMoves == 0 || sum.BadMoves == 0 || sum.Resets == 0 {
		t.Errorf("runs did not exercise every boundary: %+v", sum)
	}
}
