package ooo_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"acb/internal/bpu"
	"acb/internal/config"
	"acb/internal/core"
	"acb/internal/difftest"
	"acb/internal/isa"
	"acb/internal/ooo"
	"acb/internal/prog"
	"acb/internal/workload"
)

// tinyCore is a narrow, shallow configuration whose context ring has no
// spare slot: ROB 57 + fetch queue 2x3 + 1 is exactly the 64-slot ring,
// so any undercount in the ring's sizing overwrites a live context.
func tinyCore() config.Core {
	c := config.Skylake()
	c.Name = "tiny"
	c.FetchWidth, c.AllocWidth, c.IssueWidth, c.RetireWidth = 2, 2, 2, 2
	c.ROBSize, c.IQSize, c.LQSize, c.SQSize, c.PRFSize = 57, 24, 16, 12, 96
	c.FrontEndLatency = 3
	return c
}

// emptyHammocks returns a loop whose body is a load that misses in every
// cache followed by n conditional branches to the next instruction. A
// scheme predicating them opens one context per fetched instruction; the
// branches read a register that is always ready, so they issue at once
// and leave the issue queue, while the missing load holds retirement.
// Live contexts then fill the ROB and the fetch queue: the ring's worst
// case.
func emptyHammocks(n int, iters int64) ([]isa.Instruction, *isa.Memory) {
	b := prog.NewBuilder()
	b.MovI(isa.R1, iters)
	b.MovI(isa.R2, 0x100000)
	b.MovI(isa.R3, 0)
	b.Label("loop")
	b.MulI(isa.R4, isa.R3, 4096)
	b.Add(isa.R4, isa.R4, isa.R2)
	b.Load(isa.R5, isa.R4, 0)
	for i := 0; i < n; i++ {
		b.Brz(isa.R7, fmt.Sprintf("h%d", i))
		b.Label(fmt.Sprintf("h%d", i))
	}
	b.AddI(isa.R3, isa.R3, 1)
	b.Sub(isa.R6, isa.R3, isa.R1)
	b.Brnz(isa.R6, "loop")
	b.Halt()
	return b.MustBuild(), isa.NewMemory()
}

// emptyHammockScheme predicates every conditional branch whose target is
// the next instruction.
type emptyHammockScheme struct {
	prog  []isa.Instruction
	eager bool
}

func (s *emptyHammockScheme) Name() string { return "empty-hammocks" }
func (s *emptyHammockScheme) ShouldPredicate(pc int, _ bool, _ int, _ uint64) (ooo.PredSpec, bool) {
	if s.prog[pc].Target != pc+1 {
		return ooo.PredSpec{}, false
	}
	return ooo.PredSpec{ReconPC: pc + 1, MaxBody: 4, Eager: s.eager}, true
}
func (s *emptyHammockScheme) OnFetch(ooo.FetchEvent)           {}
func (s *emptyHammockScheme) OnFlush()                         {}
func (s *emptyHammockScheme) OnBranchResolve(ooo.ResolveEvent) {}
func (s *emptyHammockScheme) OnRetireTick(int64)               {}

// TestContextRingRecycling stresses the recycled predication contexts on
// the wrong-path-heavy suite rows under ACB, on the nested and sibling
// hammock seeds under every forced-predication engine (which open a
// context at every hammock instance, eager ones included) and the hot ACB
// engines, and on emptyHammocks, which keeps the ring nearly full on the
// tiny configuration. Each run steps cycle by cycle and checks the ring's
// invariants after every cycle (CtxRingChecker), then requires the same
// Result as a plain Run.
func TestContextRingRecycling(t *testing.T) {
	type job struct {
		name   string
		prog   []isa.Instruction
		mem    *isa.Memory
		scheme func() ooo.Scheme
		budget int64
	}
	budget := int64(30_000)
	if testing.Short() {
		budget = 8_000
	}
	var jobs []job
	for _, name := range []string{"leela", "premiere", "compression"} {
		w, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p, m := w.Build()
		jobs = append(jobs, job{name + "/acb", p, m, func() ooo.Scheme { return core.New(core.DefaultConfig()) }, budget})
	}
	for _, e := range difftest.SeedCorpus() {
		if e.Name != "nested-hammocks" && e.Name != "sibling-hammocks" {
			continue
		}
		asm, err := difftest.Assemble(e.Prog)
		if err != nil {
			t.Fatal(err)
		}
		for _, eng := range difftest.DefaultMatrix() {
			// The engines that predicate these short programs.
			if eng.Name == "baseline" || eng.Name == "acb" || eng.Name == "acb-dynamo" {
				continue
			}
			jobs = append(jobs, job{e.Name + "/" + eng.Name, asm.Insts, asm.Mem,
				func() ooo.Scheme { return eng.NewScheme(asm) }, asm.StepBound + 64})
		}
	}
	if len(jobs) < 3+2*6 {
		t.Fatalf("only %d jobs: seed corpus entries or matrix engines missing", len(jobs))
	}
	p, m := emptyHammocks(150, 40)
	for _, eager := range []bool{false, true} {
		jobs = append(jobs, job{fmt.Sprintf("empty-hammocks/eager=%v", eager), p, m,
			func() ooo.Scheme { return &emptyHammockScheme{prog: p, eager: eager} }, 1 << 20})
	}

	for _, cfg := range []config.Core{config.Skylake(), tinyCore()} {
		for _, j := range jobs {
			c := ooo.NewWithMemory(cfg, j.prog, bpu.NewTAGE(bpu.DefaultTAGEConfig()), j.scheme(), j.mem.Clone())
			var k ooo.CtxRingChecker
			halted := false
			for c.Retired() < j.budget && !halted {
				halted = c.StepCycle()
				if err := k.Check(c); err != nil {
					t.Fatalf("%s on %s, retired %d: %v", j.name, cfg.Name, c.Retired(), err)
				}
			}
			got := c.StepResult(halted)

			ref := ooo.NewWithMemory(cfg, j.prog, bpu.NewTAGE(bpu.DefaultTAGEConfig()), j.scheme(), j.mem.Clone())
			want, err := ref.Run(j.budget)
			if err != nil {
				t.Fatalf("%s on %s: %v", j.name, cfg.Name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s on %s: stepped run differs from Run:\n got %+v\nwant %+v", j.name, cfg.Name, got, want)
			}
			if got.Predications == 0 {
				t.Errorf("%s on %s: no predication context retired", j.name, cfg.Name)
			}
			if cfg.Name == "tiny" && strings.HasPrefix(j.name, "empty-hammocks") && k.MaxLive*4 < int64(c.CtxRingLen())*3 {
				t.Errorf("%s on %s: at most %d of %d ring slots live; the stress no longer fills the ring",
					j.name, cfg.Name, k.MaxLive, c.CtxRingLen())
			}
			t.Logf("%s on %s: %d predications, at most %d of %d ring slots live",
				j.name, cfg.Name, got.Predications, k.MaxLive, c.CtxRingLen())
		}
	}
}
