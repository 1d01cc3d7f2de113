package ooo

import (
	"testing"

	"acb/internal/bpu"
	"acb/internal/config"
)

// TestCPIStackDisabledByDefault checks the attributor stays off — and the
// result carries no stack — unless explicitly enabled.
func TestCPIStackDisabledByDefault(t *testing.T) {
	p, m := buildLoopHammock(50)
	c := NewWithMemory(config.Skylake(), p, bpu.NewTAGE(bpu.DefaultTAGEConfig()), nil, m)
	if c.CPIStack() != nil {
		t.Fatal("CPIStack non-nil before EnableCPIStack")
	}
	res, err := c.Run(100_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.CPI != nil {
		t.Fatal("Result.CPI non-nil without EnableCPIStack")
	}
}

// TestCPIStackSumsToCycles is the invariant the whole design hangs on:
// exactly one bucket is charged per cycle, so the bucket totals sum to the
// run's elapsed cycles — exactly, not approximately.
func TestCPIStackSumsToCycles(t *testing.T) {
	p, m := buildLoopHammock(2000)
	c := NewWithMemory(config.Skylake(), p, bpu.NewTAGE(bpu.DefaultTAGEConfig()), nil, m)
	c.EnableCPIStack()
	res, err := c.Run(1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.CPI == nil {
		t.Fatal("Result.CPI nil after EnableCPIStack")
	}
	if res.CPI.Cycles != res.Cycles {
		t.Fatalf("CPI.Cycles = %d, want run cycles %d", res.CPI.Cycles, res.Cycles)
	}
	if got := res.CPI.Sum(); got != res.Cycles {
		t.Fatalf("bucket sum = %d, want %d\n%s", got, res.Cycles, res.CPI)
	}
	if res.CPI.Base == 0 {
		t.Fatal("no cycles attributed to base on a committing run")
	}
	if res.CPI.BadSpecFlush == 0 {
		t.Fatal("no bad-speculation cycles despite TAGE mispredicts on a data-dependent branch")
	}
	for i, v := range res.CPI.Buckets() {
		if v < 0 {
			t.Fatalf("bucket %s negative: %d", CPIBucketNames[i], v)
		}
	}
}

// TestCPIStackSumsToCyclesPredicated repeats the exact-sum invariant on a
// predicating run, where the ACB-specific buckets are live too.
func TestCPIStackSumsToCyclesPredicated(t *testing.T) {
	p, m := buildLoopHammock(2000)
	branchPC, reconPC := hammockPCs(t, p)
	c := NewWithMemory(config.Skylake(), p, bpu.NewTAGE(bpu.DefaultTAGEConfig()),
		&tracePredScheme{pc: branchPC, spec: PredSpec{ReconPC: reconPC, MaxBody: 56}}, m)
	c.EnableCPIStack()
	res, err := c.Run(1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.CPI.Sum(); got != res.Cycles {
		t.Fatalf("bucket sum = %d, want %d\n%s", got, res.Cycles, res.CPI)
	}
	t.Logf("predicated run:\n%s", res.CPI)
}

// TestCPIBucketNamesMatchBuckets pins the presentation-order contract every
// consumer (experiments table, metrics labels, stacked-bar legend) relies on.
func TestCPIBucketNamesMatchBuckets(t *testing.T) {
	p := &CPIStack{Base: 1, FrontendStarve: 2, BadSpecFlush: 3,
		BackendStall: 4, ACBBodyStall: 5, ACBDivergence: 6}
	b := p.Buckets()
	if len(b) != len(CPIBucketNames) {
		t.Fatalf("Buckets() len %d != CPIBucketNames len %d", len(b), len(CPIBucketNames))
	}
	want := []int64{1, 2, 3, 4, 5, 6}
	for i := range b {
		if b[i] != want[i] {
			t.Fatalf("Buckets()[%d] (%s) = %d, want %d", i, CPIBucketNames[i], b[i], want[i])
		}
	}
	if p.Sum() != 21 {
		t.Fatalf("Sum = %d, want 21", p.Sum())
	}
}

// TestCPIFlushWindow checks the flush-repair window semantics: empty-ROB
// cycles charge the flush cause until the first commit of an instruction
// allocated after the flush point; pre-flush survivors retiring do not
// close the window.
func TestCPIFlushWindow(t *testing.T) {
	p := &CPIStack{flushSeq: -1}
	p.noteFlush(flushMispredict, 10)
	p.noteCommit(5) // pre-flush survivor: window stays open
	if p.flushCause != flushMispredict {
		t.Fatal("pre-flush commit closed the repair window")
	}
	p.commits = 0 // simulate cycle boundary
	p.noteCommit(11)
	if p.flushCause != flushNone {
		t.Fatal("post-flush commit did not close the repair window")
	}

	p = &CPIStack{flushSeq: -1}
	p.noteFlush(flushDivergence, 3)
	if p.flushCause != flushDivergence {
		t.Fatal("divergence cause not recorded")
	}
}

// TestCPIAccountClassification drives cpiAccount directly against
// hand-built core states, one per bucket.
func TestCPIAccountClassification(t *testing.T) {
	newCore := func() *Core {
		p, m := buildLoopHammock(4)
		c := NewWithMemory(config.Skylake(), p, bpu.NewTAGE(bpu.DefaultTAGEConfig()), nil, m)
		c.EnableCPIStack()
		return c
	}

	// Commit cycle → base.
	c := newCore()
	c.cpi.commits = 2
	c.cpiAccount(1)
	if c.cpi.Base != 1 || c.cpi.commits != 0 {
		t.Fatalf("commit cycle: base=%d commits=%d", c.cpi.Base, c.cpi.commits)
	}

	// Empty ROB, no flush pending → frontend starve.
	c = newCore()
	c.cpiAccount(1)
	if c.cpi.FrontendStarve != 1 {
		t.Fatalf("empty-ROB cycle: frontend=%d", c.cpi.FrontendStarve)
	}

	// Empty ROB inside a mispredict-repair window → bad speculation.
	c = newCore()
	c.cpi.noteFlush(flushMispredict, 0)
	c.cpiAccount(1)
	if c.cpi.BadSpecFlush != 1 {
		t.Fatalf("mispredict-repair cycle: badspec=%d", c.cpi.BadSpecFlush)
	}

	// Empty ROB inside a divergence-repair window → ACB divergence.
	c = newCore()
	c.cpi.noteFlush(flushDivergence, 0)
	c.cpiAccount(1)
	if c.cpi.ACBDivergence != 1 {
		t.Fatalf("divergence-repair cycle: acb-divergence=%d", c.cpi.ACBDivergence)
	}

	// Predicated branch at head, context still open → ACB body stall.
	c = newCore()
	e := c.rob.alloc()
	e.role = RolePredBranch
	e.ctx = &ctxState{}
	c.cpiAccount(1)
	if c.cpi.ACBBodyStall != 1 {
		t.Fatalf("open-context head cycle: acb-body=%d", c.cpi.ACBBodyStall)
	}

	// Body instruction at head awaiting its branch → ACB body stall.
	c = newCore()
	e = c.rob.alloc()
	e.role = RoleBody
	e.ctx = &ctxState{}
	c.cpiAccount(1)
	if c.cpi.ACBBodyStall != 1 {
		t.Fatalf("gated-body head cycle: acb-body=%d", c.cpi.ACBBodyStall)
	}

	// Same head with the context closed and branch done → generic backend.
	c = newCore()
	e = c.rob.alloc()
	e.role = RolePredBranch
	e.ctx = &ctxState{closed: true, branchDone: true}
	c.cpiAccount(1)
	if c.cpi.BackendStall != 1 {
		t.Fatalf("closed-context head cycle: backend=%d", c.cpi.BackendStall)
	}

	// Eager-mode contexts never stall the head on ACB's account.
	c = newCore()
	e = c.rob.alloc()
	e.role = RolePredBranch
	e.ctx = &ctxState{spec: PredSpec{Eager: true}}
	c.cpiAccount(1)
	if c.cpi.BackendStall != 1 || c.cpi.ACBBodyStall != 0 {
		t.Fatalf("eager head cycle: backend=%d acb-body=%d", c.cpi.BackendStall, c.cpi.ACBBodyStall)
	}
}
