package ooo

import (
	"testing"

	"acb/internal/bpu"
	"acb/internal/config"
	"acb/internal/isa"
	"acb/internal/prog"
)

// wakeupProgram is a loop with one IF-ELSE hammock whose condition (the
// low bit of the counter) resolves within a few cycles, while the value
// both paths update, r7, comes from a load that misses the L1. So after
// the branch resolves, true-path bodies wait on the load's register and
// false-path transparency moves wait on their previous mapping; the
// select an eager context injects for r7 waits on its chosen source.
// With slowCond the condition tests the loaded value instead, so bodies
// stay gated across the miss while the machine idles.
func wakeupProgram(iters int64, slowCond bool) []isa.Instruction {
	b := prog.NewBuilder()
	b.MovI(isa.R1, iters)
	b.MovI(isa.R2, 0x100000)
	b.MovI(isa.R3, 0)
	b.Label("loop")
	b.AndI(isa.R4, isa.R3, 4095)
	b.MulI(isa.R4, isa.R4, 520)
	b.Add(isa.R5, isa.R2, isa.R4)
	b.Load(isa.R7, isa.R5, 0)
	if slowCond {
		b.AndI(isa.R6, isa.R7, 1)
	} else {
		b.AndI(isa.R6, isa.R3, 1)
	}
	b.Brz(isa.R6, "else")
	b.AddI(isa.R7, isa.R7, 3)
	b.XorI(isa.R9, isa.R7, 5)
	b.Store(isa.R5, 8, isa.R7)
	b.Jmp("end")
	b.Label("else")
	b.AddI(isa.R7, isa.R7, 7)
	b.Load(isa.R9, isa.R5, 16)
	b.Label("end")
	b.Add(isa.R8, isa.R8, isa.R7)
	b.AddI(isa.R3, isa.R3, 1)
	b.Sub(isa.R10, isa.R3, isa.R1)
	b.Brnz(isa.R10, "loop")
	b.Halt()
	return b.MustBuild()
}

// wakeupConfig narrows the front end so a context's dual-path walk
// outlasts the predicated branch's trip to the issue queue (the branch
// then parks awaiting close), and widens the issue stage far enough that
// no width or port limit ever cuts the scan off: every woken entry is
// tried the cycle it wakes.
func wakeupConfig() config.Core {
	cfg := config.Skylake()
	cfg.FetchWidth = 2
	cfg.FrontEndLatency = 1
	cfg.IssueWidth = 64
	return cfg
}

// parkedObs is one issue-queue entry seen parked at the start of a cycle.
// reg is the register it waits on, or -1 when it waits on a context event
// (wait).
type parkedObs struct {
	ref  entryRef
	wait waitKind
	reg  int
}

// onList reports whether slot is linked into the waiter list at head.
func (c *Core) onList(head, slot int32) bool {
	for s := head; s != 0; s = c.waits.next[s-1] {
		if s-1 == slot {
			return true
		}
	}
	return false
}

// isRunnable reports whether e's bit is set in the runnable bitmap.
func (c *Core) isRunnable(e *robEntry) bool {
	slot := e.seq & c.rob.mask
	return c.runnable[slot>>6]&(1<<(slot&63)) != 0
}

// Wakeup episode kinds: an entry parked on one reason that issued in the
// first issue stage after the reason cleared.
const (
	epBodyReg      = "body-register"
	epFalseMove    = "false-path-move"
	epSelect       = "select"
	epBranchClose  = "branch-close"
	epBranchDiverg = "branch-diverge"
	epOther        = "other"
)

// classify names the episode an entry parked on wait (or register reg)
// belongs to.
func classify(e *robEntry, wait waitKind, reg int) string {
	switch {
	case wait == waitClose && e.ctx.diverged:
		return epBranchDiverg
	case wait == waitClose:
		return epBranchClose
	case reg < 0:
		return epOther
	case e.role == RoleSelect:
		return epSelect
	case e.role == RoleBody && !e.ctx.spec.Eager && e.ctx.branchDone &&
		e.pathTaken != e.ctx.branchTaken && reg == e.prevPhys:
		return epFalseMove
	case e.role == RoleBody && !e.ctx.spec.Eager:
		return epBodyReg
	}
	return epOther
}

// observeWakeups steps c cycle by cycle and checks the wakeup contract for
// every parked entry: it is never left parked on a reason that already
// cleared, it is not issued while its reason holds, and in the first issue
// stage after the reason clears it issues, parks on a new reason, or (a
// load behind an older store) stays runnable. Registers complete and
// branches resolve before the issue stage of their cycle; contexts close
// at fetch, after it, so a branch woken by a close is checked in the next
// cycle. It returns, per episode kind, how many parked entries issued
// exactly then.
func observeWakeups(t *testing.T, c *Core, maxCycles int) map[string]int {
	t.Helper()
	issuedAt := map[string]int{}
	var closedNow, closedPrev []entryRef
	for i := 0; i < maxCycles; i++ {
		closedPrev, closedNow = closedNow, closedPrev[:0]
		var obs []parkedObs
		for s := c.rob.headSeq; s < c.rob.nextSeq; s++ {
			e := c.rob.at(s)
			if e == nil || !e.inIQ || c.isRunnable(e) {
				continue
			}
			o := parkedObs{ref: refOf(e), wait: e.wait, reg: -1}
			slot := c.rob.slot(e)
			switch e.wait {
			case waitNone:
				p := int(c.regOf[slot]) - 1
				if p < 0 || !c.onList(c.regHead[p], slot) {
					t.Fatalf("cycle %d: seq %d parked on no reason", c.cycle, s)
				}
				if c.prf[p].ready {
					t.Fatalf("cycle %d: seq %d still parked on ready register %d", c.cycle, s, p)
				}
				o.reg = p
			case waitResolve:
				if listed := c.onList(e.ctx.waitHead, slot); !listed || e.ctx.branchDone {
					t.Fatalf("cycle %d: seq %d parked on resolution (listed=%v, resolved=%v)",
						c.cycle, s, listed, e.ctx.branchDone)
				}
			case waitClose:
				if e.ctx.closed {
					t.Fatalf("cycle %d: seq %d still parked on a closed context", c.cycle, s)
				}
			}
			obs = append(obs, o)
		}

		c.cycle++
		if c.stepCycle() {
			break
		}

		for _, ref := range closedPrev {
			e := c.rob.deref(ref)
			switch {
			case e == nil:
			case e.issued:
				issuedAt[classify(e, waitClose, -1)]++
			case c.isRunnable(e):
				t.Fatalf("cycle %d: branch seq %d woke at close but neither issued nor parked again",
					c.cycle, ref.seq)
			}
		}
		for _, o := range obs {
			e := c.rob.deref(o.ref)
			if e == nil {
				continue // squashed this cycle
			}
			var cleared bool
			switch {
			case o.reg >= 0:
				cleared = c.prf[o.reg].ready
			case o.wait == waitResolve:
				cleared = e.ctx.branchDone
			}
			switch {
			case o.wait == waitClose && e.ctx.closed:
				if e.issued || !c.isRunnable(e) {
					t.Fatalf("cycle %d: seq %d closed this cycle but issued=%v wait=%d",
						c.cycle, o.ref.seq, e.issued, e.wait)
				}
				closedNow = append(closedNow, o.ref)
			case !cleared:
				if e.issued || c.isRunnable(e) || e.wait != o.wait {
					t.Fatalf("cycle %d: seq %d left wait %d/r%d before its reason cleared (issued=%v wait=%d)",
						c.cycle, o.ref.seq, o.wait, o.reg, e.issued, e.wait)
				}
			case e.issued:
				issuedAt[classify(e, o.wait, o.reg)]++
			case c.isRunnable(e) && !e.isLoad:
				t.Fatalf("cycle %d: seq %d (role %d) woke but neither issued nor parked again",
					c.cycle, o.ref.seq, e.role)
			}
		}
	}
	return issuedAt
}

// forwardHammocks predicates every forward conditional branch at its
// CFG reconvergence point.
func forwardHammocks(p []isa.Instruction, spec PredSpec) *everyBranchScheme {
	g := prog.NewCFG(p)
	return &everyBranchScheme{spec: spec, recon: func(pc int) (int, bool) {
		if p[pc].Op == isa.Br && p[pc].Target > pc {
			if r := g.Reconvergence(pc); r >= 0 {
				return r, true
			}
		}
		return 0, false
	}}
}

// TestWakeupOnEachReason runs the wakeup contract once per wait reason,
// each under the predication discipline that produces it, and requires
// parked entries of that kind to issue the cycle their reason clears.
func TestWakeupOnEachReason(t *testing.T) {
	stall := PredSpec{MaxBody: 16}
	eager := PredSpec{MaxBody: 16, Eager: true}
	// The first path fetched (fall-through) is 4 instructions: every
	// instance diverges, after the predicated branch has parked.
	diverge := PredSpec{MaxBody: 3}
	for _, tc := range []struct {
		episode string
		spec    PredSpec
	}{
		{epBodyReg, stall},
		{epFalseMove, stall},
		{epBranchClose, stall},
		{epSelect, eager},
		{epBranchDiverg, diverge},
	} {
		t.Run(tc.episode, func(t *testing.T) {
			p := wakeupProgram(400, false)
			c := NewWithMemory(wakeupConfig(), p, bpu.NewTAGE(bpu.DefaultTAGEConfig()), forwardHammocks(p, tc.spec), isa.NewMemory())
			got := observeWakeups(t, c, 60_000)
			t.Logf("parked entries issued at wakeup: %v", got)
			if got[tc.episode] < 20 {
				t.Fatalf("%d %s episodes issued at wakeup, want >= 20 (all: %v)", got[tc.episode], tc.episode, got)
			}
		})
	}
}

// TestSquashedParkedEntryNeverIssues: a flush squashes entries parked on a
// register and on their context's resolution. The squashed entries leave
// the issue queue, its counts and their waiter lists at once, so
// completing the register neither issues them nor wakes the entry that
// reuses their slot.
func TestSquashedParkedEntryNeverIssues(t *testing.T) {
	add := isa.Instruction{Op: isa.Add, Rd: isa.R1, Rs1: isa.R2, Rs2: isa.R3}
	br := isa.Instruction{Op: isa.Br, Cond: isa.EQZ, Rs1: isa.R4, Target: 0}
	p := []isa.Instruction{add, {Op: isa.Halt}}
	c := NewWithMemory(config.Skylake(), p, bpu.NewTAGE(bpu.DefaultTAGEConfig()), nil, isa.NewMemory())
	ctx := &ctxState{spec: PredSpec{MaxBody: 8}, branchSeq: -1}
	c.liveCtxs = append(c.liveCtxs, ctx)

	unready := func() int {
		r := c.popFree()
		c.prf[r] = prfEntry{}
		return r
	}
	consumer := func(src int) *robEntry {
		e := c.rob.alloc()
		e.inst = &add
		e.src[0], e.src[1], e.nsrc = src, 0, 2
		e.dest = c.popFree()
		c.enqueueIQ(e)
		return e
	}

	b := c.rob.alloc() // the flush point
	b.inst = &br
	b.hasCkpt = true
	b.ratCkpt = c.rat
	q := unready()
	e := consumer(q)
	body := consumer(0)
	body.role = RoleBody
	body.ctx = ctx
	c.issueStage()
	if c.isRunnable(e) || !c.onList(c.regHead[q], c.rob.slot(e)) || !c.onList(ctx.waitHead, c.rob.slot(body)) ||
		body.wait != waitResolve || ctx.gated != 1 || c.iqLen != 2 {
		t.Fatalf("before flush: e runnable=%v body.wait=%d gated=%d iqLen=%d",
			c.isRunnable(e), body.wait, ctx.gated, c.iqLen)
	}
	if ctx.bodyStalls != 1 {
		t.Fatalf("gated body charged %d stalls in its first cycle, want 1", ctx.bodyStalls)
	}
	old := refOf(e)

	c.flushAfter(b, 0)
	if c.iqLen != 0 || ctx.gated != 0 || ctx.waitHead != 0 || c.regHead[q] != 0 || c.regOf[c.rob.slot(e)] != 0 {
		t.Fatalf("after flush: iqLen=%d gated=%d ctx list=%d q list=%d", c.iqLen, ctx.gated, ctx.waitHead, c.regHead[q])
	}
	for w, bits := range c.runnable {
		if bits != 0 {
			t.Fatalf("runnable word %d = %#x after squashing every entry", w, bits)
		}
	}

	// The squashed seq is reallocated, in the same ring slot, under a new
	// generation, and parks on a different register.
	r := unready()
	e2 := consumer(r)
	if now := refOf(e2); e2 != e || now.seq != old.seq || now.gen == old.gen {
		t.Fatalf("reallocation: same slot %v, ref %+v (was %+v)", e2 == e, now, old)
	}
	c.issueStage()
	c.markReady(q, 5) // completes the register the squashed entry waited on
	if c.isRunnable(e2) || !c.onList(c.regHead[r], c.rob.slot(e2)) {
		t.Fatalf("completing the squashed entry's register woke the reused slot (runnable=%v)", c.isRunnable(e2))
	}
	c.issueStage()
	if e2.issued {
		t.Fatal("entry issued while its own source was unready")
	}
	c.markReady(r, 7)
	c.issueStage()
	if !e2.issued || e2.result != 7 {
		t.Fatalf("after its source completed: issued=%v result=%d", e2.issued, e2.result)
	}
}

// gatedBody reports whether e is an ACB body entry gated on its
// unresolved predicated branch.
func gatedBody(e *robEntry) bool {
	return e.role == RoleBody && !e.ctx.spec.Eager && !e.ctx.branchDone
}

// TestGatedChargeMatchesFullScan pins the body-stall charge against the
// rule of a scan that retries every issue-queue entry each cycle: a gated
// body is charged one wakeup attempt per cycle unless an older entry's
// issue already exhausted the issue width, or the load or store ports for
// its kind, before the scan reached it. A 2-wide issue stage makes those
// cut-offs frequent.
func TestGatedChargeMatchesFullScan(t *testing.T) {
	cfg := wakeupConfig()
	cfg.IssueWidth = 2
	const maxLoads, maxStores = 2, 1 // issueStage's port limits at width 2
	p := wakeupProgram(300, false)
	c := NewWithMemory(cfg, p, bpu.NewTAGE(bpu.DefaultTAGEConfig()), forwardHammocks(p, PredSpec{MaxBody: 16}), isa.NewMemory())

	cutCycles := 0
	before := map[*ctxState]int64{}
	want := map[*ctxState]int64{}
	for i := 0; i < 40_000; i++ {
		c.cycle++
		if c.retireStage() {
			break
		}
		c.completeStage()
		// The issue queue as the issue stage sees it, oldest first.
		var iq []*robEntry
		var gated []bool
		for s := c.rob.headSeq; s < c.rob.nextSeq; s++ {
			if e := c.rob.at(s); e != nil && e.inIQ {
				iq = append(iq, e)
				gated = append(gated, gatedBody(e))
			}
		}
		clear(before)
		for _, ctx := range c.liveCtxs {
			before[ctx] = ctx.bodyStalls
		}

		c.issueStage()

		clear(want)
		issued, loads, stores := 0, 0, 0
		cut := false
		for j, e := range iq {
			if issued >= cfg.IssueWidth || (e.isLoad && loads >= maxLoads) || (e.isStore && stores >= maxStores) {
				cut = cut || gated[j]
				continue
			}
			if gated[j] {
				want[e.ctx]++
			}
			if e.issued {
				issued++
				if e.isLoad {
					loads++
				}
				if e.isStore {
					stores++
				}
			}
		}
		for _, ctx := range c.liveCtxs {
			if got := ctx.bodyStalls - before[ctx]; got != want[ctx] {
				t.Fatalf("cycle %d ctx %d: charged %d body stalls, a full scan charges %d",
					c.cycle, ctx.id, got, want[ctx])
			}
		}
		if cut {
			cutCycles++
		}
		c.renameStage()
		c.fetchStage()
	}
	if cutCycles < 100 {
		t.Fatalf("only %d cycles cut a gated body off; the test needs cut-offs", cutCycles)
	}
}

// stallRecorder is everyBranchScheme recording each predicated instance's
// BodyStallCycles in retirement order.
type stallRecorder struct {
	*everyBranchScheme
	stalls []int64
}

func (r *stallRecorder) OnBranchResolve(ev ResolveEvent) {
	if ev.Predicated {
		r.stalls = append(r.stalls, ev.BodyStallCycles)
	}
}

// TestSkipReplaysGatedCharges: the quiescent-cycle skip replays each
// context's gated-body count once per skipped cycle, so every predicated
// instance reports the same BodyStallCycles as a StepCycle loop, which
// steps every cycle.
func TestSkipReplaysGatedCharges(t *testing.T) {
	p := wakeupProgram(400, true)
	run := func(step bool) ([]int64, Result) {
		rec := &stallRecorder{everyBranchScheme: forwardHammocks(p, PredSpec{MaxBody: 16})}
		c := NewWithMemory(wakeupConfig(), p, bpu.NewTAGE(bpu.DefaultTAGEConfig()), rec, isa.NewMemory())
		if !step {
			res, err := c.Run(1_000_000)
			if err != nil || !res.Halted {
				t.Fatalf("run: halted=%v err=%v", res.Halted, err)
			}
			return rec.stalls, res
		}
		for i := 0; i < 1_000_000; i++ {
			if c.StepCycle() {
				return rec.stalls, c.StepResult(true)
			}
		}
		t.Fatalf("stepped run did not halt within 1000000 cycles")
		return nil, Result{}
	}
	skipped, res := run(false)
	stepped, _ := run(true)
	if len(skipped) != len(stepped) || len(skipped) == 0 {
		t.Fatalf("instances: %d with skipping, %d without", len(skipped), len(stepped))
	}
	var total int64
	for i := range skipped {
		if skipped[i] != stepped[i] {
			t.Fatalf("instance %d: %d body stalls with skipping, %d without", i, skipped[i], stepped[i])
		}
		total += skipped[i]
	}
	if total == 0 {
		t.Fatalf("no body stalls charged over %d instances (%d cycles)", len(skipped), res.Cycles)
	}
}
