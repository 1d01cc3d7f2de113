package ooo

import (
	"math"
	"math/bits"

	"acb/internal/isa"
)

// waitKind names the context event an issue-queue entry is parked on. An
// entry that fails issue parks on exactly one reason and is woken when
// that reason clears; the issue scan visits runnable entries only. The
// remaining reason, a physical register, is recorded in Core.regOf (wait
// stays waitNone), so a register wakeup walks compact per-slot arrays and
// sets runnable bits without loading a ROB entry.
type waitKind uint8

const (
	waitNone    waitKind = iota // runnable, parked on a register, or not in the issue queue
	waitResolve                 // its context's predicated branch resolving (ctxState.waitHead)
	waitClose                   // its context closing or diverging at fetch (predicated branch)
)

// waitLists threads parked issue-queue entries into doubly linked lists
// over the ROB ring's slots: one list per physical register
// (Core.regHead) and one per predication context (ctxState.waitHead).
// Heads and links hold slot+1, so 0 ends a list and a zero head is an
// empty one. An entry is on at most one list, and a squashed entry is
// unlinked at once, so no list ever holds a stale entry.
type waitLists struct{ next, prev []int32 }

func newWaitLists(slots int) waitLists {
	return waitLists{next: make([]int32, slots), prev: make([]int32, slots)}
}

// push links slot at the front of the list headed by *head.
func (w *waitLists) push(head *int32, slot int32) {
	h := *head
	w.next[slot] = h
	w.prev[slot] = 0
	if h != 0 {
		w.prev[h-1] = slot + 1
	}
	*head = slot + 1
}

// unlink removes slot from the list headed by *head.
func (w *waitLists) unlink(head *int32, slot int32) {
	p, n := w.prev[slot], w.next[slot]
	if p != 0 {
		w.next[p-1] = n
	} else {
		*head = n
	}
	if n != 0 {
		w.prev[n-1] = p
	}
}

// noCut marks an issue limit that did not cut the scan off this cycle.
const noCut = math.MaxInt64

// issueStage selects ready instructions from the issue queue, reads their
// operands, computes results (value-correct execution) and schedules their
// completion. It enforces the predication disciplines:
//
//   - An ACB-predicated branch stalls until fetch has delivered the
//     reconvergence (or divergence) identifier (Sec. III-C2).
//   - ACB body instructions add the predicated branch as a source; once it
//     resolves, predicated-false producers execute as moves from the last
//     physical register of their logical destination (register
//     transparency), and predicated-false memory ops are invalidated.
//   - Eager (DMP) bodies execute freely; select micro-ops wait for the
//     branch plus the chosen source.
//   - Loads wait until all older stores have computed addresses, and stall
//     behind address-matching stores of unresolved predicated regions.
//
// The scan is wakeup-driven: it walks the runnable bitmap over the ROB ring
// from the head, so entries are tried oldest first, and an entry that fails
// parks on its wait reason (see waitKind) until markReady, closeCtx/
// divergeCtx or the predicated branch's resolution wakes it. Loads blocked
// behind older stores have no wake event and stay runnable.
func (c *Core) issueStage() {
	issued := 0
	loadsIssued, storesIssued := 0, 0
	maxLoads := c.cfg.IssueWidth / 4
	if maxLoads < 2 {
		maxLoads = 2
	}
	maxStores := c.cfg.IssueWidth / 8
	if maxStores < 1 {
		maxStores = 1
	}
	// The seq of the entry whose issue exhausted each limit: every entry
	// younger than it is cut off from this cycle's scan.
	cutAll, cutLoads, cutStores := int64(noCut), int64(noCut), int64(noCut)

	nw := len(c.runnable)
	head := int(c.rob.headSeq & c.rob.mask)
	hw := head >> 6
scan:
	// Word hw is visited twice: from the head's bit up first, and below it
	// last, after the walk has wrapped around the ring.
	for k := 0; k <= nw; k++ {
		w := (hw + k) & (nw - 1)
		b := c.runnable[w]
		switch k {
		case 0:
			b &= ^uint64(0) << (head & 63)
		case nw:
			b &= 1<<(head&63) - 1
		}
		for b != 0 {
			slot := w<<6 | bits.TrailingZeros64(b)
			b &= b - 1
			e := &c.rob.entries[slot]
			if (e.isLoad && loadsIssued >= maxLoads) || (e.isStore && storesIssued >= maxStores) {
				continue
			}
			lat, ok := c.tryIssue(e)
			if !ok {
				continue
			}
			c.runnable[w] &^= 1 << (slot & 63)
			e.issued = true
			e.inIQ = false
			c.iqLen--
			c.scheduleCompletion(e, lat)
			c.progress = true
			issued++
			if c.pipe != nil {
				c.pipe.issueSlots++
			}
			if e.isLoad {
				if loadsIssued++; loadsIssued == maxLoads {
					cutLoads = e.seq
				}
			}
			if e.isStore {
				if storesIssued++; storesIssued == maxStores {
					cutStores = e.seq
				}
			}
			if issued >= c.cfg.IssueWidth {
				cutAll = e.seq
				break scan
			}
		}
	}
	c.chargeGated(cutAll, cutLoads, cutStores)
}

// chargeGated adds this cycle's wakeup attempts to ctx.bodyStalls: one per
// ACB body entry gated on its unresolved branch that the issue scan
// reached, which is every gated entry unless a limit cut the scan off
// before it. The counts feed StallThrottle, so they must match a scan
// that retried every gated entry each cycle.
func (c *Core) chargeGated(cutAll, cutLoads, cutStores int64) {
	if cutAll == noCut && cutLoads == noCut && cutStores == noCut {
		for _, ctx := range c.liveCtxs {
			ctx.bodyStalls += int64(ctx.gated)
		}
		return
	}
	for _, ctx := range c.liveCtxs {
		for s := ctx.waitHead; s != 0; s = c.waits.next[s-1] {
			e := &c.rob.entries[s-1]
			if e.role != RoleBody ||
				e.seq > cutAll || (e.isLoad && e.seq > cutLoads) || (e.isStore && e.seq > cutStores) {
				continue
			}
			ctx.bodyStalls++
		}
	}
}

// setRunnable and clearRunnable flip a ROB slot's runnable bit.
func (c *Core) setRunnable(slot int32) {
	c.runnable[slot>>6] |= 1 << (slot & 63)
}

func (c *Core) clearRunnable(slot int32) {
	c.runnable[slot>>6] &^= 1 << (slot & 63)
}

// wake makes an entry parked on a context event runnable again.
func (c *Core) wake(e *robEntry) {
	e.wait = waitNone
	c.setRunnable(c.rob.slot(e))
}

// parkOnReg parks e until physical register p completes.
func (c *Core) parkOnReg(e *robEntry, p int) {
	s := c.rob.slot(e)
	c.clearRunnable(s)
	c.regOf[s] = int32(p) + 1
	c.waits.push(&c.regHead[p], s)
}

// parkOnResolve parks e until its context's predicated branch resolves. A
// gated ACB body is counted in ctx.gated for the per-cycle stall charge.
func (c *Core) parkOnResolve(e *robEntry) {
	s := c.rob.slot(e)
	c.clearRunnable(s)
	e.wait = waitResolve
	c.waits.push(&e.ctx.waitHead, s)
	if e.role == RoleBody {
		e.ctx.gated++
	}
}

// parkOnClose parks an ACB predicated branch until fetch closes or
// diverges its context (wakeClosed).
func (c *Core) parkOnClose(e *robEntry) {
	c.clearRunnable(c.rob.slot(e))
	e.wait = waitClose
}

// unpark takes a squashed issue-queue entry off the runnable bitmap and
// out of any waiter list.
func (c *Core) unpark(e *robEntry) {
	s := c.rob.slot(e)
	c.clearRunnable(s)
	if p := c.regOf[s]; p != 0 {
		c.waits.unlink(&c.regHead[p-1], s)
		c.regOf[s] = 0
	} else if e.wait == waitResolve {
		c.waits.unlink(&e.ctx.waitHead, s)
		if e.role == RoleBody {
			e.ctx.gated--
		}
	}
}

// markReady publishes a completed physical register and wakes the entries
// parked on it.
func (c *Core) markReady(p int, val int64) {
	c.prf[p] = prfEntry{val: val, ready: true}
	for s := c.regHead[p]; s != 0; s = c.waits.next[s-1] {
		c.regOf[s-1] = 0
		c.setRunnable(s - 1)
	}
	c.regHead[p] = 0
}

// wakeResolved wakes every entry parked on ctx's branch resolution.
func (c *Core) wakeResolved(ctx *ctxState) {
	for s := ctx.waitHead; s != 0; s = c.waits.next[s-1] {
		c.wake(&c.rob.entries[s-1])
	}
	ctx.waitHead = 0
	ctx.gated = 0
}

// wakeClosed wakes ctx's predicated branch if it is parked awaiting the
// reconvergence or divergence identifier.
func (c *Core) wakeClosed(ctx *ctxState) {
	if be := c.rob.at(ctx.branchSeq); be != nil && be.ctx == ctx && be.wait == waitClose {
		c.wake(be)
	}
}

// tryIssue checks readiness and, if ready, performs the instruction's
// value computation, returning its completion latency. On failure the
// entry has parked on its wait reason, or stays runnable when it has none.
func (c *Core) tryIssue(e *robEntry) (lat int, ok bool) {
	switch e.role {
	case RoleSelect:
		return c.tryIssueSelect(e)
	case RolePredBranch:
		if !e.ctx.spec.Eager && !e.ctx.closed {
			// Stalled awaiting the reconvergence/divergence identifier.
			c.parkOnClose(e)
			return 0, false
		}
		return c.tryIssueNormal(e)
	case RoleBody:
		if !e.ctx.spec.Eager {
			return c.tryIssueStallBody(e)
		}
		// invalidateFalseMemOps runs once, at branch resolution; an eager
		// body memory op still in the fetch queue at that moment allocates
		// afterwards and would slip past it, so re-check here (the stall
		// path does the same inside tryIssueStallBody).
		if e.ctx.branchDone && e.pathTaken != e.ctx.branchTaken &&
			(e.isLoad || e.isStore) && !e.invalidated &&
			c.mutation != MutSkipMemInvalidate {
			e.invalidated = true
			c.s.invalidatedMem++
		}
		return c.tryIssueNormal(e)
	default:
		return c.tryIssueNormal(e)
	}
}

func (c *Core) srcVals(e *robEntry) (a, b int64) {
	if e.nsrc > 0 {
		a = c.prf[e.src[0]].val
	}
	if e.nsrc > 1 {
		b = c.prf[e.src[1]].val
	}
	return a, b
}

// tryIssueNormal handles ordinary ALU/branch/memory execution. An entry
// with an unready source parks on the first one.
func (c *Core) tryIssueNormal(e *robEntry) (int, bool) {
	for i := 0; i < e.nsrc; i++ {
		if p := e.src[i]; !c.prf[p].ready {
			c.parkOnReg(e, p)
			return 0, false
		}
	}
	switch e.inst.Op {
	case isa.Load:
		return c.tryIssueLoad(e)
	case isa.Store:
		a, b := c.srcVals(e)
		e.effAddr = a + e.inst.Imm
		e.storeVal = b
		e.addrReady = true
		return 1, true
	case isa.Br:
		a, b := c.srcVals(e)
		e.resolvedTaken = e.inst.Cond.Eval(a, b)
		return 1, true
	default:
		a, b := c.srcVals(e)
		e.result = e.inst.ALUResult(a, b)
		e.hasResult = true
		return e.inst.ExecLatency(), true
	}
}

// tryIssueStallBody handles ACB body instructions: they wait for the
// predicated branch, then execute normally (true path) or as transparency
// moves (false path).
func (c *Core) tryIssueStallBody(e *robEntry) (int, bool) {
	ctx := e.ctx
	if !ctx.branchDone {
		c.parkOnResolve(e)
		return 0, false
	}
	onFalse := e.pathTaken != ctx.branchTaken
	if !onFalse {
		return c.tryIssueNormal(e)
	}
	if c.mutation == MutSkipMemInvalidate && (e.isLoad || e.isStore) {
		// Deliberate break (difftest self-test): the false-path memory op
		// executes as if it were on the taken path.
		return c.tryIssueNormal(e)
	}
	// Predicated-false path: producers copy the last correctly produced
	// value of their logical destination; everything else releases.
	if e.dest >= 0 {
		if c.mutation == MutSkipTransparencyMove {
			// Deliberate break (difftest self-test): skip the move; the
			// freshly allocated physical register's zero value commits.
			e.hasResult = true
		} else {
			if !c.prf[e.prevPhys].ready {
				c.parkOnReg(e, e.prevPhys)
				return 0, false
			}
			e.result = c.prf[e.prevPhys].val
			e.hasResult = true
		}
	}
	if (e.isLoad || e.isStore) && !e.invalidated {
		// Normally already marked by invalidateFalseMemOps at resolution.
		e.invalidated = true
		c.s.invalidatedMem++
	}
	c.s.transparentOps++
	return 1, true
}

// tryIssueSelect handles injected select micro-ops: once the context
// branch resolves, forward the chosen path's value.
func (c *Core) tryIssueSelect(e *robEntry) (int, bool) {
	ctx := e.ctx
	if !ctx.branchDone {
		c.parkOnResolve(e)
		return 0, false
	}
	chosen := e.selN
	if ctx.branchTaken {
		chosen = e.selT
	}
	if !c.prf[chosen].ready {
		c.parkOnReg(e, chosen)
		return 0, false
	}
	e.result = c.prf[chosen].val
	e.hasResult = true
	return 1, true
}

// tryIssueLoad applies memory disambiguation: wait for all older store
// addresses, stall behind matching stores of unresolved predicated
// regions, forward from the youngest older matching store, otherwise
// access the cache hierarchy.
func (c *Core) tryIssueLoad(e *robEntry) (int, bool) {
	a, _ := c.srcVals(e)
	addr := a + e.inst.Imm
	var match *robEntry
	for _, sseq := range c.stores.live() {
		if sseq >= e.seq {
			break
		}
		se := c.rob.at(sseq)
		if se == nil || se.invalidated {
			continue
		}
		if !se.addrReady {
			// An ACB body store that is still gated on its branch also
			// lands here: its address is unknown, so the load waits
			// (the paper's "memory disambiguation logic stalls").
			return 0, false
		}
		if sameWord(se.effAddr, addr) {
			if se.ctx != nil && se.role == RoleBody && !se.ctx.branchDone {
				// Eager-mode store on an unresolved predicated path.
				return 0, false
			}
			match = se
		}
	}
	e.effAddr = addr
	e.addrReady = true
	if match != nil {
		if !match.issued {
			return 0, false
		}
		e.result = match.storeVal
		e.hasResult = true
		c.s.loadForwards++
		return c.hier.L1D.Latency(), true
	}
	e.result = c.commitMem.Load(addr)
	e.hasResult = true
	return c.hier.LoadLatency(addr), true
}

func sameWord(a, b int64) bool { return a&^7 == b&^7 }
