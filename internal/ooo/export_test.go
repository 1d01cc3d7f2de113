package ooo

import "fmt"

// StepCycle advances the core by one cycle the way RunContext does, but
// never skips quiescent cycles, so a test can inspect every cycle. It is
// the cycle-by-cycle reference the skip's replays are checked against. It
// returns true when the program's Halt retired.
func (c *Core) StepCycle() bool {
	c.cycle++
	c.progress = false
	c.stallSlotsThisCycle = 0
	return c.stepCycle()
}

// StepResult is the Result a Run ending now would return.
func (c *Core) StepResult(halted bool) Result {
	c.reportRetired()
	return c.result(halted)
}

// CtxRingChecker verifies the context ring between cycles. It remembers
// which context every ROB allocation named, because a live context that
// was overwritten would show up as an allocation whose context changed
// identity under it.
type CtxRingChecker struct {
	gen  []uint64 // per ROB slot: the allocation last seen there
	id   []int64  // per ROB slot: the context id that allocation named
	seen []bool   // per ring slot: referenced during this check
	// MaxLive is the largest number of live ring positions seen.
	MaxLive int64
}

// Check returns the first violated invariant, or nil:
//   - every context named by the ROB, the fetch queue, pending selects,
//     oracle snapshots, the live list or the fetch walk sits in its ring
//     slot and below the allocation index (a flush rewinds past squashed
//     contexts only);
//   - the referenced contexts are exactly the allocation indices from the
//     oldest of them up to the allocation index (contexts die oldest
//     first, and a flush rewinds past every squashed one), and they span
//     at most the ring's size;
//   - a ROB allocation names the same context (by id) all its life;
//   - the live list and the snapshots are in strictly increasing id order.
func (k *CtxRingChecker) Check(c *Core) error {
	if c.ctxs == nil {
		return nil
	}
	if k.gen == nil {
		k.gen = make([]uint64, len(c.rob.entries))
		k.id = make([]int64, len(c.rob.entries))
		k.seen = make([]bool, len(c.ctxs))
	}
	clear(k.seen)
	minIdx := c.ctxAlloc
	var distinct int64
	ref := func(where string, ctx *ctxState) error {
		if ctx == nil {
			return nil
		}
		if ctx.idx < 0 || ctx.idx >= c.ctxAlloc || &c.ctxs[ctx.idx&c.ctxMask] != ctx {
			return fmt.Errorf("%s names context id %d at ring index %d, allocation index %d", where, ctx.id, ctx.idx, c.ctxAlloc)
		}
		if !k.seen[ctx.idx&c.ctxMask] {
			k.seen[ctx.idx&c.ctxMask] = true
			distinct++
		}
		minIdx = min(minIdx, ctx.idx)
		return nil
	}
	for s := c.rob.headSeq; s < c.rob.nextSeq; s++ {
		e := c.rob.at(s)
		if e == nil || e.ctx == nil {
			continue
		}
		if err := ref(fmt.Sprintf("ROB seq %d", s), e.ctx); err != nil {
			return err
		}
		slot := c.rob.slot(e)
		if k.gen[slot] != e.gen {
			k.gen[slot], k.id[slot] = e.gen, e.ctx.id
		} else if k.id[slot] != e.ctx.id {
			return fmt.Errorf("ROB seq %d named context id %d, now id %d: a live context was overwritten", s, k.id[slot], e.ctx.id)
		}
	}
	for i := 0; i < c.fqLen; i++ {
		fi := &c.fetchQ[(c.fqHead+i)&c.fqMask]
		if err := ref("fetch queue", fi.ctx); err != nil {
			return err
		}
		if err := ref("fetch queue close mark", fi.ctxClose); err != nil {
			return err
		}
	}
	for i := c.selHead; i < len(c.pendingSelects); i++ {
		if err := ref("pending select", c.pendingSelects[i].ctx); err != nil {
			return err
		}
	}
	if err := ref("fetch walk", c.ctx); err != nil {
		return err
	}
	if err := ref("pending close", c.pendingClose); err != nil {
		return err
	}
	for i, ctx := range c.liveCtxs {
		if err := ref("live list", ctx); err != nil {
			return err
		}
		if i > 0 && c.liveCtxs[i-1].id >= ctx.id {
			return fmt.Errorf("live list out of order: id %d before id %d", c.liveCtxs[i-1].id, ctx.id)
		}
	}
	for i, sn := range c.snapshots {
		if err := ref("oracle snapshot", sn.ctx); err != nil {
			return err
		}
		if i > 0 && c.snapshots[i-1].ctx.id >= sn.ctx.id {
			return fmt.Errorf("snapshots out of order: id %d before id %d", c.snapshots[i-1].ctx.id, sn.ctx.id)
		}
	}
	live := c.ctxAlloc - minIdx
	k.MaxLive = max(k.MaxLive, live)
	if live > int64(len(c.ctxs)) {
		return fmt.Errorf("%d ring positions referenced, ring holds %d", live, len(c.ctxs))
	}
	if distinct != live {
		return fmt.Errorf("%d contexts referenced between ring index %d and allocation index %d: dead or squashed slots in between",
			distinct, minIdx, c.ctxAlloc)
	}
	return nil
}

// CtxRingLen returns the context ring's storage size.
func (c *Core) CtxRingLen() int { return len(c.ctxs) }
