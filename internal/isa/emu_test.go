package isa

import (
	"testing"
	"testing/quick"
)

func TestMemoryZeroDefault(t *testing.T) {
	m := NewMemory()
	if m.Load(0x1234) != 0 {
		t.Error("fresh memory not zero")
	}
	if m.Footprint() != 0 {
		t.Error("reads must not allocate pages")
	}
}

func TestMemoryStoreLoad(t *testing.T) {
	m := NewMemory()
	m.Store(0x1000, 42)
	if got := m.Load(0x1000); got != 42 {
		t.Fatalf("load = %d, want 42", got)
	}
	// Word granularity: any address within the word aliases.
	if got := m.Load(0x1007); got != 42 {
		t.Fatalf("unaligned load within word = %d, want 42", got)
	}
	m.Store(0x1008, 7)
	if got := m.Load(0x1000); got != 42 {
		t.Fatalf("neighbour write clobbered word: %d", got)
	}
}

// TestMemoryRoundTrip: store-then-load returns the value for arbitrary
// addresses and values (property-based).
func TestMemoryRoundTrip(t *testing.T) {
	m := NewMemory()
	f := func(addr, val int64) bool {
		if addr < 0 {
			addr = -addr
		}
		m.Store(addr, val)
		return m.Load(addr) == val
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryClone(t *testing.T) {
	m := NewMemory()
	m.Store(8, 1)
	c := m.Clone()
	c.Store(8, 2)
	m.Store(16, 3)
	if m.Load(8) != 1 || c.Load(8) != 2 {
		t.Error("clone shares word storage")
	}
	if c.Load(16) != 0 {
		t.Error("clone sees post-clone writes")
	}
}

func TestOverlay(t *testing.T) {
	base := NewMemory()
	base.Store(0, 10)
	ov := NewOverlay(base)
	if ov.Load(0) != 10 {
		t.Fatal("overlay must read through")
	}
	ov.Store(0, 20)
	ov.Store(64, 30)
	if ov.Load(0) != 20 || ov.Load(64) != 30 {
		t.Fatal("overlay writes not visible")
	}
	if base.Load(0) != 10 || base.Load(64) != 0 {
		t.Fatal("overlay leaked to base before commit")
	}

	snap := ov.Snapshot()
	ov.Store(0, 99)
	ov.Restore(snap)
	if ov.Load(0) != 20 {
		t.Fatal("restore did not rewind writes")
	}

	ov.Commit()
	if base.Load(0) != 20 || base.Load(64) != 30 {
		t.Fatal("commit did not apply")
	}
	ov.Store(8, 1)
	ov.Discard()
	if ov.Load(8) != 0 {
		t.Fatal("discard did not drop writes")
	}
}

func TestOverlayNestedSnapshots(t *testing.T) {
	base := NewMemory()
	base.Store(0, 1)
	ov := NewOverlay(base)
	ov.Store(8, 2) // before any snapshot: not logged
	if len(ov.log) != 0 {
		t.Fatalf("store without a live snapshot logged %d records", len(ov.log))
	}
	s1 := ov.Snapshot()
	ov.Store(0, 10)
	ov.Store(16, 11) // absent before s1
	s2 := ov.Snapshot()
	ov.Store(0, 20)
	ov.Store(8, 21)
	s3 := ov.Snapshot()
	ov.Store(16, 30)
	ov.Store(24, 31)

	want := func(step string, w0, w8, w16, w24 int64) {
		t.Helper()
		if got := [4]int64{ov.Load(0), ov.Load(8), ov.Load(16), ov.Load(24)}; got != [4]int64{w0, w8, w16, w24} {
			t.Fatalf("%s: words = %v, want %v", step, got, [4]int64{w0, w8, w16, w24})
		}
	}
	want("all stores", 20, 21, 30, 31)
	ov.Restore(s3)
	want("restore s3", 20, 21, 11, 0)

	// Restore to the middle snapshot: the writes since s2 are undone in
	// reverse, s1's survive, and s2 itself stays restorable.
	ov.Store(16, 32)
	ov.Restore(s2)
	want("restore s2", 10, 2, 11, 0)
	if _, ok := ov.writes[24]; ok {
		t.Fatal("restore left a write to a word absent at the snapshot")
	}
	ov.Store(24, 40)
	ov.Restore(s2)
	want("restore s2 again", 10, 2, 11, 0)

	ov.Restore(s1)
	want("restore s1", 1, 2, 0, 0)
	if base.Load(8) != 0 {
		t.Fatal("snapshots leaked writes to base")
	}

	// The last retire commits: writes reach the base, the log empties,
	// and stores stop logging.
	ov.Store(0, 50)
	ov.Commit()
	if base.Load(0) != 50 || base.Load(8) != 2 || len(ov.log) != 0 {
		t.Fatalf("commit: base[0]=%d base[8]=%d log=%d", base.Load(0), base.Load(8), len(ov.log))
	}
	ov.Store(0, 60)
	if len(ov.log) != 0 {
		t.Fatal("store after commit logged without a live snapshot")
	}
}

// TestOverlayLogBoundedBackToBack models the core's use: contexts open
// back to back, each retiring while the next is live, so some snapshot is
// always live and the overlay never commits. Trimming below the oldest
// live snapshot must keep the log bounded, and the live snapshot must
// still restore exactly.
func TestOverlayLogBoundedBackToBack(t *testing.T) {
	base := NewMemory()
	ov := NewOverlay(base)
	const storesPerCtx = 7
	prev := ov.Snapshot()
	maxLog := 0
	for i := 0; i < 10_000; i++ {
		for j := int64(0); j < storesPerCtx; j++ {
			ov.Store(j*8, int64(i)*100+j)
		}
		next := ov.Snapshot()
		ov.Trim(next) // prev retires; next is now the oldest live snapshot
		prev = next
		if len(ov.log) > maxLog {
			maxLog = len(ov.log)
		}
	}
	if maxLog > 4*storesPerCtx {
		t.Fatalf("undo log grew to %d records with one context live", maxLog)
	}
	ov.Store(0, -1)
	ov.Store(800, -2)
	ov.Restore(prev)
	if ov.Load(0) != 999_900 || ov.Load(800) != 0 {
		t.Fatalf("restore after trims: word0=%d word800=%d", ov.Load(0), ov.Load(800))
	}
}

func TestOverlayRestoreReclaimedPanics(t *testing.T) {
	ov := NewOverlay(NewMemory())
	old := ov.Snapshot()
	for i := int64(0); i < 8; i++ {
		ov.Store(i*8, i)
	}
	ov.Trim(ov.Snapshot())
	defer func() {
		if recover() == nil {
			t.Fatal("restoring a reclaimed snapshot did not panic")
		}
	}()
	ov.Restore(old)
}

func TestStepArithmeticAndControl(t *testing.T) {
	prog := []Instruction{
		{Op: MovI, Rd: R1, Imm: 5},
		{Op: MovI, Rd: R2, Imm: 3},
		{Op: Add, Rd: R3, Rs1: R1, Rs2: R2},
		{Op: Br, Cond: EQR, Rs1: R3, Rs2: R3, Target: 5},
		{Op: MovI, Rd: R4, Imm: 111}, // skipped
		{Op: Halt},
	}
	st := NewArchState(nil)
	steps, halted := st.Run(prog, 100)
	if !halted {
		t.Fatal("did not halt")
	}
	if steps != 5 {
		t.Fatalf("steps = %d, want 5", steps)
	}
	if st.Regs[R3] != 8 {
		t.Fatalf("r3 = %d, want 8", st.Regs[R3])
	}
	if st.Regs[R4] != 0 {
		t.Fatal("branch did not skip")
	}
}

func TestStepMemoryOps(t *testing.T) {
	prog := []Instruction{
		{Op: MovI, Rd: R1, Imm: 0x2000},
		{Op: MovI, Rd: R2, Imm: 77},
		{Op: Store, Rs1: R1, Rs2: R2, Imm: 16},
		{Op: Load, Rd: R3, Rs1: R1, Imm: 16},
		{Op: Halt},
	}
	st := NewArchState(nil)
	if _, halted := st.Run(prog, 100); !halted {
		t.Fatal("did not halt")
	}
	if st.Regs[R3] != 77 {
		t.Fatalf("r3 = %d, want 77", st.Regs[R3])
	}
	if st.Mem.Load(0x2010) != 77 {
		t.Fatal("store not applied to memory")
	}
}

func TestStepResultFields(t *testing.T) {
	prog := []Instruction{
		{Op: Br, Cond: EQZ, Rs1: R0, Target: 3},
		{Op: Nop},
		{Op: Nop},
		{Op: Halt},
	}
	st := NewArchState(nil)
	res := st.Step(prog)
	if !res.Taken || res.NextPC != 3 {
		t.Fatalf("branch step: taken=%v next=%d", res.Taken, res.NextPC)
	}
	res = st.Step(prog)
	if !res.Halted {
		t.Fatal("halt not reported")
	}
	if st.PC != 3 {
		t.Fatal("halt must not advance PC")
	}
}

func TestRunBudget(t *testing.T) {
	prog := []Instruction{
		{Op: AddI, Rd: R1, Rs1: R1, Imm: 1},
		{Op: Jmp, Target: 0},
	}
	st := NewArchState(nil)
	steps, halted := st.Run(prog, 1000)
	if halted {
		t.Fatal("infinite loop cannot halt")
	}
	if steps != 1000 {
		t.Fatalf("steps = %d, want 1000", steps)
	}
	if st.Regs[R1] != 500 {
		t.Fatalf("r1 = %d, want 500", st.Regs[R1])
	}
}

func TestStepOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range PC")
		}
	}()
	st := NewArchState(nil)
	st.PC = 5
	st.Step([]Instruction{{Op: Nop}})
}
