package core

import "testing"

// tickEpoch advances the monitor through one epoch of cfg.EpochLen
// retirements spanning `cycles` cycles.
func tickEpoch(d *Dynamo, cfg DynamoConfig, startCycle, cycles int64) int64 {
	perInst := float64(cycles) / float64(cfg.EpochLen)
	for i := int64(0); i < cfg.EpochLen; i++ {
		d.Retire(1, startCycle+int64(float64(i+1)*perInst))
	}
	return startCycle + cycles
}

func smallDynamo() (DynamoConfig, *ACBTable, *Dynamo) {
	cfg := DynamoConfig{EpochLen: 1000, CycleFactor: 8, ResetInterval: 1 << 40, CounterBits: 18}
	tab := NewACBTable(32)
	return cfg, tab, NewDynamo(cfg, tab)
}

func involved(d *Dynamo, e *ACBEntry) {
	for i := 0; i < 16; i++ {
		d.Involve(e)
	}
}

// TestDynamoGoodPromotion: two consecutive epoch pairs where enabling ACB
// is clearly faster promote an involved entry NEUTRAL -> LIKELY-GOOD ->
// GOOD.
func TestDynamoGoodPromotion(t *testing.T) {
	cfg, tab, d := smallDynamo()
	e := tab.Install(&Learned{PC: 100})
	cyc := int64(1)
	for pair := 0; pair < 2; pair++ {
		cyc = tickEpoch(d, cfg, cyc, 4000) // disable epoch: slow
		involved(d, e)
		cyc = tickEpoch(d, cfg, cyc, 2000) // enable epoch: fast
	}
	if e.State != DynGood {
		t.Fatalf("state = %v, want GOOD", e.State)
	}
	if !d.Allows(e) {
		t.Fatal("GOOD entry must always be allowed")
	}
	if d.GoodMoves < 2 {
		t.Fatalf("good moves = %d", d.GoodMoves)
	}
}

// TestDynamoBadDemotion: consistently slower enable epochs demote to BAD,
// which permanently disables the entry.
func TestDynamoBadDemotion(t *testing.T) {
	cfg, tab, d := smallDynamo()
	e := tab.Install(&Learned{PC: 100})
	cyc := int64(1)
	for pair := 0; pair < 2; pair++ {
		cyc = tickEpoch(d, cfg, cyc, 2000) // disable: fast
		involved(d, e)
		cyc = tickEpoch(d, cfg, cyc, 4000) // enable: slow
	}
	if e.State != DynBad {
		t.Fatalf("state = %v, want BAD", e.State)
	}
	if d.Allows(e) {
		t.Fatal("BAD entry must never be allowed")
	}
}

// TestDynamoThresholdDeadband: cycle deltas within 1/8 cause no
// transitions.
func TestDynamoThresholdDeadband(t *testing.T) {
	cfg, tab, d := smallDynamo()
	e := tab.Install(&Learned{PC: 100})
	cyc := int64(1)
	for pair := 0; pair < 4; pair++ {
		cyc = tickEpoch(d, cfg, cyc, 4000)
		involved(d, e)
		cyc = tickEpoch(d, cfg, cyc, 4100) // ~2.5% slower: inside deadband
	}
	if e.State != DynNeutral {
		t.Fatalf("state = %v, want NEUTRAL (deadband)", e.State)
	}
}

// TestDynamoRequiresInvolvement: entries not active in the epoch pair do
// not transition — preventing unrelated IPC noise from being attributed.
func TestDynamoRequiresInvolvement(t *testing.T) {
	cfg, tab, d := smallDynamo()
	e := tab.Install(&Learned{PC: 100})
	cyc := int64(1)
	cyc = tickEpoch(d, cfg, cyc, 4000)
	// No Involve calls: entry was inactive.
	cyc = tickEpoch(d, cfg, cyc, 1000)
	if e.State != DynNeutral {
		t.Fatalf("uninvolved entry transitioned to %v", e.State)
	}
}

// TestDynamoInconsistentObservations: a good pair followed by a bad pair
// returns the entry to NEUTRAL (consecutive consistency required).
func TestDynamoInconsistentObservations(t *testing.T) {
	cfg, tab, d := smallDynamo()
	e := tab.Install(&Learned{PC: 100})
	cyc := int64(1)
	cyc = tickEpoch(d, cfg, cyc, 4000)
	involved(d, e)
	cyc = tickEpoch(d, cfg, cyc, 2000) // good pair
	if e.State != DynLikelyGood {
		t.Fatalf("state = %v, want LIKELY-GOOD", e.State)
	}
	cyc = tickEpoch(d, cfg, cyc, 2000)
	involved(d, e)
	cyc = tickEpoch(d, cfg, cyc, 4000) // bad pair
	if e.State != DynNeutral {
		t.Fatalf("state = %v, want NEUTRAL after contradiction", e.State)
	}
}

// TestDynamoEpochParity: NEUTRAL entries follow the epoch discipline —
// disabled in even-indexed (baseline) epochs, enabled in odd (ACB) epochs.
func TestDynamoEpochParity(t *testing.T) {
	cfg, tab, d := smallDynamo()
	e := tab.Install(&Learned{PC: 100})
	if d.Allows(e) {
		t.Fatal("NEUTRAL entry allowed in the first (baseline) epoch")
	}
	tickEpoch(d, cfg, 1, 1000)
	if !d.Allows(e) {
		t.Fatal("NEUTRAL entry blocked in the enable epoch")
	}
}

// TestDynamoPeriodicReset: states and involvement clear every
// ResetInterval retired instructions, giving blocked candidates a fresh
// chance (Sec. III-C).
func TestDynamoPeriodicReset(t *testing.T) {
	cfg := DynamoConfig{EpochLen: 100, CycleFactor: 8, ResetInterval: 1000, CounterBits: 18}
	tab := NewACBTable(32)
	d := NewDynamo(cfg, tab)
	e := tab.Install(&Learned{PC: 100})
	e.State = DynBad
	cyc := int64(1)
	for i := 0; i < 12; i++ {
		cyc = tickEpoch(d, cfg, cyc, 200)
	}
	if e.State != DynNeutral {
		t.Fatalf("state = %v after reset interval, want NEUTRAL", e.State)
	}
	if d.Resets == 0 {
		t.Fatal("no reset recorded")
	}
}

// TestDynamoCounterSaturation: epoch cycle counts saturate at the 18-bit
// hardware width.
func TestDynamoCounterSaturation(t *testing.T) {
	if saturate(1<<20, 18) != (1<<18)-1 {
		t.Fatal("saturation bound wrong")
	}
	if saturate(5, 18) != 5 {
		t.Fatal("small values must pass through")
	}
	if saturate(-3, 18) != 0 {
		t.Fatal("negative clamps to zero")
	}
}

func TestDynStateString(t *testing.T) {
	want := map[DynState]string{
		DynNeutral: "NEUTRAL", DynLikelyGood: "LIKELY-GOOD", DynGood: "GOOD",
		DynLikelyBad: "LIKELY-BAD", DynBad: "BAD",
	}
	for s, str := range want {
		if s.String() != str {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
}
