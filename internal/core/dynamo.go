package core

// DynState is the Dynamo finite-state machine state of an ACB Table entry
// (Fig. 5). NEUTRAL entries follow the epoch parity (disabled in odd
// "baseline" epochs, enabled in even "ACB" epochs); GOOD entries always
// apply; BAD entries never apply; the LIKELY states are the intermediate
// steps that require two consecutive consistent observations.
type DynState uint8

// Dynamo FSM states.
const (
	DynNeutral DynState = iota
	DynLikelyGood
	DynGood
	DynLikelyBad
	DynBad
)

// String names the state.
func (s DynState) String() string {
	switch s {
	case DynNeutral:
		return "NEUTRAL"
	case DynLikelyGood:
		return "LIKELY-GOOD"
	case DynGood:
		return "GOOD"
	case DynLikelyBad:
		return "LIKELY-BAD"
	case DynBad:
		return "BAD"
	}
	return "?"
}

// DynamoConfig parameterizes the monitor.
type DynamoConfig struct {
	EpochLen      int64 // retired instructions per epoch (paper: 16K)
	CycleFactor   int64 // threshold divisor for the cycle delta (paper: 8)
	ResetInterval int64 // full state reset period in retired instr (paper: ~10M)
	CounterBits   uint  // epoch cycle counter width (paper: 18)
}

// DefaultDynamoConfig returns the paper's parameters.
func DefaultDynamoConfig() DynamoConfig {
	return DynamoConfig{EpochLen: 16 * 1024, CycleFactor: 8, ResetInterval: 10_000_000, CounterBits: 18}
}

// Dynamo is the run-time performance monitor: it alternates
// baseline-observation (odd) and ACB-observation (even) epochs of
// EpochLen retired instructions, compares the saturating cycle counts of
// each odd/even pair, and walks the involved entries' FSM toward GOOD or
// BAD when the delta exceeds 1/CycleFactor (Sec. III-C, "Dynamo").
type Dynamo struct {
	cfg DynamoConfig

	table *ACBTable

	epochIndex      int64 // 0-based; even index = "disable" epoch, odd = "enable"
	epochStartCycle int64
	epochRetired    int64
	baselineCycles  int64 // cycles of the last completed disable-epoch
	haveBaseline    bool

	retiredTotal int64
	lastReset    int64

	// Telemetry.
	EpochPairs int64
	GoodMoves  int64
	BadMoves   int64
	Resets     int64
}

// NewDynamo returns a monitor over the given ACB table.
func NewDynamo(cfg DynamoConfig, table *ACBTable) *Dynamo {
	return &Dynamo{cfg: cfg, table: table}
}

// EnableEpoch reports whether ACB application is globally enabled in the
// current epoch; per-entry state refines it via Allows.
func (d *Dynamo) enableEpoch() bool { return d.epochIndex%2 == 1 }

// Allows reports whether the entry may predicate this cycle under the
// epoch discipline: in disable epochs only GOOD entries run; in enable
// epochs everything but BAD runs.
func (d *Dynamo) Allows(e *ACBEntry) bool {
	switch e.State {
	case DynGood:
		return true
	case DynBad:
		return false
	default:
		return d.enableEpoch()
	}
}

// Involve records one predicated dynamic instance of the entry.
func (d *Dynamo) Involve(e *ACBEntry) {
	if e.Involvement < 15 {
		e.Involvement++
	}
}

// Retire advances the monitor by n retired instructions, the last of them
// at the given cycle, closing epochs and applying FSM transitions at pair
// boundaries. It returns how many more may retire before the current
// epoch ends; n must not run past the epoch's end, because the boundary is
// timed by the cycle of the retirement that reaches it.
func (d *Dynamo) Retire(n, cycle int64) int64 {
	d.retiredTotal += n
	d.epochRetired += n
	if d.epochStartCycle == 0 {
		d.epochStartCycle = cycle
	}
	if d.epochRetired < d.cfg.EpochLen {
		return d.cfg.EpochLen - d.epochRetired
	}

	// Epoch boundary.
	cycles := saturate(cycle-d.epochStartCycle, d.cfg.CounterBits)
	if d.enableEpoch() {
		if d.haveBaseline {
			d.judge(cycles)
		}
		d.haveBaseline = false
	} else {
		d.baselineCycles = cycles
		d.haveBaseline = true
	}
	d.epochIndex++
	d.epochRetired = 0
	d.epochStartCycle = cycle

	if d.retiredTotal-d.lastReset >= d.cfg.ResetInterval {
		d.lastReset = d.retiredTotal
		d.Resets++
		d.table.ForEach(func(e *ACBEntry) {
			e.State = DynNeutral
			e.Involvement = 0
		})
	}
	return d.cfg.EpochLen
}

// judge compares an enable-epoch cycle count against the preceding
// disable-epoch baseline and transitions involved entries.
func (d *Dynamo) judge(enableCycles int64) {
	d.EpochPairs++
	threshold := d.baselineCycles / d.cfg.CycleFactor
	var dir int // +1 good, -1 bad, 0 inconclusive
	switch {
	case enableCycles > d.baselineCycles+threshold:
		dir = -1
	case enableCycles < d.baselineCycles-threshold:
		dir = +1
	}
	d.table.ForEach(func(e *ACBEntry) {
		involved := e.Involvement >= 15
		e.Involvement = 0
		if dir == 0 || !involved {
			return
		}
		switch {
		case dir > 0:
			d.GoodMoves++
			switch e.State {
			case DynNeutral:
				e.State = DynLikelyGood
			case DynLikelyGood:
				e.State = DynGood
			case DynLikelyBad:
				e.State = DynNeutral
			}
		case dir < 0:
			d.BadMoves++
			switch e.State {
			case DynNeutral:
				e.State = DynLikelyBad
			case DynLikelyBad:
				e.State = DynBad
			case DynLikelyGood:
				e.State = DynNeutral
			}
		}
	})
}

func saturate(v int64, bits uint) int64 {
	max := int64(1)<<bits - 1
	if v > max {
		return max
	}
	if v < 0 {
		return 0
	}
	return v
}

// StorageBits returns Dynamo's own hardware cost outside the ACB Table —
// the 18-bit epoch cycle counter, the 18-bit baseline-cycles register, a
// 14-bit epoch instruction counter, a 10-bit reset epoch counter and the
// epoch-parity bit — plus the fetch-side ACB Context registers (an 8-bit
// divergence-wait counter and the 3-bit region identifier of Sec. III-C).
func (d *Dynamo) StorageBits() int {
	const monitor = 18 + 18 + 14 + 10 + 1
	const fetchContext = 8 + 3
	return monitor + fetchContext
}
