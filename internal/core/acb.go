package core

import (
	"fmt"

	"acb/internal/ooo"
)

// Config parameterizes ACB. Zero values are replaced by the paper's
// defaults via DefaultConfig.
type Config struct {
	// N is the convergence observation window in fetched instructions
	// (paper: 40).
	N int
	// BodySlack is the extra fetched instructions allowed beyond N before
	// a dual-fetch instance is declared divergent.
	BodySlack int
	// CriticalEntries sizes the Critical Table (paper: 64).
	CriticalEntries int
	// ACBEntries sizes the ACB Table (paper: 32, 2-way).
	ACBEntries int
	// WindowInstrs is the criticality-filter window (paper: 200K retired).
	WindowInstrs int64
	// ApplyThreshold is the confidence needed to apply ACB (paper: >32,
	// half of the 6-bit counter's range).
	ApplyThreshold uint8
	// ROBFracLimit counts a misprediction as critical only when detected
	// within this fraction of the ROB from its head (paper: one fourth);
	// <= 0 disables the heuristic.
	ROBFracLimit float64
	// UseDynamo enables the run-time performance monitor.
	UseDynamo bool
	// Dynamo parameterizes the monitor.
	Dynamo DynamoConfig
	// Eager applies ACB with DMP-style select micro-ops instead of
	// stall-and-transparency — the paper's Sec. V-C sensitivity study that
	// bought only ~0.2%.
	Eager bool
	// ThrottleStalls replaces Dynamo with the paper's rejected
	// stall-counting throttle (Sec. V-B) for the ablation study; see
	// StallThrottle. Ignored unless UseDynamo is false.
	ThrottleStalls bool
	// StallLimit is the per-instance stall budget for ThrottleStalls.
	StallLimit float64
	// MultiRecon enables the paper's category-B1 future-work extension
	// (Sec. V-C): learning a second reconvergence point per entry from
	// divergence feedback, instead of resetting and retraining. Costs 18
	// extra bits per ACB Table entry.
	MultiRecon bool
}

// DefaultConfig returns the paper's ACB configuration.
func DefaultConfig() Config {
	return Config{
		N:               40,
		BodySlack:       16,
		CriticalEntries: 64,
		ACBEntries:      32,
		WindowInstrs:    200_000,
		ApplyThreshold:  32,
		// The ROB-quartile refinement (Sec. III-A) is an ablation knob
		// (BenchmarkAblationROBFrac); the frequency filter alone is the
		// default, which also lets shadowed mispredictions train (the
		// paper's soplex outlier shows ACB predicating them).
		ROBFracLimit: 0,
		UseDynamo:    true,
		Dynamo:       DefaultDynamoConfig(),
	}
}

// ACB is the Auto-Predication of Critical Branches engine; it implements
// ooo.Scheme.
type ACB struct {
	cfg Config

	critical *CriticalTable
	learning *LearningTable
	table    *ACBTable
	tracking *TrackingTable
	dynamo   *Dynamo
	stalls   *StallThrottle
	trace    *ooo.TraceRing

	retired    int64
	windowBase int64
	rng        uint64

	// Telemetry.
	Learnings       int64 // confirmed convergences installed in the ACB table
	TrackFails      int64 // tracking-table convergence failures
	Divergences     int64 // divergent predicated instances observed at retire
	ReconPromotions int64 // second-reconvergence adoptions (MultiRecon)
}

// New returns an ACB engine with the given configuration.
func New(cfg Config) *ACB {
	if cfg.N == 0 {
		cfg = DefaultConfig()
	}
	a := &ACB{
		cfg:      cfg,
		critical: NewCriticalTable(cfg.CriticalEntries),
		learning: NewLearningTable(cfg.N),
		table:    NewACBTable(cfg.ACBEntries),
		tracking: NewTrackingTable(cfg.N),
		rng:      0x2545F4914F6CDD1D,
	}
	a.dynamo = NewDynamo(cfg.Dynamo, a.table)
	if cfg.ThrottleStalls {
		limit := cfg.StallLimit
		if limit <= 0 {
			limit = 40
		}
		a.stalls = NewStallThrottle(limit, 64)
	}
	return a
}

// Name implements ooo.Scheme.
func (a *ACB) Name() string {
	switch {
	case a.cfg.MultiRecon:
		return "acb-mr"
	case a.cfg.ThrottleStalls:
		return "acb-stallthrottle"
	case !a.cfg.UseDynamo:
		return "acb-nodynamo"
	default:
		return "acb"
	}
}

// Table exposes the ACB Table for tests and reports.
func (a *ACB) Table() *ACBTable { return a.table }

// CriticalTable exposes the criticality filter for tests.
func (a *ACB) CriticalTable() *CriticalTable { return a.critical }

// Dynamo exposes the monitor for tests and reports.
func (a *ACB) Dynamo() *Dynamo { return a.dynamo }

// SetTrace attaches an event ring (normally the core's, via
// ooo.Core.EnableTrace) so gate decisions appear on the same timeline as
// the pipeline's dual-fetch and flush events.
func (a *ACB) SetTrace(r *ooo.TraceRing) { a.trace = r }

func (a *ACB) nextRand() uint64 {
	a.rng ^= a.rng << 13
	a.rng ^= a.rng >> 7
	a.rng ^= a.rng << 17
	return a.rng
}

// ShouldPredicate implements ooo.Scheme: a branch instance is dual-fetched
// when its ACB Table entry has built confidence and Dynamo's epoch/state
// discipline allows it.
func (a *ACB) ShouldPredicate(pc int, _ bool, _ int, _ uint64) (ooo.PredSpec, bool) {
	e := a.table.Lookup(pc)
	if e == nil || e.Confidence <= a.cfg.ApplyThreshold {
		return ooo.PredSpec{}, false
	}
	if a.cfg.UseDynamo && !a.dynamo.Allows(e) {
		if a.trace != nil {
			a.trace.Emit(ooo.EvGateDeny, pc, 0, ooo.GateDynamo)
		}
		return ooo.PredSpec{}, false
	}
	if a.stalls != nil && !a.stalls.Allows(pc) {
		if a.trace != nil {
			a.trace.Emit(ooo.EvGateDeny, pc, 0, ooo.GateStallThrottle)
		}
		return ooo.PredSpec{}, false
	}
	recon := e.ReconPC
	if a.cfg.MultiRecon && e.UseRecon2 && e.ReconPC2 != 0 {
		recon = e.ReconPC2
	}
	return ooo.PredSpec{
		ReconPC:    recon,
		FirstTaken: e.FirstTaken,
		MaxBody:    a.cfg.N + a.cfg.BodySlack,
		Eager:      a.cfg.Eager,
	}, true
}

// OnFetch implements ooo.Scheme: the fetched-PC stream drives the
// Learning Table's convergence detection and the Tracking Table's
// convergence-confidence validation.
func (a *ACB) OnFetch(ev ooo.FetchEvent) {
	if failPC, failed := a.tracking.Observe(ev.PC); failed {
		a.TrackFails++
		if e := a.table.Lookup(failPC); e != nil {
			e.Confidence = 0
		}
	}
	if l := a.learning.Observe(ev.PC, ev.IsBranch, ev.IsControl, ev.Taken, ev.Target, ev.InContext); l != nil {
		a.install(l)
	}
	// Arm the tracker on a fetched instance of a still-unconfident entry.
	if ev.IsBranch && !ev.InContext && !a.tracking.Active() {
		if e := a.table.Lookup(ev.PC); e != nil && e.Confidence <= a.cfg.ApplyThreshold {
			a.tracking.Arm(ev.PC, e.ReconPC)
		}
	}
}

func (a *ACB) install(l *Learned) {
	a.table.Install(l)
	a.critical.Release(l.PC)
	a.Learnings++
}

// OnFlush implements ooo.Scheme: in-flight fetch observations are stale
// after a pipeline flush.
func (a *ACB) OnFlush() {
	a.learning.AbortObservation()
	a.tracking.Abort()
}

// OnBranchResolve implements ooo.Scheme: criticality training, confidence
// building and Dynamo involvement.
func (a *ACB) OnBranchResolve(ev ooo.ResolveEvent) {
	if ev.Predicated {
		if a.stalls != nil {
			a.stalls.Observe(ev.PC, ev.BodyStallCycles)
		}
		if e := a.table.Lookup(ev.PC); e != nil {
			a.dynamo.Involve(e)
			if ev.Diverged {
				a.Divergences++
				switch {
				case a.cfg.MultiRecon && e.ReconPC2 == 0 && ev.ReconHint > e.ReconPC:
					// Category-B1 extension: adopt the point where the
					// diverged instance actually re-joined as a second
					// reconvergence point and switch to it, keeping the
					// built-up confidence.
					e.ReconPC2 = ev.ReconHint
					e.UseRecon2 = true
					a.ReconPromotions++
				case a.cfg.MultiRecon && e.ReconPC2 != 0 && ev.ReconHint > e.ReconPC2:
					// Still diverging: promote further out.
					e.ReconPC2 = ev.ReconHint
					a.ReconPromotions++
				default:
					// Divergence: reset confidence and utility to retrain
					// (Sec. III-C1).
					e.Confidence = 0
					e.Utility = 0
					e.ReconPC2 = 0
					e.UseRecon2 = false
				}
			}
		}
		return
	}

	// Blocked stall-throttle entries only ever see non-predicated retires;
	// these drive the decay that re-enables them after a phase change.
	if a.stalls != nil {
		a.stalls.ObserveRetired(ev.PC)
	}

	// Confidence counters of learned entries (Sec. III-B, "Criticality
	// Confidence").
	if e := a.table.Lookup(ev.PC); e != nil {
		if ev.Mispredict {
			if e.Confidence < 63 {
				e.Confidence++
			}
			if e.Utility < 3 {
				e.Utility++
			}
		} else {
			m := decProbM(e.BodySize)
			if a.nextRand()%uint64(m+1) == 0 && e.Confidence > 0 {
				e.Confidence--
			}
		}
	}

	// Criticality filter (Sec. III-A).
	if !ev.Mispredict {
		return
	}
	if a.cfg.ROBFracLimit > 0 && ev.ROBFrac > a.cfg.ROBFracLimit {
		return // in the shadow of older work; likely not critical
	}
	if a.critical.RecordMispredict(ev.PC) {
		if a.table.Lookup(ev.PC) == nil {
			a.learning.Arm(ev.PC, ev.Target)
		}
	}
}

// OnRetireTick implements ooo.Scheme: window resets and Dynamo epochs.
func (a *ACB) OnRetireTick(cycle int64) { a.OnRetire(1, cycle) }

// OnRetire implements ooo.BoundaryScheme: it takes n retirements at once
// and asks to be called again at the next criticality-window or Dynamo
// epoch boundary, the only retirements at which its state changes.
func (a *ACB) OnRetire(n, cycle int64) int64 {
	a.retired += n
	if a.retired-a.windowBase >= a.cfg.WindowInstrs {
		a.windowBase = a.retired
		a.critical.ResetWindow()
	}
	next := a.windowBase + a.cfg.WindowInstrs - a.retired
	if a.cfg.UseDynamo {
		next = min(next, a.dynamo.Retire(n, cycle))
	}
	return max(next, 1)
}

// FetchQuiet implements ooo.BoundaryScheme: with neither the Learning nor
// the Tracking table armed, only an out-of-context conditional branch can
// change ACB's state (by arming the tracker).
func (a *ACB) FetchQuiet() bool {
	return !a.learning.Occupied() && !a.tracking.Active()
}

// StorageBytes returns ACB's total hardware budget in bytes; the paper's
// Table I reports 386 bytes for the default configuration.
func (a *ACB) StorageBytes() int {
	bits := a.critical.StorageBits() +
		a.learning.StorageBits() +
		a.table.StorageBits() +
		a.tracking.StorageBits() +
		a.dynamo.StorageBits()
	return (bits + 7) / 8
}

// StorageReport itemizes the hardware budget (Table I).
func (a *ACB) StorageReport() string {
	return fmt.Sprintf(
		"Critical Table (%d entries): %d bytes\n"+
			"Learning Table (1 entry): %d bytes\n"+
			"ACB Table (%d entries, 2-way): %d bytes\n"+
			"Tracking Table (1 entry): %d bytes\n"+
			"Dynamo counters: %d bytes\n"+
			"Total: %d bytes\n",
		a.cfg.CriticalEntries, (a.critical.StorageBits()+7)/8,
		(a.learning.StorageBits()+7)/8,
		a.cfg.ACBEntries, (a.table.StorageBits()+7)/8,
		(a.tracking.StorageBits()+7)/8,
		(a.dynamo.StorageBits()+7)/8,
		a.StorageBytes())
}

var _ ooo.BoundaryScheme = (*ACB)(nil)
