package ooo

// PredSpec tells the front end how to dual-fetch a predicated branch
// instance: where the paths reconverge, which direction to fetch first,
// how many body instructions may be fetched before the instance is
// declared divergent, and whether the OOO should execute the body eagerly
// with select micro-ops (DMP-style) or stall it until branch resolution
// with register transparency (ACB-style).
type PredSpec struct {
	ReconPC    int
	FirstTaken bool // fetch the taken path first (ACB Type-3); else not-taken first
	MaxBody    int  // divergence threshold in fetched body instructions
	Eager      bool // DMP select-µop mode; false = ACB stall/transparency mode
	// PushTrueHistory inserts the architecturally-correct outcome of the
	// predicated branch into global history (the DMP-PBH oracle of Fig. 9).
	// Plain ACB and DMP omit predicated instances from history entirely.
	PushTrueHistory bool
}

// FetchEvent describes one instruction passing through fetch on the
// believed-correct path; predication schemes use the stream to drive their
// learning structures (ACB's Learning and Tracking tables observe fetched
// PCs, Sec. III-B). A BoundaryScheme that reports itself quiet receives
// only the out-of-context conditional branches of the stream.
type FetchEvent struct {
	PC        int
	IsBranch  bool // conditional branch
	IsControl bool // any control-flow instruction
	Taken     bool // direction fetch followed (branches) / true (jumps)
	Target    int  // control target when Taken
	InContext bool // fetched inside an open predication context
}

// ResolveEvent describes a retired conditional branch (always correct-path
// by construction). Schemes train criticality and confidence state from it.
type ResolveEvent struct {
	PC         int
	Target     int // decode-time branch target
	Taken      bool
	Mispredict bool // triggered a pipeline flush
	Predicated bool // this instance was dual-fetched (no prediction made)
	Diverged   bool // predicated instance that failed to reconverge
	// ReconHint, for diverged instances, is the first architecturally-
	// correct-path PC beyond the learned reconvergence point (-1 when
	// unknown) — the feedback a multiple-reconvergence-point extension
	// learns from (the paper's category-B1 enhancement, Sec. V-C).
	ReconHint int
	// BodyStallCycles, for predicated instances, counts issue-queue
	// wakeup attempts the instance's body spent gated on the unresolved
	// branch — the signal behind the paper's rejected pre-Dynamo
	// stall-counting throttle (Sec. V-B).
	BodyStallCycles int64
	ROBFrac         float64 // at mispredict detection: distance from ROB head / ROB size
	Hist            uint64  // global history at fetch (for confidence estimators)
	PredTaken       bool    // the direction prediction (valid when !Predicated)
}

// Scheme is a dynamic-predication policy plugged into the core: ACB
// (internal/core) and DMP/DHP (internal/dmp) implement it. A nil Scheme
// runs the plain speculation baseline. A scheme that also implements
// BoundaryScheme is called only where its state can change; any other is
// driven through an adapter that ticks it on every retirement and sends it
// the whole fetch stream.
type Scheme interface {
	// Name identifies the scheme in reports.
	Name() string
	// ShouldPredicate is consulted at fetch for every conditional branch
	// on the believed-correct path while no context is open. conf is the
	// predictor's confidence proxy for this instance; hist the global
	// history. Returning ok=false speculates normally.
	ShouldPredicate(pc int, predTaken bool, conf int, hist uint64) (PredSpec, bool)
	// OnFetch observes the believed-correct-path fetch stream: every
	// instruction, or for a quiet BoundaryScheme only the conditional
	// branches fetched outside a predication context.
	OnFetch(ev FetchEvent)
	// OnFlush signals a pipeline flush (learning observations reset).
	OnFlush()
	// OnBranchResolve observes every retired conditional branch.
	OnBranchResolve(ev ResolveEvent)
	// OnRetireTick is called once per retired instruction with the current
	// cycle; epoch-based monitors (Dynamo) are driven from it. The core
	// calls it only for schemes that do not implement BoundaryScheme.
	OnRetireTick(cycle int64)
}

// BoundaryScheme is the optional fast path of Scheme, detected once when
// the core is built. The core then calls into the scheme only when
// something there can change:
//
//   - At retire, OnRetire replaces OnRetireTick. The core counts useful
//     retirements down from the value the previous call returned and
//     calls again at the retirement that reaches zero, in the position
//     OnRetireTick would have had for it (after that instruction's
//     OnBranchResolve). It may also call early with a partial count (at
//     the end of a run), so every retirement is reported exactly once.
//   - At fetch, while FetchQuiet reports true, only conditional branches
//     fetched outside a predication context are sent to OnFetch. The core
//     polls FetchQuiet after every OnFetch, OnBranchResolve and OnFlush
//     call, the only calls that may end the quiet state.
type BoundaryScheme interface {
	Scheme
	// OnRetire reports n useful retirements, the last of them at cycle,
	// and returns how many more may retire before the next call (≥ 1).
	// It must act exactly as n OnRetireTick(cycle) calls would, which
	// holds as long as no scheme boundary falls before the n-th of them.
	OnRetire(n, cycle int64) int64
	// FetchQuiet reports whether fetch events other than out-of-context
	// conditional branches would leave the scheme's state unchanged.
	FetchQuiet() bool
}

// tickEveryRetire adapts a plain Scheme to BoundaryScheme: it is ticked on
// every retirement and is never quiet, so the core keeps one retire path
// and one fetch path.
type tickEveryRetire struct{ Scheme }

func (t tickEveryRetire) OnRetire(n, cycle int64) int64 {
	for ; n > 0; n-- {
		t.OnRetireTick(cycle)
	}
	return 1
}

func (tickEveryRetire) FetchQuiet() bool { return false }

// boundaryScheme returns s's fast path, adapting it when s has none.
func boundaryScheme(s Scheme) BoundaryScheme {
	switch s := s.(type) {
	case nil:
		return nil
	case BoundaryScheme:
		return s
	default:
		return tickEveryRetire{s}
	}
}

// Role classifies an instruction's part in a predication context.
type Role uint8

// Roles.
const (
	RoleNone       Role = iota
	RolePredBranch      // the predicated branch itself
	RoleBody            // instruction in the predicated region
	RoleSelect          // injected select micro-op (eager mode)
)

// ctxState is the shared state of one predication context, referenced by
// the fetched instructions, the ROB entries, pending select micro-ops,
// oracle snapshots and the fetch engine. Contexts live in the core's
// context ring (Core.ctxs), which is filled in fetch order and rewound at
// a flush like the ROB; see ctxRingSize for why a live context is never
// overwritten. The struct holds no pointers, so recycling a slot costs a
// plain memory write.
type ctxState struct {
	id        int64 // monotonic across the run (trace events); never rewinds
	idx       int64 // ring allocation index; rewinds at a flush
	spec      PredSpec
	branchPC  int
	branchSeq int64 // ROB seq of the predicated branch (-1 until renamed)

	wrongPath bool       // context opened on the wrong path (no oracle backing)
	tok       flushToken // identifies this context as a wrong-fetch cause

	// Fetch-side progress.
	closed   bool // reconvergence reached at fetch
	diverged bool // reconvergence not found within MaxBody
	body     int  // body instructions fetched in the current phase

	// Resolution.
	branchDone  bool
	branchTaken bool
	flushedDiv  bool // divergence flush already performed

	// Oracle bookkeeping: the true outcome, available only for
	// correct-path contexts (the recorded true path is Core.truePath).
	// scanFailed means the architecturally-correct path did not reach the
	// reconvergence point within MaxBody steps.
	trueKnown  bool
	trueTaken  bool
	scanFailed bool
	reconHint  int   // divergence feedback (see ResolveEvent.ReconHint)
	bodyStalls int64 // gated-wakeup count (see ResolveEvent.BodyStallCycles)
	gated      int   // body entries on waitHead's list (gated on the branch)
	waitHead   int32 // waiter list of entries parked on the branch resolution (Core.waits)

	// Eager (select-µop) rename state; the forked RATs themselves live
	// out of line in Core.forks (see Core.fork).
	haveRAT1     bool
	selectsBuilt bool
}

// ratFork is an eager context's forked rename state: rat0 is the RAT at
// the predicated branch, rat1 the RAT at the end of the first fetched
// path. Only eager (DMP-style) contexts use it, so it is kept apart from
// ctxState to keep the context ring small.
type ratFork struct {
	rat0, rat1 regMap
}
