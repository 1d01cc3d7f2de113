package core

// ACBEntry is one learned, application-ready branch in the ACB Table:
// convergence metadata from the Learning Table plus the confidence and
// Dynamo state that gate run-time application (Sec. III-B, Table I).
type ACBEntry struct {
	Valid      bool
	PC         int
	Type       ConvType
	ReconPC    int
	FirstTaken bool
	BodySize   int
	Backward   bool

	// Confidence is the 6-bit saturating probabilistic counter: +1 per
	// flush-causing misprediction, -1 with probability 1/M per correct
	// prediction, where M is derived from the body-size-to-misprediction-
	// rate mapping. Application begins above half scale (> 32).
	Confidence uint8
	Utility    uint8 // 2 bits

	// Dynamo per-entry state.
	State       DynState
	Involvement uint8 // 4-bit saturating activity counter

	// Multiple-reconvergence extension (core.Config.MultiRecon; the
	// paper's category-B1 future work): a second reconvergence point
	// learned from divergence feedback, and the selector that activates
	// it. Zero means unset.
	ReconPC2  int
	UseRecon2 bool
}

// decProbM returns M such that the confidence counter decays by 1/M per
// correct prediction: the body-size→required-misprediction-rate mapping
// (larger bodies demand higher misprediction rates before predication
// pays, per Equation 1). The body size is encoded in 2 bits (4 classes).
func decProbM(bodySize int) int {
	switch {
	case bodySize <= 4:
		return 31 // m = 1/32
	case bodySize <= 8:
		return 15 // m = 1/16
	case bodySize <= 16:
		return 7 // m = 1/8
	default:
		return 3 // m = 1/4
	}
}

// ACBTable is the 32-entry, 2-way set-associative table of learned
// branches.
type ACBTable struct {
	mask    int        // sets-1; the set count is a power of two
	entries []ACBEntry // sets*2
}

// NewACBTable returns a table with the given total entries (twice a power
// of two; the paper uses 32, 2-way).
func NewACBTable(entries int) *ACBTable {
	sets := entries / 2
	if entries%2 != 0 || sets < 1 || sets&(sets-1) != 0 {
		panic("core: ACB table needs two ways of a power-of-two set count")
	}
	return &ACBTable{mask: sets - 1, entries: make([]ACBEntry, entries)}
}

func (t *ACBTable) set(pc int) []ACBEntry {
	s := (pc ^ (pc >> 7)) & t.mask
	return t.entries[s*2 : s*2+2]
}

// Lookup returns the entry for pc, or nil.
func (t *ACBTable) Lookup(pc int) *ACBEntry {
	set := t.set(pc)
	for i := range set {
		if set[i].Valid && set[i].PC == pc {
			return &set[i]
		}
	}
	return nil
}

// Install inserts a learned convergence, evicting the way with the lower
// utility (then lower confidence).
func (t *ACBTable) Install(l *Learned) *ACBEntry {
	set := t.set(l.PC)
	victim := 0
	for i := range set {
		if !set[i].Valid {
			victim = i
			break
		}
		if set[i].PC == l.PC {
			victim = i
			break
		}
		if set[i].Utility < set[victim].Utility ||
			(set[i].Utility == set[victim].Utility && set[i].Confidence < set[victim].Confidence) {
			victim = i
		}
	}
	set[victim] = ACBEntry{
		Valid:      true,
		PC:         l.PC,
		Type:       l.Type,
		ReconPC:    l.ReconPC,
		FirstTaken: l.FirstTaken,
		BodySize:   l.BodySize,
		Backward:   l.Backward,
		Utility:    1,
	}
	return &set[victim]
}

// ForEach visits every valid entry.
func (t *ACBTable) ForEach(fn func(*ACBEntry)) {
	for i := range t.entries {
		if t.entries[i].Valid {
			fn(&t.entries[i])
		}
	}
}

// Len returns the number of valid entries.
func (t *ACBTable) Len() int {
	n := 0
	for i := range t.entries {
		if t.entries[i].Valid {
			n++
		}
	}
	return n
}

// StorageBits returns the hardware cost: per entry an address tag plus an
// 18-bit reconvergence offset, type, first-direction bit, 2-bit body-size
// class, 6-bit confidence, 2-bit utility, 3-bit Dynamo state and 4-bit
// involvement counter — 54 bits, 216 bytes for the 32-entry table.
func (t *ACBTable) StorageBits() int {
	const perEntry = 16 /*tag*/ + 18 /*recon offset*/ + 2 /*type*/ + 1 /*dir*/ +
		2 /*body class*/ + 6 /*confidence*/ + 2 /*utility*/ + 3 /*state*/ + 4 /*involvement*/
	return len(t.entries) * perEntry
}

// TrackingTable is the paper's single-entry convergence monitor: while an
// ACB entry's confidence is still building, each fetched (non-predicated)
// instance of the branch is checked for the learned reconvergence point
// appearing within the observation window; a miss resets the entry's
// confidence, excluding divergence-prone branches (Sec. III-B,
// "Convergence Confidence").
type TrackingTable struct {
	n       int
	active  bool
	pc      int
	reconPC int
	count   int
}

// NewTrackingTable returns a tracker with observation window n.
func NewTrackingTable(n int) *TrackingTable {
	return &TrackingTable{n: n}
}

// Arm begins monitoring one fetched instance of pc for recon.
func (t *TrackingTable) Arm(pc, recon int) {
	t.active = true
	t.pc = pc
	t.reconPC = recon
	t.count = 0
}

// Active reports whether a monitor is in flight.
func (t *TrackingTable) Active() bool { return t.active }

// Abort cancels the in-flight monitor (pipeline flush).
func (t *TrackingTable) Abort() { t.active = false }

// Observe feeds one fetched PC; it returns (pc, true) when the monitored
// instance failed to reach its reconvergence point in time.
func (t *TrackingTable) Observe(pc int) (int, bool) {
	if !t.active {
		return 0, false
	}
	if pc == t.reconPC {
		t.active = false
		return 0, false
	}
	t.count++
	if t.count > 2*t.n {
		t.active = false
		return t.pc, true
	}
	return 0, false
}

// StorageBits returns the hardware cost of the single entry.
func (t *TrackingTable) StorageBits() int { return 16 + 16 + 8 }
