package main

import "testing"

func snapshot(baseIPS, acbIPS float64, cycles int64) *Snapshot {
	return &Snapshot{
		Budget: 1000,
		Rows: []WorkloadRow{
			{Name: "w", Scheme: "baseline", Cycles: 900, Retired: 1000, AllocsPerKCyc: 1},
			{Name: "w", Scheme: "acb", Cycles: cycles, Retired: 1001, AllocsPerKCyc: 2},
		},
		Geomean: GeomeanSummary{
			NormalizedCPS: 1,
			NormalizedIPS: map[string]float64{"baseline": baseIPS, "acb": acbIPS},
		},
	}
}

func TestGate(t *testing.T) {
	base := snapshot(1, 1, 800)
	for _, tc := range []struct {
		name string
		cur  *Snapshot
		pass bool
	}{
		{"identical", snapshot(1, 1, 800), true},
		{"within tolerance", snapshot(0.95, 0.91, 800), true},
		{"faster", snapshot(1.5, 2, 800), true},
		// A combined cycles/sec gate alone would not see either of these.
		{"baseline instr/s drop", snapshot(0.85, 1.2, 800), false},
		{"acb instr/s drop", snapshot(1.2, 0.85, 800), false},
		{"timing moved", snapshot(1, 1, 801), false},
	} {
		if got := gate(base, tc.cur); got != tc.pass {
			t.Errorf("%s: gate = %v, want %v", tc.name, got, tc.pass)
		}
	}

	// A snapshot written before the per-scheme gates has no instr/s
	// geomeans: it cannot vouch for them and must be refreshed.
	old := snapshot(0, 0, 800)
	old.Geomean.NormalizedIPS = nil
	if gate(old, snapshot(1, 1, 800)) {
		t.Error("gate passed against a snapshot without per-scheme geomeans")
	}
}
