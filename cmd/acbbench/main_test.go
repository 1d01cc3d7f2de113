package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

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

// TestCompareLoadsBaselineBeforeWriting: with -compare and -out naming
// the same file, the gate must judge the fresh run against the file's
// old contents, not against the snapshot that just overwrote it. The
// planted baseline claims a throughput no host reaches, so the gate
// fails.
func TestCompareLoadsBaselineBeforeWriting(t *testing.T) {
	const budget = 2000
	path := filepath.Join(t.TempDir(), "snap.json")
	unreachable := &Snapshot{
		Budget: budget,
		Geomean: GeomeanSummary{
			NormalizedCPS: 1e18,
			NormalizedIPS: map[string]float64{"baseline": 1e18, "acb": 1e18},
		},
	}
	buf, err := json.Marshal(unreachable)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	args := []string{"-budget", strconv.Itoa(budget), "-repeat", "1", "-compare", path, "-out", path}
	if code := run(args); code != 1 {
		t.Fatalf("acbbench %v exited %d, want 1 (gate FAIL against the planted baseline)", args, code)
	}
}
