package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"acb/internal/isa"
)

// testSizes shrinks every workload so that a smoke run of each takes a
// few seconds.
var testSizes = sizes{
	detailedBudget: 20_000,
	sampledBudget:  300_000,
	traceLen:       200_000,
	replayBudget:   20_000,
	replayPrograms: []string{"gobmk", "hmmer"},
	acbdBudget:     10_000,
	acbdRepeats:    3,
	setupReps:      1,
	fleetStarts:    1,
	suite:          []string{"gobmk", "hmmer", "libquantum"},
}

// benchmarkJSON reads the metric declarations of BENCHMARK.json.
func benchmarkJSON(t *testing.T) (e2e, layer []metricDef) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Work     []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, m := range doc.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range doc.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	var names []string
	for _, w := range doc.Work {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames())
	}
	return e2e, layer
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	e2e, layer := benchmarkJSON(t)
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json %v, benchmark declares %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json %v, benchmark declares %v", layer, perLayer)
	}
}

// TestSmoke runs every workload at small sizes, untraced and traced, and
// checks that it passes its own correctness checks and prints exactly the
// metrics BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	e2e, layer := benchmarkJSON(t)
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			res, err := execute(name, settings{seed: defaultSeed, seconds: 1, trace: traced, work: t.TempDir(), sizes: testSizes})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := e2e
			if traced {
				want = layer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, %d declared", name, traced, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, traced, d.name, m, d.unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, m.Value)
				}
			}
		}
	}
}

// TestSeedDiscipline: one seed always yields the same inputs and the same
// simulated counts; two seeds yield the same code with different data.
func TestSeedDiscipline(t *testing.T) {
	build := func(seed uint64) []program {
		ws, err := suite(seed, testSizes.suite)
		if err != nil {
			t.Fatal(err)
		}
		r := &run{tr: newTracer(false)}
		return r.buildAll(ws, 0)
	}
	a, b, c := build(defaultSeed), build(defaultSeed), build(heldOutSeed)
	for i := range a {
		if !reflect.DeepEqual(a[i].prog, b[i].prog) || !a[i].mem.Equal(b[i].mem) {
			t.Errorf("%s: seed %d built different inputs twice", a[i].name, defaultSeed)
		}
		if !reflect.DeepEqual(a[i].prog, c[i].prog) {
			t.Errorf("%s: seeds %d and %d built different code", a[i].name, defaultSeed, heldOutSeed)
		}
		if a[i].mem.Equal(c[i].mem) {
			t.Errorf("%s: seeds %d and %d built the same data", a[i].name, defaultSeed, heldOutSeed)
		}
		for _, s := range schemes {
			x, err := simulate(&a[i], s, testSizes.detailedBudget, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			y, err := simulate(&b[i], s, testSizes.detailedBudget, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if countsOf(&x.res) != countsOf(&y.res) {
				t.Errorf("%s/%s: one seed gave different simulated counts", a[i].name, s)
			}
		}
	}
}

// TestTamper proves the checks catch a wrong result: a flipped register
// word or memory word of a detailed run, and a flipped cell of an acbd
// result, each fail.
func TestTamper(t *testing.T) {
	ws, err := suite(defaultSeed, []string{"gobmk"})
	if err != nil {
		t.Fatal(err)
	}
	p := (&run{tr: newTracer(false)}).buildAll(ws, 0)[0]
	o, err := simulate(&p, "acb", testSizes.detailedBudget, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	commit := o.core.CommitMemory()
	if d := functionalDiff(p.prog, p.mem, o.res.Retired, o.res.FinalRegs, commit); d != "" {
		t.Fatalf("untampered run fails the check: %s", d)
	}
	regs := o.res.FinalRegs
	regs[isa.NumRegs/2] ^= 1
	if functionalDiff(p.prog, p.mem, o.res.Retired, regs, commit) == "" {
		t.Error("a flipped FinalRegs word passed the functional check")
	}
	bad := commit.Clone()
	addr := int64(0x20_0000) // a data-table word every suite program initialises
	bad.Store(addr, bad.Load(addr)^1)
	if functionalDiff(p.prog, p.mem, o.res.Retired, o.res.FinalRegs, bad) == "" {
		t.Error("a flipped committed-memory word passed the functional check")
	}

	direct := []byte(`{"columns":["group","geomean-speedup"],"rows":[["ALL","1.0125"]]}`)
	flipped := []byte(`{"columns":["group","geomean-speedup"],"rows":[["ALL","1.0126"]]}`)
	cases := []struct {
		name string
		recs []reqRec
	}{
		{"cold cell", []reqRec{{cold: true, name: "gobmk", key: "k1", body: flipped}}},
		{"repeat cell", []reqRec{
			{cold: true, name: "gobmk", key: "k1", body: direct},
			{name: "gobmk", key: "k1", body: flipped},
		}},
	}
	for _, tc := range cases {
		r := &run{name: "tamper", tr: newTracer(false)}
		cold := map[string][]byte{}
		for _, rec := range tc.recs {
			if rec.cold {
				cold[rec.key] = rec.body
			}
		}
		r.verifyBodies(tc.recs, map[string][]byte{"gobmk": direct}, cold)
		if r.failed != 1 {
			t.Errorf("%s: %d failures, want 1", tc.name, r.failed)
		}
	}
}
