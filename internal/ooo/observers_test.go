package ooo_test

import (
	"reflect"
	"testing"

	"acb/internal/bpu"
	"acb/internal/config"
	"acb/internal/core"
	"acb/internal/ooo"
	"acb/internal/workload"
)

// observed is everything the per-cycle observers report after a run.
type observed struct {
	res     ooo.Result
	pipe    string
	maxRob  int
	maxIQ   int
	events  []ooo.TraceEvent
	dropped int64
}

// observe builds a core with the CPI stack, pipeline stats and a trace
// ring attached (the ring shared with ACB, as acbtrace and the fuzzer
// attach it) and runs it to budget, by Run or by a StepCycle loop.
func observe(t *testing.T, cfg config.Core, w workload.Workload, acb, step bool, budget int64) observed {
	t.Helper()
	p, m := w.Build()
	var scheme ooo.Scheme
	var a *core.ACB
	if acb {
		a = core.New(core.DefaultConfig())
		scheme = a
	}
	c := ooo.NewWithMemory(cfg, p, bpu.NewTAGE(bpu.DefaultTAGEConfig()), scheme, m)
	c.EnableCPIStack()
	c.EnablePipeStats()
	tr := c.EnableTrace(1 << 12)
	if a != nil {
		a.SetTrace(tr)
	}
	var res ooo.Result
	if step {
		halted := false
		for c.Retired() < budget && !halted {
			halted = c.StepCycle()
		}
		res = c.StepResult(halted)
	} else {
		var err error
		if res, err = c.Run(budget); err != nil {
			t.Fatalf("%s on %s: %v", w.Name, cfg.Name, err)
		}
	}
	o := observed{res: res, pipe: c.PipeStats().String(), events: tr.Events(), dropped: tr.Dropped()}
	o.maxRob, o.maxIQ = c.PipeStats().MaxOccupancy()
	return o
}

// TestObserversRideSkip: with every per-cycle observer attached, Run still
// skips quiescent stretches, and each observer replays a skipped stretch
// exactly. Run and a StepCycle loop, which visits every cycle, must agree
// on the Result (CPI stack included, down to its flush-repair state), the
// pipeline report and occupancy maxima, and the trace ring's events and
// drop count. milc, soplex and mcf spend most cycles in skipped miss
// stalls; leela is branchy, so flush-repair and ACB cycles fall between
// skipped stretches.
func TestObserversRideSkip(t *testing.T) {
	budget := int64(20_000)
	if testing.Short() {
		budget = 8_000
	}
	narrow := config.Skylake()
	narrow.Name = "skylake-issue2"
	narrow.IssueWidth = 2
	for _, name := range []string{"milc", "soplex", "mcf", "leela"} {
		w, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range []config.Core{config.Skylake(), narrow} {
			for _, acb := range []bool{false, true} {
				got := observe(t, cfg, w, acb, false, budget)
				want := observe(t, cfg, w, acb, true, budget)
				label := name + "/" + cfg.Name + "/" + got.res.Scheme
				if !reflect.DeepEqual(got.res, want.res) {
					t.Errorf("%s: Run result differs from the stepped run:\n got %+v\nwant %+v\n got CPI %v\nwant CPI %v",
						label, got.res, want.res, got.res.CPI.Buckets(), want.res.CPI.Buckets())
				}
				if got.pipe != want.pipe || got.maxRob != want.maxRob || got.maxIQ != want.maxIQ {
					t.Errorf("%s: pipeline stats differ (max ROB/IQ %d/%d, stepped %d/%d):\n got %s\nwant %s",
						label, got.maxRob, got.maxIQ, want.maxRob, want.maxIQ, got.pipe, want.pipe)
				}
				if got.dropped != want.dropped || !reflect.DeepEqual(got.events, want.events) {
					t.Errorf("%s: trace differs: %d events, %d dropped; stepped %d events, %d dropped",
						label, len(got.events), got.dropped, len(want.events), want.dropped)
				}
				if got.res.CPI.Sum() != got.res.Cycles || len(got.events) == 0 {
					t.Errorf("%s: CPI sum %d over %d cycles, %d events", label, got.res.CPI.Sum(), got.res.Cycles, len(got.events))
				}
			}
		}
	}
}
