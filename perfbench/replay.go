package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"time"

	"acb/internal/bpu"
	"acb/internal/experiments"
	"acb/internal/ooo"
	"acb/internal/trace"
	"acb/internal/workload"
)

// replayOp is one trace's load and replays in a round.
type replayOp struct {
	load, decode, verify time.Duration // decode/verify: traced round only
	replays              time.Duration
	bytes, branches      int64
	steps                int64
	host                 float64 // calibration speed around the op, Mop/s
}

// runReplay is the trace-replay workload. Set-up records a
// multi-million-instruction trace of each of a fixed set of suite
// programs (data seeded). Each round loads every trace the way a
// trace:<file> workload is loaded (decode and functional verification),
// loads the committed adversarial corpus the same way, and replays each
// trace under both schemes for a short budget, so the trace layer is a
// large share of the time.
func runReplay(r *run) error {
	ws, err := suite(r.seed, r.sizes.replayPrograms)
	if err != nil {
		return err
	}
	var progs []program
	var paths []string
	var builds []float64
	if err := r.setup(r.sizes.setupReps, func(rep int) error {
		dir := filepath.Join(r.dir, fmt.Sprintf("traces-%d", rep))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		t0 := time.Now()
		progs = r.buildAll(ws, 0)
		builds = append(builds, time.Since(t0).Seconds())
		paths = paths[:0]
		for i := range progs {
			path := filepath.Join(dir, progs[i].name+".trace")
			sp := r.tr.begin("trace.record", 0, 0)
			steps, halted, err := trace.RecordFile(path, progs[i].prog, progs[i].mem, r.sizes.traceLen,
				trace.Header{Source: progs[i].name, Kind: "workload", Seed: ws[i].Spec.Seed})
			r.tr.end(sp)
			if err != nil {
				return err
			}
			if halted || steps != r.sizes.traceLen {
				return fmt.Errorf("%s: recorded %d of %d instructions", progs[i].name, steps, r.sizes.traceLen)
			}
			paths = append(paths, path)
		}
		return nil
	}); err != nil {
		return err
	}
	r.layer["workload.build_s"] = median(builds)

	profPath, stopProfile, err := r.startProfile()
	if err != nil {
		return err
	}
	defer stopProfile()
	// first holds round 0's counts: recorded traces at 2i+s, then the
	// adversarial entries.
	first := map[string]counts{}
	var rounds []simRound
	var ops [][]replayOp
	start := time.Now()
	for k := 0; r.measuring(start, k, 3, estimate(rounds)); k++ {
		rd, op, _, _ := r.replayRound(progs, paths, k, first, false, r.trace && k > 0)
		rounds = append(rounds, rd)
		ops = append(ops, op)
	}
	measured, mops := rounds[1:], ops[1:]
	r.simMetrics(measured)
	var lat []float64
	for _, round := range mops {
		for _, o := range round {
			lat = append(lat, ms(o.load+o.replays)*ratio(o.host, calNominal))
		}
	}
	r.metrics["p50_ms"] = quantile(lat, 0.5)
	r.metrics["p90_ms"] = quantile(lat, 0.9)
	if !r.trace {
		return nil
	}

	stopProfile()
	var speedups []float64
	for _, rd := range measured {
		speedups = append(speedups, rd.speedup)
	}
	r.layer["experiments.pool_speedup"] = median(speedups)
	r.oooLayer(measured)
	rd, tops, bst, hst := r.replayRound(progs, paths, 1, first, true, false)
	if err := r.profileLayer(profPath, len(measured), bst, hst); err != nil {
		return err
	}
	var retired, acbRetired float64
	for _, rec := range rd.recs {
		retired += float64(rec.c.Retired)
		if rec.scheme == "acb" {
			acbRetired += float64(rec.c.Retired)
		}
	}
	r.bpuCounts(&bst, retired)
	r.layer["core.hook_calls_per_kinstr"] = ratio(float64(hst.calls)*1000, acbRetired)
	r.layer["core.predicated_useful_ratio"] = ratio(float64(hst.useful), float64(hst.predicated))

	var bytes, branches, steps, decode, verify, load, total float64
	for _, o := range tops {
		bytes += float64(o.bytes)
		branches += float64(o.branches)
		steps += float64(o.steps)
		decode += o.decode.Seconds()
		verify += o.verify.Seconds()
		load += o.load.Seconds()
		total += (o.load + o.replays).Seconds()
	}
	r.layer["trace.decode_mb_s"] = ratio(bytes/1e6, decode)
	r.layer["trace.verify_minstr_s"] = ratio(steps/1e6, verify)
	r.layer["trace.bytes_per_branch"] = ratio(bytes, branches)
	r.layer["trace.load_share"] = ratio(load, total)
	var base []float64
	for _, round := range mops {
		t := 0.0
		for _, o := range round {
			t += (o.load + o.replays).Seconds()
		}
		base = append(base, t)
	}
	r.layer["trace_overhead_pct"] = (ratio(total, median(base)) - 1) * 100
	r.isaLayer(progs, r.sizes.traceLen)
	r.memLayer(progs, r.sizes.replayBudget)
	return nil
}

// replayRound loads and replays every recorded trace, plus the
// adversarial corpus as one more job, on the pool. Round 0 checks every
// replay against the functional emulator and each recorded trace's
// replay against a direct run of its program, and stores the simulated
// counts in first; later rounds compare with first. The traced round
// decodes and verifies separately to time each, and counts predictor and
// ACB hook calls.
func (r *run) replayRound(progs []program, paths []string, k int, first map[string]counts, traced, labels bool) (simRound, []replayOp, bpuStats, hookStats) {
	m := len(paths)
	ops := make([]replayOp, m)
	recs := make([]simRec, 2*m)
	bs := make([]bpuStats, m+1)
	hs := make([]hookStats, m+1)
	rs := &experiments.RunnerStats{}
	pool := r.tr.begin("experiments.pool", 0, 0)
	var mu sync.Mutex // guards first
	t0 := time.Now()
	host, err := calPool(rs, m+1, func(i int) {
		op := int64(k*(m+1) + i + 1)
		var traces []program
		lsp := r.tr.begin("trace.load", pool, op)
		lt := time.Now()
		if i == m {
			advs, err := workload.Adversarial()
			if err != nil {
				r.fail("adversarial corpus: %v", err)
				r.tr.end(lsp)
				return
			}
			for j := range advs {
				p, mem := advs[j].Build()
				traces = append(traces, program{name: advs[j].Name, prog: p, mem: mem})
			}
		} else if traced {
			t, err := trace.DecodeFile(paths[i])
			ops[i].decode = time.Since(lt)
			if err != nil {
				r.fail("%s: %v", paths[i], err)
				r.tr.end(lsp)
				return
			}
			vt := time.Now()
			err = t.Verify()
			ops[i].verify = time.Since(vt)
			if err != nil {
				r.fail("%s: %v", paths[i], err)
			}
			fi, err := os.Stat(paths[i])
			if err == nil {
				ops[i].bytes = fi.Size()
			}
			ops[i].branches, ops[i].steps = int64(len(t.Branches)), t.Steps
			traces = append(traces, program{name: progs[i].name, prog: t.Prog, mem: t.Memory()})
		} else {
			w, err := workload.FromTrace(paths[i])
			if err != nil {
				r.fail("%v", err)
				r.tr.end(lsp)
				return
			}
			p, mem := w.Build()
			traces = append(traces, program{name: progs[i].name, prog: p, mem: mem})
		}
		load := time.Since(lt)
		r.tr.end(lsp)

		var replays time.Duration
		for j := range traces {
			for si, scheme := range schemes {
				key := fmt.Sprintf("%s/%s", traces[j].name, scheme)
				var pred bpu.Predictor
				var sch ooo.Scheme
				if traced {
					pred = &countingPredictor{inner: bpu.NewTAGE(bpu.DefaultTAGEConfig()), st: &bs[i]}
					if scheme == "acb" {
						sch = &countingScheme{inner: newScheme(scheme), st: &hs[i]}
					}
				}
				r.attempt(1)
				var o simOut
				var err error
				job := func(context.Context) {
					sp := r.tr.begin("ooo.run", pool, op)
					o, err = simulate(&traces[j], scheme, r.sizes.replayBudget, pred, sch)
					r.tr.end(sp)
				}
				if labels {
					pprof.Do(context.Background(), pprof.Labels("scheme", scheme), job)
				} else {
					job(nil)
				}
				if err != nil {
					r.fail("replay %v", err)
					continue
				}
				replays += o.dur
				c := countsOf(&o.res)
				if i < m {
					recs[2*i+si] = simRec{prog: i, scheme: scheme, c: c, dur: o.dur}
				}
				if k > 0 || traced {
					mu.Lock()
					want := first[key]
					mu.Unlock()
					if c != want {
						r.fail("%s: replayed counts differ from round 0's", key)
					}
					continue
				}
				mu.Lock()
				first[key] = c
				mu.Unlock()
				if d := functionalDiff(traces[j].prog, traces[j].mem, o.res.Retired, o.res.FinalRegs, o.core.CommitMemory()); d != "" {
					r.fail("%s: %s", key, d)
				}
				if i < m {
					direct, err := simulate(&progs[i], scheme, r.sizes.replayBudget, nil, nil)
					if err != nil {
						r.fail("direct %v", err)
					} else if countsOf(&direct.res) != c {
						r.fail("%s: replay differs from the direct run of the same program", key)
					}
				}
			}
		}
		if i < m {
			ops[i].load, ops[i].replays = load, replays
		}
	})
	wall := time.Since(t0)
	r.tr.end(pool)
	if err != nil {
		r.fail("pool: %v", err)
	}
	var b bpuStats
	var h hookStats
	for i := range bs {
		b.add(&bs[i])
		h.add(&hs[i])
	}
	for i := range recs {
		recs[i].host = host.near[i/2]
	}
	for i := range ops {
		ops[i].host = host.near[i]
	}
	sp, _ := rs.Speedup()
	return simRound{recs: recs, wall: wall, speedup: sp, host: host.all}, ops, b, h
}
