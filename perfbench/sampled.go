package main

import (
	"context"
	"math"
	"runtime/pprof"
	"time"

	"acb/internal/bpu"
	"acb/internal/config"
	"acb/internal/experiments"
	"acb/internal/ooo"
	"acb/internal/sample"
)

// sampledOp is what one sampled run reports beyond its counts.
type sampledOp struct {
	cpi       float64
	boundary  int           // windows whose end state differs from the functional reference
	detailed  int64         // warm-up + measured instructions
	ff        time.Duration // functional fast-forward, before the first window
	windowDur []time.Duration
}

// runSampled is the fig6-sampled workload: sample.Run with window
// verification over every suite program, under both schemes, at a budget
// where the detailed windows cover a few percent of the instructions.
// Most of the host time is functional fast-forward with predictor and
// cache warming; the detailed core runs many short checkpoint-restored
// windows instead of one long run.
func runSampled(r *run) error {
	ws, err := suite(r.seed, r.sizes.suite)
	if err != nil {
		return err
	}
	var progs []program
	var builds []float64
	if err := r.setup(r.sizes.setupReps, func(int) error {
		t0 := time.Now()
		progs = r.buildAll(ws, 0)
		builds = append(builds, time.Since(t0).Seconds())
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
	first := make([]counts, 2*len(progs))
	var ops0 []sampledOp
	var rounds []simRound
	start := time.Now()
	for k := 0; r.measuring(start, k, 3, estimate(rounds)); k++ {
		rd, ops, _ := r.sampledRound(progs, k, first, false, r.trace && k > 0)
		if k == 0 {
			ops0 = ops
		}
		rounds = append(rounds, rd)
	}
	measured := rounds[1:] // round 0 warms the process up
	r.simMetrics(measured)
	if !r.trace {
		return nil
	}

	var speedups []float64
	for _, rd := range measured {
		speedups = append(speedups, rd.speedup)
	}
	r.layer["experiments.pool_speedup"] = median(speedups)
	stopProfile()
	bst := r.sampledTraced(progs, first, measured)
	if err := r.profileLayer(profPath, len(measured), bst, hookStats{}); err != nil {
		return err
	}
	r.cpiError(progs, ops0)
	r.memLayer(progs, r.sizes.detailedBudget)
	r.isaLayer(progs, r.sizes.sampledBudget)
	return nil
}

// sampledRound runs every (program, scheme) sampled simulation once on
// the pool. With traced set it wraps the predictor, times every window
// job and the fast-forward before it, and returns per-run detail.
func (r *run) sampledRound(progs []program, k int, first []counts, traced, labels bool) (simRound, []sampledOp, bpuStats) {
	n := 2 * len(progs)
	budget := r.sizes.sampledBudget
	plan := sample.PlanForBudget(budget)
	recs := make([]simRec, n)
	ops := make([]sampledOp, n)
	bs := make([]bpuStats, n)
	rs := &experiments.RunnerStats{}
	pool := r.tr.begin("experiments.pool", 0, 0)
	r.attempt(n)
	t0 := time.Now()
	host, err := calPool(rs, n, func(i int) {
		p, scheme := &progs[i/2], schemes[i%2]
		op := int64(k*n + i + 1)
		opts := sample.Options{Budget: budget, Config: config.Skylake(), Verify: true}
		if scheme == "acb" {
			opts.NewScheme = func() ooo.Scheme { return newScheme("acb") }
		}
		sp := r.tr.begin("sample.run", pool, op)
		var begun time.Time
		if traced {
			opts.NewPredictor = func() bpu.Predictor {
				return &countingPredictor{inner: bpu.NewTAGE(bpu.DefaultTAGEConfig()), st: &bs[i]}
			}
			opts.Pool = func(nw int, run func(int)) error {
				ops[i].ff = time.Since(begun)
				for w := 0; w < nw; w++ {
					ws := r.tr.begin("ooo.window", sp, op)
					t := time.Now()
					run(w)
					ops[i].windowDur = append(ops[i].windowDur, time.Since(t))
					r.tr.end(ws)
				}
				return nil
			}
		}
		// sample.Run snapshots its image copy-on-write, which marks the
		// image; each run gets its own copy because both schemes of a
		// program run side by side.
		img := p.mem.Clone()
		var est *sample.Estimate
		var err error
		run := func(context.Context) {
			begun = time.Now()
			est, err = sample.Run(p.prog, img, plan, opts)
		}
		if labels {
			pprof.Do(context.Background(), pprof.Labels("scheme", scheme), run)
		} else {
			run(nil)
		}
		d := time.Since(begun)
		r.tr.end(sp)
		if err != nil {
			r.fail("%s/%s: sampled run: %v", p.name, scheme, err)
			return
		}
		c := counts{Cycles: est.MeasuredCycles, Retired: est.TotalInstrs}
		for wi := range est.Windows {
			w := &est.Windows[wi]
			if w.BoundaryDiff != "" {
				r.fail("%s/%s: window %d: %s", p.name, scheme, wi, w.BoundaryDiff)
				ops[i].boundary++
			}
			c.Flushes += w.Result.Flushes
			c.DivFlushes += w.Result.DivFlushes
			c.Mispredicts += w.Result.Mispredicts
			c.Predications += w.Result.Predications
			c.L1Hits += w.Result.L1Hits
			c.L1Misses += w.Result.L1Misses
			c.LLCHits += w.Result.LLCHits
			c.LLCMisses += w.Result.LLCMisses
			c.FinalRegs = w.Result.FinalRegs
			ops[i].detailed += w.Warmup + w.Measure
		}
		ops[i].cpi = est.CPI
		recs[i] = simRec{prog: i / 2, scheme: scheme, c: c, dur: d}
		switch {
		case est.Halted || est.TotalInstrs != budget:
			r.fail("%s/%s: sampled run covered %d of %d instructions", p.name, scheme, est.TotalInstrs, budget)
		case k == 0:
			first[i] = c
		case c != first[i]:
			r.fail("%s/%s: sampled counts differ from round 0's", p.name, scheme)
		}
	})
	wall := time.Since(t0)
	r.tr.end(pool)
	if err != nil {
		r.fail("pool: %v", err)
	}
	var b bpuStats
	for i := range bs {
		b.add(&bs[i])
	}
	for i := range recs {
		recs[i].host = host.near[i]
	}
	sp, _ := rs.Speedup()
	return simRound{recs: recs, wall: wall, speedup: sp, host: host.all}, ops, b
}

// sampledTraced runs the traced round, reports the sample layer and
// returns the round's predictor call counts.
func (r *run) sampledTraced(progs []program, first []counts, untraced []simRound) bpuStats {
	rd, ops, bst := r.sampledRound(progs, 1, first, true, false)
	var total, ff, detailed, instrs, boundary float64
	var wins []float64
	for i, o := range ops {
		boundary += float64(o.boundary)
		total += rd.recs[i].dur.Seconds()
		ff += o.ff.Seconds()
		detailed += float64(o.detailed)
		instrs += float64(rd.recs[i].c.Retired)
		for _, w := range o.windowDur {
			wins = append(wins, ms(w))
		}
	}
	r.layer["sample.ff_share"] = ratio(ff, total)
	r.layer["sample.window_ms"] = mean(wins)
	r.layer["sample.windows"] = ratio(float64(len(wins)), float64(len(ops)))
	r.layer["sample.detailed_frac"] = ratio(detailed, instrs)
	r.layer["sample.boundary_failures"] = boundary

	var l1h, l1m, llch, llcm float64
	for _, rec := range rd.recs {
		l1h, l1m = l1h+float64(rec.c.L1Hits), l1m+float64(rec.c.L1Misses)
		llch, llcm = llch+float64(rec.c.LLCHits), llcm+float64(rec.c.LLCMisses)
	}
	r.layer["mem.l1_hit_ratio"] = ratio(l1h, l1h+l1m)
	r.layer["mem.llc_hit_ratio"] = ratio(llch, llch+llcm)

	var base []float64
	for _, u := range untraced {
		t := 0.0
		for _, rec := range u.recs {
			t += rec.dur.Seconds()
		}
		base = append(base, t)
	}
	r.layer["trace_overhead_pct"] = (ratio(total, median(base)) - 1) * 100
	r.bpuCounts(&bst, instrs)
	return bst
}

// cpiError compares each baseline sampled CPI estimate of round 0 with a
// full detailed run of the same program over the same instructions, and
// checks the documented error bounds: the worst-case bound on every
// program, the mean bound across the full suite.
func (r *run) cpiError(progs []program, ops []sampledOp) {
	n := len(progs)
	full := make([]float64, n)
	pool := r.tr.begin("experiments.pool", 0, 0)
	r.attempt(n)
	err := experiments.Pool(experiments.Options{Jobs: poolJobs}, n, func(i int) {
		sp := r.tr.begin("ooo.run", pool, int64(2_000_000+i))
		o, err := simulate(&progs[i], "baseline", r.sizes.sampledBudget, nil, nil)
		r.tr.end(sp)
		if err != nil {
			r.fail("full run: %v", err)
			return
		}
		full[i] = float64(o.res.Cycles) / float64(o.res.Retired)
	})
	r.tr.end(pool)
	if err != nil {
		r.fail("pool: %v", err)
	}
	var errs []float64
	worst := 0.0
	for i := range progs {
		if full[i] == 0 {
			continue
		}
		e := math.Abs((ops[2*i].cpi - full[i]) / full[i] * 100)
		errs = append(errs, e)
		worst = max(worst, e)
		if e > experiments.SampledWorstErrorPct {
			r.fail("%s: sampled CPI error %.2f%% exceeds %.0f%%", progs[i].name, e, experiments.SampledWorstErrorPct)
		}
	}
	// The mean bound is documented across the whole suite.
	if m := mean(errs); r.sizes.suite == nil && m > experiments.SampledMeanErrorPct {
		r.fail("mean sampled CPI error %.2f%% exceeds %.0f%%", m, experiments.SampledMeanErrorPct)
	}
	r.layer["sample.cpi_err_pct_max"] = worst
	r.layer["sample.cpi_err_pct_mean"] = mean(errs)
}
