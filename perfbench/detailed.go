package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"acb/internal/bpu"
	"acb/internal/config"
	"acb/internal/experiments"
	"acb/internal/isa"
	"acb/internal/mem"
	"acb/internal/ooo"
)

// poolJobs is the simulation parallelism of every pool the benchmark
// runs: one job per core of the 2-core reference host.
const poolJobs = 2

// simRec is one simulation of a round.
type simRec struct {
	prog   int
	scheme string
	c      counts
	dur    time.Duration
	host   float64 // calibration speed around the run, Mop/s
}

// norm is the factor that scales the run's host time to the reference
// host's speed (see calNominal).
func (rec *simRec) norm() float64 { return ratio(rec.host, calNominal) }

// simRound is one pass over every (program, scheme) pair.
type simRound struct {
	recs    []simRec
	wall    time.Duration
	speedup float64
	host    float64 // calibration speed the round's pool saw, Mop/s
}

// norm is the factor that scales the round's host times to the reference
// host's speed (see calNominal).
func (rd *simRound) norm() float64 { return ratio(rd.host, calNominal) }

// runDetailed is the fig6-detailed workload: every suite program under
// baseline and ACB, each simulation a full detailed run from empty caches
// and predictor, on a 2-job experiments pool. Round 0 warms the process
// up and checks every simulation against the functional emulator; later
// rounds are measured and must repeat round 0's simulated counts exactly.
func runDetailed(r *run) error {
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
	budget := r.sizes.detailedBudget
	first := make([]counts, 2*len(progs))
	var rounds []simRound
	start := time.Now()
	for k := 0; r.measuring(start, k, 3, estimate(rounds)); k++ {
		rounds = append(rounds, r.simRound(progs, budget, k, first, r.trace && k > 0))
	}
	measured := rounds[1:]
	r.simMetrics(measured)

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
	bst, hst := r.tracedSims(progs, budget, first, measured)
	if err := r.profileLayer(profPath, len(measured), bst, hst); err != nil {
		return err
	}
	r.memLayer(progs, budget)
	r.isaLayer(progs, 5*budget)
	return nil
}

// startProfile starts the CPU profile of a traced run and returns its
// path and the function that stops it (harmless to call twice). An
// untraced run takes no profile.
func (r *run) startProfile() (string, func(), error) {
	if !r.trace {
		return "", func() {}, nil
	}
	path := filepath.Join(r.work, fmt.Sprintf("cpu-%s-seed%d.pprof", r.name, r.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return "", nil, err
	}
	var once sync.Once
	return path, func() {
		once.Do(func() {
			pprof.StopCPUProfile()
			f.Close()
		})
	}, nil
}

// estimate predicts the next round's length from the rounds so far.
func estimate(rounds []simRound) time.Duration {
	var ws []float64
	for _, rd := range rounds {
		ws = append(ws, float64(rd.wall))
	}
	return time.Duration(median(ws))
}

// simRound runs every (program, scheme) simulation once on the pool.
// Round 0 records the simulated counts in first and checks each run
// against the functional emulator; later rounds compare with first.
func (r *run) simRound(progs []program, budget int64, k int, first []counts, labels bool) simRound {
	n := 2 * len(progs)
	recs := make([]simRec, n)
	rs := &experiments.RunnerStats{}
	pool := r.tr.begin("experiments.pool", 0, 0)
	r.attempt(n)
	t0 := time.Now()
	host, err := calPool(rs, n, func(i int) {
		p, scheme := &progs[i/2], schemes[i%2]
		op := int64(k*n + i + 1)
		job := func(context.Context) {
			sp := r.tr.begin("ooo.run", pool, op)
			o, err := simulate(p, scheme, budget, nil, nil)
			r.tr.end(sp)
			if err != nil {
				r.fail("%v", err)
				return
			}
			recs[i] = simRec{prog: i / 2, scheme: scheme, c: countsOf(&o.res), dur: o.dur}
			if k == 0 {
				first[i] = recs[i].c
				sp := r.tr.begin("isa.check", pool, op)
				d := functionalDiff(p.prog, p.mem, o.res.Retired, o.res.FinalRegs, o.core.CommitMemory())
				r.tr.end(sp)
				if d != "" {
					r.fail("%s/%s: %s", p.name, scheme, d)
				}
				if o.res.Retired < budget {
					r.fail("%s/%s: retired %d of %d instructions", p.name, scheme, o.res.Retired, budget)
				}
			} else if recs[i].c != first[i] {
				r.fail("%s/%s: simulated counts differ between rounds of one seed", p.name, scheme)
			}
		}
		if labels {
			pprof.Do(context.Background(), pprof.Labels("scheme", scheme), job)
		} else {
			job(nil)
		}
	})
	wall := time.Since(t0)
	r.tr.end(pool)
	if err != nil {
		r.fail("pool: %v", err)
	}
	sp, _ := rs.Speedup()
	for i := range recs {
		recs[i].host = host.near[i]
	}
	return simRound{recs: recs, wall: wall, speedup: sp, host: host.all}
}

// simMetrics sets the end-to-end metrics of a simulation workload from
// its measured rounds, each normalized to the reference host's speed:
// the median round wall time, each scheme's geomean instr/s (median over
// rounds), and per-simulation latency percentiles.
func (r *run) simMetrics(rounds []simRound) {
	var walls, lat []float64
	gm := map[string][]float64{}
	for _, rd := range rounds {
		walls = append(walls, rd.wall.Seconds()*rd.norm())
		per := map[string][]float64{}
		for _, rec := range rd.recs {
			if rec.dur <= 0 {
				continue
			}
			f := rec.norm()
			per[rec.scheme] = append(per[rec.scheme], float64(rec.c.Retired)/(rec.dur.Seconds()*f)/1e6)
			lat = append(lat, ms(rec.dur)*f)
		}
		for _, s := range schemes {
			gm[s] = append(gm[s], geomean(per[s]))
		}
	}
	r.metrics["wall_s"] = median(walls)
	r.metrics["baseline_minstr_s"] = median(gm["baseline"])
	r.metrics["acb_minstr_s"] = median(gm["acb"])
	r.metrics["p50_ms"] = quantile(lat, 0.5)
	r.metrics["p90_ms"] = quantile(lat, 0.9)
}

// oooLayer reports the simulated statistics (identical in every round)
// and the host cost per simulated cycle and per scheme.
func (r *run) oooLayer(rounds []simRound) {
	type agg struct {
		cycles, retired, misp, flushes, div, preds, l1h, l1m, llch, llcm int64
		ipc                                                              []float64
	}
	a := map[string]*agg{"baseline": {}, "acb": {}}
	for _, rec := range rounds[0].recs {
		g := a[rec.scheme]
		if g == nil || rec.c.Cycles == 0 {
			continue
		}
		g.cycles += rec.c.Cycles
		g.retired += rec.c.Retired
		g.misp += rec.c.Mispredicts
		g.flushes += rec.c.Flushes
		g.div += rec.c.DivFlushes
		g.preds += rec.c.Predications
		g.l1h += rec.c.L1Hits
		g.l1m += rec.c.L1Misses
		g.llch += rec.c.LLCHits
		g.llcm += rec.c.LLCMisses
		g.ipc = append(g.ipc, float64(rec.c.Retired)/float64(rec.c.Cycles))
	}
	pki := func(n, retired int64) float64 { return ratio(float64(n)*1000, float64(retired)) }
	var l1h, l1m, llch, llcm int64
	for _, s := range schemes {
		g := a[s]
		r.layer["ooo."+s+".ipc"] = geomean(g.ipc)
		r.layer["ooo."+s+".mpki"] = pki(g.misp, g.retired)
		r.layer["ooo."+s+".flushes_pki"] = pki(g.flushes, g.retired)
		l1h, l1m, llch, llcm = l1h+g.l1h, l1m+g.l1m, llch+g.llch, llcm+g.llcm
	}
	r.layer["ooo.acb.div_flushes_pki"] = pki(a["acb"].div, a["acb"].retired)
	r.layer["ooo.acb.predications_pki"] = pki(a["acb"].preds, a["acb"].retired)
	r.layer["mem.l1_hit_ratio"] = ratio(float64(l1h), float64(l1h+l1m))
	r.layer["mem.llc_hit_ratio"] = ratio(float64(llch), float64(llch+llcm))

	// Host cost: ns per simulated cycle (median over rounds of the
	// per-scheme totals) and per-program ACB/baseline instr/s.
	nsPerCycle := map[string][]float64{}
	perProg := map[int]map[string][]float64{}
	for _, rd := range rounds {
		tot := map[string][2]float64{}
		for _, rec := range rd.recs {
			if rec.dur <= 0 {
				continue
			}
			t := tot[rec.scheme]
			tot[rec.scheme] = [2]float64{t[0] + float64(rec.dur.Nanoseconds()), t[1] + float64(rec.c.Cycles)}
			if perProg[rec.prog] == nil {
				perProg[rec.prog] = map[string][]float64{}
			}
			perProg[rec.prog][rec.scheme] = append(perProg[rec.prog][rec.scheme], float64(rec.c.Retired)/rec.dur.Seconds())
		}
		for s, t := range tot {
			nsPerCycle[s] = append(nsPerCycle[s], ratio(t[0], t[1]))
		}
	}
	for _, s := range schemes {
		r.layer["ooo."+s+".ns_per_cycle"] = median(nsPerCycle[s])
	}
	var costs []float64
	for _, m := range perProg {
		if c := ratio(median(m["acb"]), median(m["baseline"])); c > 0 {
			costs = append(costs, c)
		}
	}
	if len(costs) > 0 {
		minC := costs[0]
		for _, c := range costs {
			minC = min(minC, c)
		}
		r.layer["ooo.acb_cost_ratio_min"] = minC
		r.layer["ooo.acb_cost_ratio_geomean"] = geomean(costs)
	}
}

// tracedSims runs one more round with the predictor and the ACB scheme
// wrapped in counting shims, one pool per scheme so that the allocation
// count of each pool belongs to one scheme. Its simulated counts must
// equal the untraced round 0's. It returns the call counts of one round.
func (r *run) tracedSims(progs []program, budget int64, first []counts, untraced []simRound) (bpuStats, hookStats) {
	var bst bpuStats
	var hst hookStats
	var tracedNs, retired float64
	for si, scheme := range schemes {
		n := len(progs)
		bs := make([]bpuStats, n)
		hs := make([]hookStats, n)
		recs := make([]simRec, n)
		var ms0, ms1 runtime.MemStats
		pool := r.tr.begin("experiments.pool", 0, 0)
		r.attempt(n)
		runtime.ReadMemStats(&ms0)
		err := experiments.Pool(experiments.Options{Jobs: poolJobs}, n, func(i int) {
			p := &progs[i]
			pred := &countingPredictor{inner: bpu.NewTAGE(bpu.DefaultTAGEConfig()), st: &bs[i]}
			var sch ooo.Scheme
			if scheme == "acb" {
				sch = &countingScheme{inner: newScheme(scheme), st: &hs[i]}
			}
			sp := r.tr.begin("ooo.run", pool, int64(1_000_000+si*n+i))
			o, err := simulate(p, scheme, budget, pred, sch)
			r.tr.end(sp)
			if err != nil {
				r.fail("traced %v", err)
				return
			}
			recs[i] = simRec{prog: i, scheme: scheme, c: countsOf(&o.res), dur: o.dur}
			if recs[i].c != first[2*i+si] {
				r.fail("%s/%s: traced run's simulated counts differ from the untraced run's", p.name, scheme)
			}
		})
		runtime.ReadMemStats(&ms1)
		r.tr.end(pool)
		if err != nil {
			r.fail("traced pool: %v", err)
		}
		var cycles float64
		for i := range recs {
			bst.add(&bs[i])
			hst.add(&hs[i])
			cycles += float64(recs[i].c.Cycles)
			retired += float64(recs[i].c.Retired)
			tracedNs += float64(recs[i].dur.Nanoseconds())
		}
		r.layer["ooo."+scheme+".allocs_per_kcycle"] = ratio(float64(ms1.Mallocs-ms0.Mallocs)*1000, cycles)
	}
	acbRetired := 0.0
	for i := 1; i < len(first); i += 2 {
		acbRetired += float64(first[i].Retired)
	}
	r.layer["core.hook_calls_per_kinstr"] = ratio(float64(hst.calls)*1000, acbRetired)
	r.layer["core.predicated_useful_ratio"] = ratio(float64(hst.useful), float64(hst.predicated))
	r.bpuCounts(&bst, retired)

	// Tracing overhead: simulation time of the traced round against the
	// median untraced round's.
	var base []float64
	for _, rd := range untraced {
		t := 0.0
		for _, rec := range rd.recs {
			t += float64(rec.dur.Nanoseconds())
		}
		base = append(base, t)
	}
	r.layer["trace_overhead_pct"] = (ratio(tracedNs, median(base)) - 1) * 100
	return bst, hst
}

// bpuCounts reports the predictor call counts of one round.
func (r *run) bpuCounts(b *bpuStats, retired float64) {
	r.layer["bpu.lookups_per_kinstr"] = ratio(float64(b.predicts)*1000, retired)
	r.layer["bpu.accuracy"] = ratio(float64(b.correct), float64(b.updates))
}

// profileLayer reads the CPU profile of the untraced rounds (profiled
// rounds of them, each simulation labelled with its scheme) and reports
// the ooo stage shares, and the time per predictor call and per ACB hook
// call: the profiled CPU time inside those functions divided by the calls
// one round makes (b, h) times the number of profiled rounds.
func (r *run) profileLayer(path string, profiled int, b bpuStats, h hookStats) error {
	prof, err := profileCPU(path, "scheme", layerPatterns())
	if err != nil {
		return err
	}
	var predict, update float64
	for _, s := range schemes {
		p := prof[s]
		for _, st := range stageFuncs {
			r.layer[fmt.Sprintf("ooo.%s.%s_share", s, st.stage)] = ratio(p[st.fn], p[""])
		}
		predict += p[fnPredict]
		update += p[fnUpdate]
	}
	n := float64(profiled)
	r.layer["bpu.predict_ns"] = ratio(predict, float64(b.predicts)*n)
	r.layer["bpu.update_ns"] = ratio(update, float64(b.updates)*n)
	r.layer["core.hook_ns"] = ratio(prof["acb"][fnHooks], float64(h.calls)*n)
	r.layer["core.hook_share"] = ratio(prof["acb"][fnHooks], prof["acb"][""])
	return nil
}

// memLayer times the Skylake cache hierarchy on each program's
// architectural reference stream, captured by the functional emulator.
func (r *run) memLayer(progs []program, steps int64) {
	var refs []ooo.MemRef
	var ns, n float64
	for i := range progs {
		refs = refs[:0]
		st := isa.NewArchState(progs[i].mem.Clone())
		st.RunFeed(progs[i].prog, steps, nil, func(addr int64, store bool) {
			refs = append(refs, ooo.MemRef{Addr: addr, Store: store})
		})
		h := mem.NewHierarchy(config.Skylake().Mem)
		t0 := time.Now()
		for _, ref := range refs {
			if ref.Store {
				h.StoreCommit(ref.Addr)
			} else {
				h.LoadLatency(ref.Addr)
			}
		}
		ns += float64(time.Since(t0).Nanoseconds())
		n += float64(len(refs))
	}
	r.layer["mem.access_ns"] = ratio(ns, n)
}

// isaLayer times functional stepping over every program.
func (r *run) isaLayer(progs []program, steps int64) {
	var instrs, secs float64
	for i := range progs {
		st := isa.NewArchState(progs[i].mem.Clone())
		sp := r.tr.begin("isa.run", 0, 0)
		t0 := time.Now()
		n, _ := st.Run(progs[i].prog, steps)
		secs += time.Since(t0).Seconds()
		r.tr.end(sp)
		instrs += float64(n)
	}
	r.layer["isa.step_minstr_s"] = ratio(instrs/1e6, secs)
}
