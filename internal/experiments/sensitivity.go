package experiments

import (
	"acb/internal/bpu"
	"acb/internal/core"
	"acb/internal/ooo"
	"acb/internal/stats"
	"acb/internal/workload"
)

// sensitivityWorkloads is the representative subset the paper-style
// parameter sweeps run on: a dominant winner, a history-pollution
// outlier, a predication-hostile workload, a memory-shadowed workload and
// a broad H2P mix.
var sensitivityWorkloads = []string{"lammps", "omnetpp", "eembc", "soplex", "gobmk", "leela"}

// acbGeomean runs baseline vs the given ACB configuration over the subset
// on the worker pool and returns the geomean speedup. Each job owns one
// workload (its baseline and ACB simulations run back to back), and
// speedups land in per-job slots so the geomean accumulates in a fixed
// order regardless of scheduling.
func acbGeomean(opts *Options, cfg core.Config, names []string) float64 {
	sp := make([]float64, len(names))
	runPool(opts, len(names), func(i int) {
		w, err := workload.ByName(names[i])
		if err != nil {
			panic(err)
		}
		p, m := w.Build()
		bres := simulate(opts, ooo.NewWithMemory(opts.Config, p, bpu.NewTAGE(bpu.DefaultTAGEConfig()), nil, m.Clone()),
			names[i], string(SchemeBaseline))
		res := simulate(opts, ooo.NewWithMemory(opts.Config, p, bpu.NewTAGE(bpu.DefaultTAGEConfig()), core.New(cfg), m.Clone()),
			names[i], string(SchemeACB))
		sp[i] = stats.Ratio(res.IPC, bres.IPC)
	})
	return stats.Geomean(sp)
}

// ACBGeomean is the exported form of the baseline-vs-configuration sweep:
// the bench harness's ablation benchmarks run their variants through it
// so they share the worker pool and its runner stats.
func ACBGeomean(opts Options, cfg core.Config, names []string) float64 {
	opts.fill()
	return acbGeomean(&opts, cfg, names)
}

// SensitivityN reproduces the paper's sweep of the convergence-learning
// window ("we found N = 40 to be optimal", Sec. III-B): too small misses
// large-body convergences, too large admits unprofitable ones.
func SensitivityN(opts Options) *stats.Table {
	opts.fill()
	t := stats.NewTable("N", "acb-geomean-speedup")
	for _, n := range []int{8, 16, 24, 40, 64, 96} {
		cfg := core.DefaultConfig()
		cfg.N = n
		t.AddRow(n, acbGeomean(&opts, cfg, sensitivityWorkloads))
	}
	return t
}

// SensitivityEpoch reproduces the Dynamo epoch-length sweep ("epoch-length
// of 8K to 32K instructions as optimal (16K chosen)", Sec. III-C): short
// epochs are noisy, long ones blur phase changes.
func SensitivityEpoch(opts Options) *stats.Table {
	opts.fill()
	t := stats.NewTable("epoch-instr", "acb-geomean-speedup")
	for _, e := range []int64{2048, 8192, 16384, 32768, 131072} {
		cfg := core.DefaultConfig()
		cfg.Dynamo.EpochLen = e
		t.AddRow(e, acbGeomean(&opts, cfg, sensitivityWorkloads))
	}
	return t
}

// SensitivityACBTable reproduces the ACB Table size sweep ("increasing
// its size from 32 to 256 had negligible effect", Sec. III-B).
func SensitivityACBTable(opts Options) *stats.Table {
	opts.fill()
	t := stats.NewTable("acb-table-entries", "acb-geomean-speedup")
	for _, n := range []int{8, 16, 32, 64, 256} {
		cfg := core.DefaultConfig()
		cfg.ACBEntries = n
		t.AddRow(n, acbGeomean(&opts, cfg, sensitivityWorkloads))
	}
	return t
}

// SensitivityCriticalTable reproduces the Critical Table size sweep ("a
// small 64-entry table provides sufficient coverage", Sec. III-A).
func SensitivityCriticalTable(opts Options) *stats.Table {
	opts.fill()
	t := stats.NewTable("critical-table-entries", "acb-geomean-speedup")
	for _, n := range []int{16, 32, 64, 128} {
		cfg := core.DefaultConfig()
		cfg.CriticalEntries = n
		t.AddRow(n, acbGeomean(&opts, cfg, sensitivityWorkloads))
	}
	return t
}

// SensitivityPredictor compares ACB's gain across baseline predictors:
// the weaker the predictor, the larger ACB's headroom (ACB is "applicable
// on top of any baseline branch predictor", Sec. VI).
func SensitivityPredictor(opts Options) *stats.Table {
	opts.fill()
	t := stats.NewTable("predictor", "baseline-geomean-IPC", "acb-geomean-speedup")
	for _, name := range []string{"bimodal", "gshare", "perceptron", "tage"} {
		newPred := predictors[name]
		ipcs := make([]float64, len(sensitivityWorkloads))
		sp := make([]float64, len(sensitivityWorkloads))
		runPool(&opts, len(sensitivityWorkloads), func(i int) {
			w, err := workload.ByName(sensitivityWorkloads[i])
			if err != nil {
				panic(err)
			}
			p, m := w.Build()
			bres := simulate(&opts, ooo.NewWithMemory(opts.Config, p, newPred(), nil, m.Clone()),
				sensitivityWorkloads[i], name)
			res := simulate(&opts, ooo.NewWithMemory(opts.Config, p, newPred(), core.New(core.DefaultConfig()), m.Clone()),
				sensitivityWorkloads[i], name+"+acb")
			ipcs[i] = bres.IPC
			sp[i] = stats.Ratio(res.IPC, bres.IPC)
		})
		t.AddRow(name, stats.Geomean(ipcs), stats.Geomean(sp))
	}
	return t
}
