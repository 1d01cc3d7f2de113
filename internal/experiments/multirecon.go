package experiments

import (
	"acb/internal/bpu"
	"acb/internal/core"
	"acb/internal/ooo"
	"acb/internal/stats"
	"acb/internal/workload"
)

// b1Workload builds the category-B1 kernel: a hard-to-predict IF-ELSE
// hammock whose not-taken path usually re-joins at a near merge but, when
// a secondary condition fires, only re-joins at a farther one — the
// multiple-reconvergence-point pattern that compiler-assisted DMP covers
// and single-point ACB diverges on (Sec. V-C).
func b1Workload() workload.Spec {
	return workload.Spec{
		Name: "b1-dualmerge", Seed: 777, Period: 8192, Iters: 10_000_000, ALU: 2,
		Hammocks: []workload.Hammock{
			{Shape: workload.ShapeIfElse, TLen: 3, NTLen: 3, TakenBias: 0.5, Noise: 0.9, DualRecon: true},
		},
	}
}

// MultiRecon compares baseline, single-reconvergence ACB and the
// multiple-reconvergence extension (core.Config.MultiRecon) on the
// category-B1 kernel. Expected shape: plain ACB suffers divergence
// flushes on far-merging instances; ACB-MR promotes the far merge from
// divergence feedback, removing them and recovering the gain.
func MultiRecon(opts Options) *stats.Table {
	opts.fill()
	spec := b1Workload()
	p, m := spec.Build()

	plain := core.New(core.DefaultConfig())
	mrCfg := core.DefaultConfig()
	mrCfg.MultiRecon = true
	mr := core.New(mrCfg)

	// The three variants are independent simulations over clones of the
	// same image, so they fan out on the pool like any other jobs.
	schemes := []ooo.Scheme{nil, plain, mr}
	kinds := []string{string(SchemeBaseline), string(SchemeACB), "acb-mr"}
	results := make([]ooo.Result, len(schemes))
	runPool(&opts, len(schemes), func(i int) {
		c := ooo.NewWithMemory(opts.Config, p, bpu.NewTAGE(bpu.DefaultTAGEConfig()), schemes[i], m.Clone())
		results[i] = simulate(&opts, c, spec.Name, kinds[i])
	})
	base, resPlain, resMR := results[0], results[1], results[2]

	t := stats.NewTable("scheme", "speedup", "div-flushes/k", "predications", "recon-promotions")
	t.AddRow("baseline", 1.0, perKilo(base.DivFlushes, base.Retired), base.Predications, 0)
	t.AddRow("acb", speedup(base, resPlain), perKilo(resPlain.DivFlushes, resPlain.Retired), resPlain.Predications, 0)
	t.AddRow("acb-mr", speedup(base, resMR), perKilo(resMR.DivFlushes, resMR.Retired), resMR.Predications, mr.ReconPromotions)
	return t
}

func perKilo(v, retired int64) float64 {
	return stats.Ratio(float64(v)*1000, float64(retired))
}
