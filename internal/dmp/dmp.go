// Package dmp implements the prior-work baselines the paper compares ACB
// against (Sec. V-C):
//
//   - DMP, the Diverge-Merge Processor (Kim et al. [7], enhanced by
//     profile-assisted compiler support [15]): compiler-identified
//     diverge branches with their control-flow-merge points, predicated
//     at run time on low branch-prediction confidence, executed eagerly
//     with select micro-ops over a forked RAT.
//   - DMP-PBH, the Fig. 9 oracle that inserts the true outcome of every
//     predicated instance into the global branch history.
//   - DHP, Dynamic Hammock Predication (Klauser et al. [11]): the same
//     run-time confidence gating, restricted to short, simple hammocks.
//
// The compiler profiling-and-analysis pass the hardware relies on is
// reproduced by Profile: a functional run with a standalone TAGE predictor
// measures per-branch misprediction rates, and the static CFG
// postdominator analysis (package prog) supplies reconvergence points and
// body sizes.
package dmp

import (
	"math"
	"sort"

	"acb/internal/bpu"
	"acb/internal/isa"
	"acb/internal/ooo"
	"acb/internal/prog"
)

// Candidate is one profiled diverge-branch candidate.
type Candidate struct {
	PC             int
	ReconPC        int
	TakenLen       int
	NotTakenLen    int
	Simple         bool
	Executions     int64
	Mispredicts    int64
	MispredictRate float64
}

// ProfileConfig parameterizes the compiler stand-in.
type ProfileConfig struct {
	// Steps is the functional profiling budget in retired instructions.
	Steps int64
	// MaxBody bounds each path's instruction count (candidates beyond it
	// are not considered convergent by the compiler pass).
	MaxBody int
	// MinExecutions filters branches too cold to profile reliably.
	MinExecutions int64
	// MinMispredictRate is the H2P selection threshold.
	MinMispredictRate float64
	// AllocWidth feeds the enhanced-DMP fetch-cost model: predication must
	// be expected profitable counting fetch/allocation costs only (the
	// paper notes enhanced DMP cannot account for execution costs).
	AllocWidth int
	// MispredictPenalty is the assumed flush penalty for the cost model.
	MispredictPenalty float64
}

// DefaultProfileConfig returns a profiling setup matching the simulated
// Skylake-like baseline.
func DefaultProfileConfig() ProfileConfig {
	return ProfileConfig{
		Steps:             2_000_000,
		MaxBody:           56,
		MinExecutions:     64,
		MinMispredictRate: 0.02,
		AllocWidth:        4,
		MispredictPenalty: 20,
	}
}

// Profile runs the compiler stand-in: functional execution with a TAGE
// model to find H2P branches, combined with static reconvergence analysis.
// The returned candidates are sorted by descending misprediction count.
func Profile(p []isa.Instruction, image *isa.Memory, cfg ProfileConfig) []Candidate {
	type count struct{ execs, miss int64 }
	counts := make(map[int]*count)

	pred := bpu.NewTAGE(bpu.DefaultTAGEConfig())
	st := isa.NewArchState(image.Clone())
	for step := int64(0); step < cfg.Steps; step++ {
		pc := st.PC
		in := &p[pc]
		if in.Op == isa.Br {
			pr := pred.Predict(uint64(pc), false)
			res := st.Step(p)
			cnt := counts[pc]
			if cnt == nil {
				cnt = &count{}
				counts[pc] = cnt
			}
			cnt.execs++
			if pr.Taken != res.Taken {
				cnt.miss++
			}
			pred.Update(uint64(pc), pr, res.Taken)
			pred.PushHistory(uint64(pc), res.Taken)
			continue
		}
		res := st.Step(p)
		if res.Halted {
			break
		}
	}

	hammocks := prog.AnalyzeHammocks(p, cfg.MaxBody)
	var out []Candidate
	for _, h := range hammocks {
		cnt := counts[h.BranchPC]
		if cnt == nil || cnt.execs < cfg.MinExecutions {
			continue
		}
		rate := float64(cnt.miss) / float64(cnt.execs)
		if rate < cfg.MinMispredictRate {
			continue
		}
		// Enhanced-DMP fetch-cost model: extra allocations per predicated
		// instance must be repaid by saved flush cycles (fetch-side
		// Equation 1; execution-side costs are invisible to the compiler).
		extraAlloc := float64(h.TakenLen+h.NotTakenLen) / 2 / float64(cfg.AllocWidth)
		if extraAlloc > rate*cfg.MispredictPenalty {
			continue
		}
		out = append(out, Candidate{
			PC:             h.BranchPC,
			ReconPC:        h.ReconvPC,
			TakenLen:       h.TakenLen,
			NotTakenLen:    h.NotTakenLen,
			Simple:         h.Simple,
			Executions:     cnt.execs,
			Mispredicts:    cnt.miss,
			MispredictRate: rate,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Mispredicts > out[j].Mispredicts })
	return out
}

// Mode selects the baseline variant.
type Mode int

// Baseline variants.
const (
	ModeDMP Mode = iota // full diverge-merge predication
	ModeDHP             // short simple hammocks only
)

// Config parameterizes the run-time side of the baselines.
type Config struct {
	Mode Mode
	// PerfectBranchHistory enables the DMP-PBH oracle (Fig. 9).
	PerfectBranchHistory bool
	// ConfidenceThreshold is the JRS counter value at and above which the
	// instance is considered confident (and therefore not predicated).
	ConfidenceThreshold int8
	// MaxBody is the per-path fetch budget before divergence.
	MaxBody int
	// DHPMaxLen bounds each path of a DHP hammock.
	DHPMaxLen int
}

// DefaultConfig returns the configuration used in the paper-comparison
// experiments.
func DefaultConfig(mode Mode) Config {
	return Config{
		Mode:                mode,
		ConfidenceThreshold: 8,
		MaxBody:             56,
		DHPMaxLen:           4,
	}
}

// Scheme is the run-time engine; it implements ooo.Scheme.
type Scheme struct {
	cfg        Config
	candidates map[int]Candidate
	conf       *bpu.JRSConfidence

	// Telemetry.
	Predications int64
	ConfSkips    int64
}

// New builds the run-time engine from profiled candidates.
func New(cfg Config, candidates []Candidate) *Scheme {
	s := &Scheme{
		cfg:        cfg,
		candidates: make(map[int]Candidate),
		conf:       bpu.NewJRSConfidence(12, 16, cfg.ConfidenceThreshold),
	}
	for _, c := range candidates {
		if cfg.Mode == ModeDHP {
			if !c.Simple || c.TakenLen > cfg.DHPMaxLen || c.NotTakenLen > cfg.DHPMaxLen {
				continue
			}
		}
		s.candidates[c.PC] = c
	}
	return s
}

// Name implements ooo.Scheme.
func (s *Scheme) Name() string {
	switch {
	case s.cfg.Mode == ModeDHP:
		return "dhp"
	case s.cfg.PerfectBranchHistory:
		return "dmp-pbh"
	default:
		return "dmp"
	}
}

// Candidates returns the number of active diverge-branch candidates.
func (s *Scheme) Candidates() int { return len(s.candidates) }

// ShouldPredicate implements ooo.Scheme: predicate compiler-selected
// branches whose current instance has low prediction confidence.
func (s *Scheme) ShouldPredicate(pc int, _ bool, _ int, hist uint64) (ooo.PredSpec, bool) {
	cand, ok := s.candidates[pc]
	if !ok {
		return ooo.PredSpec{}, false
	}
	if s.conf.Confident(uint64(pc), hist) {
		s.ConfSkips++
		return ooo.PredSpec{}, false
	}
	s.Predications++
	return ooo.PredSpec{
		ReconPC:         cand.ReconPC,
		FirstTaken:      false,
		MaxBody:         s.cfg.MaxBody,
		Eager:           true,
		PushTrueHistory: s.cfg.PerfectBranchHistory,
	}, true
}

// OnFetch implements ooo.Scheme (the baselines learn nothing at fetch;
// convergence comes from the compiler).
func (s *Scheme) OnFetch(ooo.FetchEvent) {}

// OnFlush implements ooo.Scheme.
func (s *Scheme) OnFlush() {}

// OnBranchResolve implements ooo.Scheme: train the confidence estimator
// with resolved, non-predicated instances.
func (s *Scheme) OnBranchResolve(ev ooo.ResolveEvent) {
	if ev.Predicated {
		return
	}
	s.conf.Update(uint64(ev.PC), ev.Hist, !ev.Mispredict)
}

// OnRetireTick implements ooo.Scheme.
func (s *Scheme) OnRetireTick(int64) {}

// OnRetire implements ooo.BoundaryScheme: retirements change nothing, so
// the core never needs to call again.
func (s *Scheme) OnRetire(int64, int64) int64 { return math.MaxInt64 }

// FetchQuiet implements ooo.BoundaryScheme: OnFetch is a no-op.
func (s *Scheme) FetchQuiet() bool { return true }

var _ ooo.BoundaryScheme = (*Scheme)(nil)
