package main

import (
	"acb/internal/bpu"
	"acb/internal/ooo"
)

// The traced run wraps the predictor and the ACB scheme in these counting
// shims. They implement the interfaces the core calls, so the simulator
// needs no change, and they read no clock: the time spent inside the
// wrapped calls comes from the CPU profile of the untraced rounds, divided
// by these counts. The traced run checks that its simulated counts equal
// the untraced run's.

// bpuStats counts one simulation's predictor calls. A simulation runs on
// one goroutine, so the counters need no lock.
type bpuStats struct {
	predicts, updates, correct int64
}

func (s *bpuStats) add(o *bpuStats) {
	s.predicts += o.predicts
	s.updates += o.updates
	s.correct += o.correct
}

// countingPredictor counts Predict and Update calls and correct
// predictions.
type countingPredictor struct {
	inner bpu.Predictor
	st    *bpuStats
}

func (p *countingPredictor) Predict(pc uint64, oracleTaken bool) bpu.Prediction {
	p.st.predicts++
	return p.inner.Predict(pc, oracleTaken)
}

func (p *countingPredictor) Update(pc uint64, pred bpu.Prediction, taken bool) {
	p.inner.Update(pc, pred, taken)
	p.st.updates++
	if pred.Taken == taken {
		p.st.correct++
	}
}

func (p *countingPredictor) History() uint64               { return p.inner.History() }
func (p *countingPredictor) SetHistory(h uint64)           { p.inner.SetHistory(h) }
func (p *countingPredictor) PushHistory(pc uint64, t bool) { p.inner.PushHistory(pc, t) }
func (p *countingPredictor) Name() string                  { return p.inner.Name() }

// Clone lets sampled simulation checkpoint the wrapped predictor; the
// clone shares the counters (windows of one sampled run are serial).
func (p *countingPredictor) Clone() bpu.Predictor {
	return &countingPredictor{inner: p.inner.(bpu.Cloner).Clone(), st: p.st}
}

// hookStats counts one simulation's scheme-hook calls.
type hookStats struct {
	calls              int64
	predicated, useful int64
}

func (s *hookStats) add(o *hookStats) {
	s.calls += o.calls
	s.predicated += o.predicated
	s.useful += o.useful
}

// countingScheme counts every call the core makes into a predication
// scheme, and the predicated branch instances that reconverged (useful)
// among all predicated instances.
type countingScheme struct {
	inner ooo.Scheme
	st    *hookStats
}

func (s *countingScheme) Name() string { return s.inner.Name() }

func (s *countingScheme) ShouldPredicate(pc int, predTaken bool, conf int, hist uint64) (ooo.PredSpec, bool) {
	s.st.calls++
	return s.inner.ShouldPredicate(pc, predTaken, conf, hist)
}

func (s *countingScheme) OnFetch(ev ooo.FetchEvent) {
	s.st.calls++
	s.inner.OnFetch(ev)
}

func (s *countingScheme) OnFlush() {
	s.st.calls++
	s.inner.OnFlush()
}

func (s *countingScheme) OnBranchResolve(ev ooo.ResolveEvent) {
	s.st.calls++
	s.inner.OnBranchResolve(ev)
	if ev.Predicated {
		s.st.predicated++
		if !ev.Diverged {
			s.st.useful++
		}
	}
}

func (s *countingScheme) OnRetireTick(cycle int64) {
	s.st.calls++
	s.inner.OnRetireTick(cycle)
}
