package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"acb/internal/bpu"
	"acb/internal/config"
	"acb/internal/core"
	"acb/internal/experiments"
	"acb/internal/isa"
	"acb/internal/ooo"
	"acb/internal/workload"
)

// sizes fixes how much work each workload does. The benchmark runs
// fullSizes; the package's tests run smaller ones.
type sizes struct {
	detailedBudget int64    // retired instructions per fig6-detailed simulation
	sampledBudget  int64    // instructions one sampled run covers
	traceLen       int64    // instructions recorded per trace
	replayBudget   int64    // instructions replayed per trace and scheme
	replayPrograms []string // suite programs recorded for trace-replay
	acbdBudget     int64    // per-simulation budget of an acbd cold job
	acbdRepeats    int      // repeats a client sends after each cold job
	setupReps      int      // set-ups per run; setup_s is their median
	fleetStarts    int      // acbd-mixed cluster start-ups per run (each takes milliseconds)
	suite          []string // programs of the Fig. 6 workloads (nil = all 33)
}

var fullSizes = sizes{
	detailedBudget: 200_000,
	sampledBudget:  3_000_000,
	traceLen:       5_000_000,
	replayBudget:   200_000,
	replayPrograms: []string{"gobmk", "mcf", "libquantum", "leela", "x264", "hmmer", "soplex", "lammps"},
	acbdBudget:     20_000,
	acbdRepeats:    10,
	setupReps:      5,
	fleetStarts:    15,
}

// settings is one invocation's settings.
type settings struct {
	seed    uint64
	seconds float64
	trace   bool
	work    string
	sizes   sizes
}

// run is the state of one invocation: operation counts, metrics, spans.
type run struct {
	settings
	name      string
	dir       string // private scratch directory under work
	mu        sync.Mutex
	attempted int
	failed    int
	metrics   map[string]float64 // end-to-end
	layer     map[string]float64 // per-layer
	tr        *tracer
	rss       *rssSampler
	roundRSS  []float64 // peak resident set of each round, MB
}

func newRun(cfg settings, name string) (*run, error) {
	dir := filepath.Join(cfg.work, fmt.Sprintf("%s-seed%d-pid%d", name, cfg.seed, os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &run{
		settings: cfg,
		name:     name,
		dir:      dir,
		metrics:  map[string]float64{},
		layer:    map[string]float64{},
		tr:       newTracer(cfg.trace),
		rss:      startRSS(),
	}, nil
}

// close stops the resident-set sampler and removes the run's scratch
// files; spans and profiles are written next to it, in work, and survive.
func (r *run) close() {
	r.rss.stop()
	os.RemoveAll(r.dir)
}

// attempt counts n operations.
func (r *run) attempt(n int) {
	r.mu.Lock()
	r.attempted += n
	r.mu.Unlock()
}

// fail records one failed operation or check; the run then reports
// correct=false.
func (r *run) fail(format string, args ...interface{}) {
	r.mu.Lock()
	r.failed++
	r.mu.Unlock()
	fmt.Fprintf(os.Stderr, "perfbench: %s: FAILED: %s\n", r.name, fmt.Sprintf(format, args...))
}

// measuring reports whether another round of length est fits in the
// measured window that began at start. At least min rounds always run.
// It closes the previous round's resident-set peak, and before each round
// it collects garbage, so every round starts from the same heap: the
// previous round's garbage is not charged to it.
func (r *run) measuring(start time.Time, rounds, min int, est time.Duration) bool {
	if peak := r.rss.take(); rounds > 0 {
		r.roundRSS = append(r.roundRSS, peak)
	}
	if rounds >= min && time.Since(start)+est > time.Duration(r.seconds*float64(time.Second)) {
		return false
	}
	runtime.GC()
	r.rss.take()
	return true
}

// peakRSS is the median over the measured rounds (after round 0) of each
// round's peak resident set, or the peak since start-up for a workload
// without rounds.
func (r *run) peakRSS() float64 {
	if len(r.roundRSS) > 1 {
		return median(r.roundRSS[1:])
	}
	return r.rss.take()
}

// setup runs fn reps times and records the median as setup_s.
func (r *run) setup(reps int, fn func(rep int) error) error {
	var ts []float64
	for rep := 0; rep < reps; rep++ {
		t0 := time.Now()
		if err := fn(rep); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	r.metrics["setup_s"] = median(ts)
	return nil
}

// ---- seeds and inputs -------------------------------------------------

// specSeed derives a suite program's data seed from the workload seed.
// Spec.Seed only feeds the generator's data tables (condition patterns,
// pointer-chase permutation, data words), so every seed yields the same
// code shape with different data.
func specSeed(seed uint64, name string) uint64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], seed)
	h.Write(b[:])
	h.Write([]byte(name))
	x := h.Sum64()
	// splitmix64 finalizer: nearby seeds give unrelated data.
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}

// suite returns the named suite programs (all 33 when names is nil), with
// data seeded from seed.
func suite(seed uint64, names []string) ([]workload.Workload, error) {
	var ws []workload.Workload
	if names == nil {
		ws = workload.All()
	} else {
		for _, n := range names {
			w, err := workload.ByName(n)
			if err != nil {
				return nil, err
			}
			ws = append(ws, w)
		}
	}
	for i := range ws {
		ws[i].Spec.Seed = specSeed(seed, ws[i].Name)
	}
	return ws, nil
}

// program is one built suite program.
type program struct {
	name string
	prog []isa.Instruction
	mem  *isa.Memory // initial image; never mutated, cloned per use
}

// buildAll builds every workload, recording a workload.build span each.
func (r *run) buildAll(ws []workload.Workload, parent int64) []program {
	out := make([]program, len(ws))
	for i := range ws {
		sp := r.tr.begin("workload.build", parent, 0)
		p, m := ws[i].Build()
		r.tr.end(sp)
		out[i] = program{name: ws[i].Name, prog: p, mem: m}
	}
	return out
}

// ---- simulation -------------------------------------------------------

var schemes = []string{"baseline", "acb"}

// newScheme returns the predication scheme (nil = baseline speculation).
func newScheme(name string) ooo.Scheme {
	if name == "acb" {
		return core.New(core.DefaultConfig())
	}
	return nil
}

// counts is the simulated (not host-time) part of a Result that must
// repeat exactly across runs of one seed.
type counts struct {
	Cycles, Retired, Flushes, DivFlushes, Mispredicts, Predications int64
	L1Hits, L1Misses, LLCHits, LLCMisses                            int64
	FinalRegs                                                       [isa.NumRegs]int64
}

func countsOf(r *ooo.Result) counts {
	return counts{r.Cycles, r.Retired, r.Flushes, r.DivFlushes, r.Mispredicts, r.Predications,
		r.L1Hits, r.L1Misses, r.LLCHits, r.LLCMisses, r.FinalRegs}
}

// simOut is one timed simulation.
type simOut struct {
	res  ooo.Result
	core *ooo.Core
	dur  time.Duration // NewWithMemory + Run
}

// simulate runs one detailed simulation of p under scheme on a private
// copy of its image. pred and sch override the defaults when non-nil
// (the traced run passes counting wrappers).
func simulate(p *program, scheme string, budget int64, pred bpu.Predictor, sch ooo.Scheme) (simOut, error) {
	img := p.mem.Clone()
	if pred == nil {
		pred = bpu.NewTAGE(bpu.DefaultTAGEConfig())
	}
	if sch == nil {
		sch = newScheme(scheme)
	}
	t0 := time.Now()
	c := ooo.NewWithMemory(config.Skylake(), p.prog, pred, sch, img)
	res, err := c.Run(budget)
	d := time.Since(t0)
	if err != nil {
		return simOut{}, fmt.Errorf("%s/%s: %w", p.name, scheme, err)
	}
	return simOut{res: res, core: c, dur: d}, nil
}

// functionalDiff runs the isa functional emulator from p's initial image
// for exactly retired instructions and reports the first difference from
// the detailed core's architectural state ("" = identical).
func functionalDiff(prog []isa.Instruction, image *isa.Memory, retired int64, regs [isa.NumRegs]int64, commit *isa.Memory) string {
	ref := isa.NewArchState(image.Clone())
	ref.Run(prog, retired)
	for i := 0; i < isa.NumRegs; i++ {
		if regs[i] != ref.Regs[i] {
			return fmt.Sprintf("r%d = %#x, functional run has %#x after %d instructions", i, regs[i], ref.Regs[i], retired)
		}
	}
	if commit == nil {
		return "no committed memory"
	}
	if d := commit.DiffWords(ref.Mem.(*isa.Memory), 1); len(d) > 0 {
		return fmt.Sprintf("memory [%#x] = %#x, functional run has %#x after %d instructions", d[0].Addr, d[0].A, d[0].B, retired)
	}
	return ""
}

// ---- host speed -------------------------------------------------------

// The host this benchmark runs on alternates, over seconds, between
// states in which the simulator runs up to 1.6x apart, while a pure ALU
// loop barely moves. Every pool of simulations therefore also runs
// calibration jobs: a fixed loop of data-dependent branches and random
// loads and stores over a 1 MB table, code the simulator does not share.
// They run on the same two workers between the simulations, so they see
// the same state, and the simulation workloads report host times
// normalized to calNominal, the calibration speed of the reference host.
const (
	calNominal = 45.0 // Mop/s
	calEvery   = 4    // simulation jobs per calibration job
	calOps     = 500_000
	calWords   = 1 << 18
)

// calibrate runs the calibration loop once and returns its time.
func calibrate() time.Duration {
	tab := make([]uint32, calWords)
	x := uint64(0x9E3779B97F4A7C15)
	acc := uint32(1)
	t0 := time.Now()
	for i := 0; i < calOps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		idx := x & (calWords - 1)
		v := tab[idx]
		switch (v ^ uint32(x>>32)) & 7 {
		case 0:
			acc += v
		case 1:
			acc ^= v >> 3
		case 2:
			acc = acc*33 + v
		case 3:
			acc -= v << 1
		case 4:
			acc = acc<<5 | acc>>27
		case 5:
			acc += uint32(i)
		case 6:
			acc ^= 0x5bd1e995
		default:
			acc += 7
		}
		tab[(idx*7+uint64(acc))&(calWords-1)] = acc
	}
	d := time.Since(t0)
	if acc == 0x2a2a2a2a {
		fmt.Fprintln(os.Stderr, "impossible")
	}
	return d
}

// calMops is the calibration speed of the otherwise idle host: the
// median of nine calibration runs.
func calMops() float64 {
	var xs []float64
	for i := 0; i < 9; i++ {
		xs = append(xs, calOps/1e6/calibrate().Seconds())
	}
	return median(xs)
}

// calSpeeds are the calibration speeds (Mop/s) one pool saw.
type calSpeeds struct {
	all  float64   // over the whole pool
	near []float64 // per job: the calibration jobs just before and after its block
}

// calPool runs jobs 0..n-1 on the 2-job experiments pool with a calibration
// job after every calEvery-th, and returns the calibration speeds.
func calPool(rs *experiments.RunnerStats, n int, job func(i int)) (calSpeeds, error) {
	ncal := n/calEvery + 1
	cal := make([]time.Duration, ncal)
	err := experiments.Pool(experiments.Options{Jobs: poolJobs, Stats: rs}, n+ncal, func(j int) {
		if j%(calEvery+1) == calEvery || j >= n+n/calEvery {
			cal[min(j/(calEvery+1), ncal-1)] = calibrate()
			return
		}
		job(j - j/(calEvery+1))
	})
	speed := func(d time.Duration) float64 { return ratio(calOps/1e6, d.Seconds()) }
	cs := calSpeeds{near: make([]float64, n)}
	var tot time.Duration
	for _, d := range cal {
		tot += d
	}
	cs.all = ratio(float64(ncal*calOps)/1e6, tot.Seconds())
	for i := range cs.near {
		b := i / calEvery
		cs.near[i] = speed(cal[b])
		if b > 0 {
			cs.near[i] = (cs.near[i] + speed(cal[b-1])) / 2
		}
	}
	return cs, err
}

// ---- statistics -------------------------------------------------------

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile by linear interpolation (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return d.Seconds() * 1000 }

// ---- host -------------------------------------------------------------

// rssSampler polls the process's resident set every few milliseconds and
// keeps the peak since the last take. A round's peak depends on where
// the garbage collector happens to run, so the benchmark reports the
// median of the rounds' peaks rather than the process's single
// high-water mark.
type rssSampler struct {
	peak atomic.Int64 // bytes
	quit chan struct{}
	done chan struct{}
}

func startRSS() *rssSampler {
	s := &rssSampler{quit: make(chan struct{}), done: make(chan struct{})}
	s.peak.Store(residentBytes())
	go func() {
		defer close(s.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-t.C:
				b := residentBytes()
				for {
					old := s.peak.Load()
					if b <= old || s.peak.CompareAndSwap(old, b) {
						break
					}
				}
			}
		}
	}()
	return s
}

// take returns the peak since the last take, in MB, and restarts it from
// the current resident set.
func (s *rssSampler) take() float64 {
	return float64(s.peak.Swap(residentBytes())) / (1 << 20)
}

func (s *rssSampler) stop() {
	close(s.quit)
	<-s.done
}

// residentBytes reads the resident set from /proc/self/statm (0 when it
// is unavailable).
func residentBytes() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}

// refMops times a fixed xorshift loop (the calibration loop acbbench
// uses) and returns millions of iterations per second: context for
// comparing host times across machines.
func refMops() float64 {
	const iters = 1 << 25
	best := 0.0
	for rep := 0; rep < 3; rep++ {
		x := uint64(0x9E3779B97F4A7C15)
		var sum uint64
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			sum += x
		}
		el := time.Since(t0).Seconds()
		if sum == 42 {
			fmt.Fprintln(os.Stderr, "impossible")
		}
		if s := iters / el / 1e6; s > best {
			best = s
		}
	}
	return best
}
