package service

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"acb/internal/experiments"
	"acb/internal/stats"
)

// JobState is a job's lifecycle state.
type JobState string

// Job lifecycle: Queued -> Running -> Done | Failed | Cancelled, with a
// direct Queued -> Cancelled edge, a direct -> Done edge for cache hits
// (no simulation runs at all), and a Running -> Queued edge when a
// transient failure is retried with backoff.
const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

// States lists every job state (metrics emit a gauge per state).
var States = []JobState{JobQueued, JobRunning, JobDone, JobFailed, JobCancelled}

// Terminal reports whether st is an end state (done, failed or
// cancelled).
func (st JobState) Terminal() bool {
	return st == JobDone || st == JobFailed || st == JobCancelled
}

// Error kinds classify failed jobs (JobStatus.ErrorKind).
const (
	// ErrKindDeadline marks a job killed by its deadline; it is not
	// retried (it would only time out again).
	ErrKindDeadline = "deadline"
	// ErrKindTransient marks a potentially-recoverable failure (persist
	// error, worker panic, injected fault): retried with backoff until
	// MaxAttempts runs have begun.
	ErrKindTransient = "transient"
)

// Sentinel errors, mapped onto HTTP statuses by the API layer.
var (
	ErrQueueFull    = errors.New("service: job queue full")
	ErrShuttingDown = errors.New("service: scheduler shutting down")
	ErrUnknownJob   = errors.New("service: unknown job")
)

// FaultPoints is the hook the scheduler and store fire at their
// injection points ("worker", "worker.slow", "store.persist",
// "store.load"). A faultinject.Injector implements it; production runs
// leave it nil.
type FaultPoints interface {
	// Fire returns a non-nil error to inject a failure; it may also
	// sleep (slowness) or panic (crash injection) before returning.
	Fire(point string) error
}

// sjob is the scheduler's job-table entry.
type sjob struct {
	Job
	// journaled records that this job has a submit record in the WAL, so
	// its terminal transition must be journaled too.
	journaled bool
	// cancel stops the running attempt's simulation.
	cancel context.CancelFunc
}

// JobStatus is the JSON snapshot of a job served by the API. Started and
// Finished are nil until the job reaches the corresponding state.
type JobStatus struct {
	ID         string   `json:"id"`
	State      JobState `json:"state"`
	Experiment string   `json:"experiment"`
	Request    Request  `json:"request"`
	ResultKey  string   `json:"result_key"`
	CacheHit   bool     `json:"cache_hit,omitempty"`
	Error      string   `json:"error,omitempty"`
	// ErrorKind classifies failures: "deadline" or "transient" (see
	// ErrKind*), or "cluster" for a coordinator's assignment cap. Empty
	// for done/cancelled jobs.
	ErrorKind string `json:"error_kind,omitempty"`
	// Attempts is the number of runs begun, counting runs interrupted by
	// a daemon crash (on a coordinator: worker assignments); 0 for jobs
	// served straight from the store.
	Attempts int `json:"attempts,omitempty"`
	// Replayed marks jobs recovered from the journal after a restart.
	Replayed bool       `json:"replayed,omitempty"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	// CPI is the job's per-scheme CPI-stack summary (bucket order:
	// ooo.CPIBucketNames), populated when the job actually simulated.
	CPI map[string]experiments.CPITotals `json:"cpi,omitempty"`
	// Worker and Stolen are a coordinator job's placement; a node's own
	// jobs never set them.
	Worker string `json:"worker,omitempty"`
	Stolen int    `json:"stolen,omitempty"`
}

// SchedulerConfig configures a Scheduler.
type SchedulerConfig struct {
	// QueueDepth bounds the number of queued (not yet running) jobs;
	// submissions beyond it fail fast with ErrQueueFull (backpressure
	// instead of unbounded memory). Default 64.
	QueueDepth int
	// Workers is the number of jobs running concurrently. Default 1: a
	// single experiment already fans its simulations out over SimJobs
	// workers, so more job-level concurrency mostly helps mixed tiny/huge
	// queues.
	Workers int
	// SimJobs is the per-job simulation parallelism passed through to
	// experiments.Options.Jobs (0 = GOMAXPROCS).
	SimJobs int

	// DefaultTimeout is the per-job deadline applied to requests that
	// set no timeout_ms (0 = no deadline).
	DefaultTimeout time.Duration
	// MaxTimeout caps request-supplied timeouts so a client cannot hold
	// a worker hostage with a huge deadline. Default 1h.
	MaxTimeout time.Duration

	// MaxAttempts bounds how many runs of one job may begin (first run +
	// retries + runs interrupted by crashes). Default 3.
	MaxAttempts int
	// RetryBase and RetryMax shape the exponential backoff between
	// retries of transiently failed jobs (defaults 250ms and 10s); the
	// delay before run N+1 is drawn from [b/2, b] with b =
	// min(RetryMax, RetryBase<<(N-1)) (equal jitter).
	RetryBase time.Duration
	RetryMax  time.Duration
	// RetrySeed seeds the jitter generator, making backoff schedules
	// reproducible in tests (0 = seeded from the clock).
	RetrySeed int64

	// RetainJobs caps how many terminal jobs stay in the job table;
	// beyond it the oldest terminal jobs are evicted in submission order
	// (their persisted results remain fetchable by key). Default 1024.
	RetainJobs int

	// Journal, when non-nil, is the write-ahead log: submissions are
	// acknowledged only after their journal record is fsync'd, and a
	// restarted scheduler re-enqueues the crash survivors (Replay).
	Journal *Journal
	// Replay lists journal-recovered jobs to re-enqueue before the
	// workers start (from OpenJournal).
	Replay []ReplayJob

	// Faults, when non-nil, receives injection-point fires (chaos
	// testing; see internal/faultinject).
	Faults FaultPoints

	// After is the timer source for retry backoff waits (nil =
	// time.After); tests inject it to run backoff schedules instantly.
	After func(time.Duration) <-chan time.Time

	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...interface{})
}

// Scheduler owns the job table, the bounded queue and the worker pool.
type Scheduler struct {
	*JobTable[*sjob]

	cfg       SchedulerConfig
	store     *Store
	journal   *Journal
	runStats  *experiments.RunnerStats
	counters  *stats.Counters
	durations *stats.Histogram
	cpiStats  *experiments.CPIAccumulator

	baseCtx    context.Context
	baseCancel context.CancelFunc
	queue      chan *sjob
	wg         sync.WaitGroup
	retryWG    sync.WaitGroup
	// drainCh is closed when Shutdown begins; backoff waits abort on it.
	drainCh chan struct{}

	mu       sync.Mutex
	retryRng *rand.Rand // jitter source; guarded by mu
	closed   bool
	ready    bool
}

// NewScheduler starts a scheduler with cfg's worker pool over the given
// store. Journal-recovered jobs (cfg.Replay) are re-enqueued, in their
// original submission order and ahead of any new submission, before the
// workers start; the scheduler reports Ready once recovery is complete.
func NewScheduler(cfg SchedulerConfig, store *Store) *Scheduler {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = time.Hour
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 250 * time.Millisecond
	}
	if cfg.RetryMax <= 0 {
		cfg.RetryMax = 10 * time.Second
	}
	if cfg.RetainJobs <= 0 {
		cfg.RetainJobs = 1024
	}
	if cfg.RetrySeed == 0 {
		cfg.RetrySeed = time.Now().UnixNano()
	}
	if cfg.After == nil {
		cfg.After = time.After
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...interface{}) {}
	}
	depth := cfg.QueueDepth
	if len(cfg.Replay) > depth {
		// The queue must hold every crash survivor; backpressure applies
		// to new work, not recovery.
		depth = len(cfg.Replay)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Scheduler{
		cfg:        cfg,
		store:      store,
		journal:    cfg.Journal,
		runStats:   &experiments.RunnerStats{},
		counters:   stats.NewCounters(),
		durations:  stats.NewHistogram(JobDurationBounds...),
		cpiStats:   experiments.NewCPIAccumulator(),
		baseCtx:    ctx,
		baseCancel: cancel,
		queue:      make(chan *sjob, depth),
		drainCh:    make(chan struct{}),
		retryRng:   rand.New(rand.NewSource(cfg.RetrySeed)),
	}
	s.JobTable = NewJobTable[*sjob](&s.mu, schedOwner{s}, s.counters, "j", cfg.RetainJobs, false)
	s.journal.SetFaults(cfg.Faults)
	s.restore(cfg.Replay)
	s.mu.Lock()
	s.ready = true
	s.mu.Unlock()
	s.wg.Add(cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		go s.worker()
	}
	return s
}

// restore re-enqueues journal-recovered jobs. Runs before the workers
// start, so recovered work keeps its pre-crash order.
func (s *Scheduler) restore(replay []ReplayJob) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(replay) > 0 {
		// One replay event per recovery, however many jobs it carried
		// (the per-job count is the "replayed" event).
		s.counters.Add("journal_replays", 1)
	}
	for _, rj := range replay {
		job := &sjob{journaled: true}
		job.JobStatus = JobStatus{ID: rj.ID, State: JobQueued, Request: rj.Request, ResultKey: rj.Key,
			Attempts: rj.Attempt, Replayed: true, Created: time.Now()}
		s.RestoreLocked(job)
		if rj.Interrupted {
			s.counters.Add("interrupted", 1)
		}

		// Crash window between persist and the terminal journal record:
		// the result is already durable, so complete without re-running.
		if _, ok := s.store.Get(rj.Key); ok {
			job.CacheHit = true
			s.counters.Add("cache_hits", 1)
			s.FinishLocked(job, JobDone, "", "")
			continue
		}
		if job.Attempts >= s.cfg.MaxAttempts {
			s.FinishLocked(job, JobFailed,
				fmt.Sprintf("service: %d attempts exhausted across restarts", job.Attempts), ErrKindTransient)
			continue
		}
		s.queue <- job // capacity ≥ len(replay): never blocks
		s.cfg.Logf("acbd: %s replayed (attempt %d, interrupted=%v): %s",
			job.ID, job.Attempts, rj.Interrupted, job.Request.Experiment)
	}
}

// Store returns the scheduler's result store.
func (s *Scheduler) Store() *Store { return s.store }

// RunnerStats returns the cumulative experiment-runner totals.
func (s *Scheduler) RunnerStats() *experiments.RunnerStats { return s.runStats }

// Counters returns the scheduler's monotonic counters (submitted,
// rejected, deduped, cache_hits, simulated, retried, replayed,
// interrupted, deadline_exceeded, journal_errors, done, failed,
// cancelled).
func (s *Scheduler) Counters() *stats.Counters { return s.counters }

// JobDurationBounds are the per-job wall-duration histogram bucket upper
// bounds in seconds, spanning tiny smoke budgets to full-suite sweeps.
var JobDurationBounds = []float64{0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300}

// Durations returns the per-job wall-duration histogram (every executed
// run observes one sample on completion, including runs that are later
// retried; cache hits and queue-cancelled jobs never ran and are
// excluded).
func (s *Scheduler) Durations() *stats.Histogram { return s.durations }

// CPIStats returns the service-lifetime per-scheme CPI-stack totals
// accumulated across every simulated job.
func (s *Scheduler) CPIStats() *experiments.CPIAccumulator { return s.cpiStats }

// Ready reports whether the scheduler is accepting and executing work:
// false while journal replay is still populating the queue and once
// draining has begun. The reason string explains a false answer.
func (s *Scheduler) Ready() (bool, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.closed:
		return false, "draining for shutdown"
	case !s.ready:
		return false, "replaying journal"
	}
	return true, ""
}

// schedOwner is the scheduler's part of its job table: submissions go
// through the bounded queue, and with a journal, acceptance is
// acknowledged only after the submit record is fsync'd.
type schedOwner struct{ s *Scheduler }

func (o schedOwner) NewEntry(j Job) *sjob { return &sjob{Job: j} }

func (o schedOwner) Refuse() error {
	if o.s.closed {
		return ErrShuttingDown
	}
	return nil
}

func (o schedOwner) Cached(key string) bool {
	_, ok := o.s.store.Get(key)
	return ok
}

func (o schedOwner) Enqueue(job *sjob) error {
	select {
	case o.s.queue <- job:
		return nil
	default:
		// Rejected submissions are counted separately and never inflate
		// "submitted" (which feeds capacity accounting).
		o.s.counters.Add("rejected", 1)
		return ErrQueueFull
	}
}

func (o schedOwner) Admitted(job *sjob) {
	s := o.s
	if job.CacheHit {
		s.counters.Add("done", 1)
		return
	}
	if s.journal != nil {
		if jerr := s.journal.Submit(job.ID, job.ResultKey, job.Request, 0); jerr != nil {
			// Non-fatal: the job runs, it just loses crash durability.
			s.counters.Add("journal_errors", 1)
			s.cfg.Logf("acbd: %s: journal submit: %v", job.ID, jerr)
		} else {
			job.journaled = true
		}
	}
	s.cfg.Logf("acbd: %s queued: %s key=%.12s", job.ID, job.Request.Experiment, job.ResultKey)
}

func (o schedOwner) Finished(job *sjob) {
	s := o.s
	s.counters.Add(string(job.State), 1)
	if job.journaled {
		if jerr := s.journal.Terminal(job.ID, job.State, job.Error); jerr != nil {
			s.counters.Add("journal_errors", 1)
			s.cfg.Logf("acbd: %s: journal terminal: %v", job.ID, jerr)
		}
	}
	s.cfg.Logf("acbd: %s %s (%s)", job.ID, job.State, job.Request.Experiment)
}

// Cancel requests cancellation of the identified job: a queued job is
// cancelled on the spot (its queue slot is skipped by the worker, and a
// pending retry is abandoned), a running job's simulation context is
// cancelled and the job reaches the cancelled state once the core
// stops. Terminal jobs are left untouched.
func (s *Scheduler) Cancel(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.LookupLocked(id)
	if !ok {
		return JobStatus{}, ErrUnknownJob
	}
	switch job.State {
	case JobQueued:
		s.FinishLocked(job, JobCancelled, "cancelled while queued", "")
	case JobRunning:
		if job.cancel != nil {
			job.cancel()
		}
	}
	return s.statusLocked(job), nil
}

// QueueDepth returns the number of jobs waiting in the queue.
func (s *Scheduler) QueueDepth() int { return len(s.queue) }

// Shutdown stops accepting submissions and drains: queued and running
// jobs complete normally, while jobs waiting out a retry backoff fail
// fast (journaled jobs keep their requeue record, so a restart resumes
// the retry). If ctx expires first, the remaining jobs' simulation
// contexts are cancelled and Shutdown returns ctx.Err() once they have
// unwound. The write-through store needs no separate persist step.
func (s *Scheduler) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.closed
	if !already {
		s.closed = true
		close(s.queue)
		close(s.drainCh)
	}
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		s.retryWG.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		s.baseCancel()
		<-drained
		err = ctx.Err()
	}
	if cerr := s.journal.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// worker drains the queue until Shutdown closes it.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for job := range s.queue {
		s.runJob(job)
	}
}

// jobTimeout resolves a request's effective deadline: the request's
// timeout_ms capped by MaxTimeout, or DefaultTimeout when the request
// sets none (0 = no deadline).
func (s *Scheduler) jobTimeout(req Request) time.Duration {
	d := time.Duration(req.TimeoutMS) * time.Millisecond
	if d <= 0 {
		return s.cfg.DefaultTimeout
	}
	if d > s.cfg.MaxTimeout {
		return s.cfg.MaxTimeout
	}
	return d
}

// execute runs one attempt of the job's experiment, converting worker
// panics (including injected ones) into errors so a poisoned job cannot
// take the daemon down with it.
func (s *Scheduler) execute(ctx context.Context, job *sjob, jobCPI *experiments.CPIAccumulator) (tab *stats.Table, err error) {
	defer func() {
		if r := recover(); r != nil {
			if re, ok := r.(error); ok {
				err = fmt.Errorf("service: worker panic: %w", re)
			} else {
				err = fmt.Errorf("service: worker panic: %v", r)
			}
			tab = nil
		}
	}()
	if f := s.cfg.Faults; f != nil {
		f.Fire("worker.slow") // slowness-only point: error kinds ignored here
		if ferr := f.Fire("worker"); ferr != nil {
			return nil, ferr
		}
	}
	opts, err := job.Request.options(s.cfg.SimJobs, s.runStats)
	if err != nil {
		return nil, err
	}
	opts.Context = ctx
	opts.Logf = s.cfg.Logf
	opts.CPIStats = jobCPI
	return experiments.Run(job.Request.Experiment, opts)
}

func (s *Scheduler) runJob(job *sjob) {
	s.mu.Lock()
	if job.State != JobQueued { // cancelled while queued or awaiting retry
		s.mu.Unlock()
		return
	}
	timeout := s.jobTimeout(job.Request)
	ctx, cancel := context.WithCancel(s.baseCtx)
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(s.baseCtx, timeout)
	}
	started := time.Now()
	job.State = JobRunning
	job.Started = &started
	job.Attempts++
	job.cancel = cancel
	attempt := job.Attempts
	s.mu.Unlock()
	defer cancel()
	if job.journaled {
		if jerr := s.journal.Start(job.ID); jerr != nil {
			s.counters.Add("journal_errors", 1)
			s.cfg.Logf("acbd: %s: journal start: %v", job.ID, jerr)
		}
	}

	jobCPI := experiments.NewCPIAccumulator()
	tab, err := s.execute(ctx, job, jobCPI)
	s.durations.Observe(time.Since(started).Seconds())
	s.cpiStats.Merge(jobCPI)
	if err == nil {
		s.counters.Add("simulated", 1)
		if perr := s.store.Put(job.ResultKey, job.Request, tab); perr != nil {
			// A result that cannot be persisted is a transient job
			// failure: the attempt is retried rather than silently served
			// without durability.
			err = fmt.Errorf("service: persist: %w", perr)
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if snap := jobCPI.Snapshot(); len(snap) > 0 {
		job.CPI = snap
	}
	switch {
	case err == nil:
		s.FinishLocked(job, JobDone, "", "")
	case errors.Is(err, context.Canceled):
		s.FinishLocked(job, JobCancelled, err.Error(), "")
	case errors.Is(err, context.DeadlineExceeded):
		s.counters.Add("deadline_exceeded", 1)
		s.FinishLocked(job, JobFailed,
			fmt.Sprintf("service: deadline exceeded after %s (timeout %s)",
				time.Since(started).Round(time.Millisecond), timeout), ErrKindDeadline)
	default:
		if attempt < s.cfg.MaxAttempts {
			if !s.closed {
				s.requeueLocked(job, err)
				return
			}
			// Draining: keep the WAL's submit/start record un-terminated
			// so a journaled job's remaining retries resume on restart.
			job.journaled = false
			s.FinishLocked(job, JobFailed,
				fmt.Sprintf("%v (retry abandoned: shutting down; journaled jobs resume on restart)", err), ErrKindTransient)
			return
		}
		s.FinishLocked(job, JobFailed,
			fmt.Sprintf("%v (attempt %d/%d)", err, attempt, s.cfg.MaxAttempts), ErrKindTransient)
	}
}

// requeueLocked schedules a retry of a transiently failed job: the job
// goes back to queued, its requeue is journaled, and after an
// exponential-backoff delay it rejoins the queue. Caller holds s.mu.
func (s *Scheduler) requeueLocked(job *sjob, cause error) {
	job.State = JobQueued
	job.Error = cause.Error()
	delay := Backoff(job.Attempts, s.cfg.RetryBase, s.cfg.RetryMax, s.retryRng)
	s.counters.Add("retried", 1)
	if job.journaled {
		if jerr := s.journal.Requeue(job.ID, job.Attempts); jerr != nil {
			s.counters.Add("journal_errors", 1)
			s.cfg.Logf("acbd: %s: journal requeue: %v", job.ID, jerr)
		}
	}
	s.cfg.Logf("acbd: %s retry %d/%d in %s: %v", job.ID, job.Attempts+1, s.cfg.MaxAttempts, delay, cause)
	s.retryWG.Add(1)
	go s.retryAfter(job, delay)
}

// retryAfter waits out the backoff, then puts the job back on the
// queue. Draining aborts the wait and fails the job fast — without a
// terminal journal record, so a journaled job's retry resumes on
// restart. A job cancelled during backoff stays cancelled.
func (s *Scheduler) retryAfter(job *sjob, delay time.Duration) {
	defer s.retryWG.Done()
	abandon := func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		if job.State != JobQueued {
			return
		}
		job.journaled = false // keep the requeue record: restart resumes the retry
		s.FinishLocked(job, JobFailed,
			fmt.Sprintf("%v (retry abandoned: shutting down; journaled jobs resume on restart)", job.Error), ErrKindTransient)
	}
	select {
	case <-s.cfg.After(delay):
	case <-s.drainCh:
		abandon()
		return
	}
	for {
		s.mu.Lock()
		if job.State != JobQueued { // cancelled while waiting
			s.mu.Unlock()
			return
		}
		if s.closed {
			s.mu.Unlock()
			abandon()
			return
		}
		select {
		case s.queue <- job:
			s.mu.Unlock()
			return
		default: // queue momentarily full of new work; try again shortly
		}
		s.mu.Unlock()
		select {
		case <-s.cfg.After(10 * time.Millisecond):
		case <-s.drainCh:
			abandon()
			return
		}
	}
}

// Backoff is acbd's one retry schedule, shared by job retries, the
// cluster's idempotent RPCs and `acbd submit`: before retry n (n >= 1)
// wait d = min(max, base·2ⁿ⁻¹), drawn uniformly from [d/2, d] (equal
// jitter) so a burst of transient failures does not retry in lockstep.
// rng is the caller's jitter source; it is not safe for concurrent use.
func Backoff(n int, base, max time.Duration, rng *rand.Rand) time.Duration {
	d := base
	for i := 1; i < n && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	half := d / 2
	return half + time.Duration(rng.Int63n(int64(half)+1))
}
