package service

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"acb/internal/stats"
)

// Job is one job-table entry: the status clients see, plus the table's
// completion signal. Owners add their own per-job state by embedding Job
// in an entry type (see JobTable). Every field is guarded by the owner's
// mutex; ID, ResultKey and Request never change once the job is in a
// table.
type Job struct {
	JobStatus
	done chan struct{} // closed on entry to any terminal state
}

func (j *Job) entry() *Job { return j }

// Entry is a job-table entry type: *Job itself, or a pointer to an
// owner's struct that embeds Job.
type Entry interface {
	comparable
	entry() *Job
}

// JobOwner is the part of submission and completion that differs
// between a node's Scheduler and the cluster coordinator. The table
// calls every method with the owner's mutex held.
type JobOwner[J Entry] interface {
	// NewEntry wraps a fresh Job in the owner's entry type.
	NewEntry(Job) J
	// Refuse returns ErrShuttingDown once the owner accepts no new work.
	Refuse() error
	// Cached reports whether the result for key is already stored.
	Cached(key string) bool
	// Enqueue hands a new queued job to the owner's dispatch, or refuses
	// it with ErrQueueFull. The job has no ID yet.
	Enqueue(job J) error
	// Admitted runs once a submitted job has its ID, both for a queued
	// job and for a cache hit (already JobDone).
	Admitted(job J)
	// Finished runs after every FinishLocked transition.
	Finished(job J)
}

// JobTable is the job bookkeeping shared by a node's Scheduler and the
// cluster coordinator: ID minting, submission order, single-flight
// dedup by result key, the cache-hit terminal job, terminal bookkeeping
// with retention eviction, status snapshots and Wait. Owners embed it,
// so its Submit, Job, Jobs, JobCounts and Wait are theirs.
//
// The owner's mutex guards the table and every entry: methods named
// *Locked expect the caller to hold it, the others take it.
type JobTable[J Entry] struct {
	mu       sync.Locker
	owner    JobOwner[J]
	counters *stats.Counters
	prefix   string // ID prefix
	retain   int
	// keyWhenDone withholds the result key from the status of a job that
	// is not done yet.
	keyWhenDone bool

	jobs     map[string]J
	order    []string     // submission order, for listing and eviction
	inflight map[string]J // result key -> non-terminal job (single-flight)
	terminal int          // jobs in a terminal state (retention accounting)
	nextID   int64
}

// NewJobTable returns an empty table guarded by mu. IDs are prefix plus
// a six-digit sequence number; at most retain terminal jobs are kept,
// and the oldest beyond that are evicted in submission order. counters
// receives the submitted, deduped, cache_hits and replayed events.
func NewJobTable[J Entry](mu sync.Locker, owner JobOwner[J], counters *stats.Counters,
	prefix string, retain int, keyWhenDone bool) *JobTable[J] {
	return &JobTable[J]{
		mu:          mu,
		owner:       owner,
		counters:    counters,
		prefix:      prefix,
		retain:      retain,
		keyWhenDone: keyWhenDone,
		jobs:        make(map[string]J),
		inflight:    make(map[string]J),
	}
}

// Submit validates req and schedules it. It returns the job snapshot and
// whether a new job was created: an identical request still in flight
// coalesces onto that job (single-flight), and a stored result completes
// at once as a cache-hit job that never reaches the owner's queue.
// Errors are a validation error, ErrShuttingDown, or the owner's
// ErrQueueFull.
func (t *JobTable[J]) Submit(req Request) (JobStatus, bool, error) {
	key, err := req.Key() // validates and canonicalizes req
	if err != nil {
		return JobStatus{}, false, err
	}

	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.owner.Refuse(); err != nil {
		return JobStatus{}, false, err
	}
	if prior, ok := t.inflight[key]; ok {
		t.counters.Add("deduped", 1)
		return t.statusLocked(prior), false, nil
	}

	now := time.Now()
	job := t.owner.NewEntry(Job{
		JobStatus: JobStatus{Experiment: req.Experiment, Request: req, ResultKey: key, Created: now},
		done:      make(chan struct{}),
	})
	j := job.entry()
	if t.owner.Cached(key) {
		j.State, j.CacheHit, j.Finished = JobDone, true, &now
		close(j.done)
		t.counters.Add("cache_hits", 1)
	} else {
		j.State = JobQueued
		if err := t.owner.Enqueue(job); err != nil {
			return JobStatus{}, false, err
		}
	}
	t.nextID++
	j.ID = fmt.Sprintf("%s%06d", t.prefix, t.nextID)
	t.counters.Add("submitted", 1)
	t.insertLocked(job)
	t.owner.Admitted(job)
	return t.statusLocked(job), true, nil
}

// RestoreLocked re-inserts a job recovered from a journal, keeping its
// ID (fresh IDs continue past it). A terminal job comes back closed; any
// other registers as in flight for its key.
func (t *JobTable[J]) RestoreLocked(job J) {
	j := job.entry()
	if n, err := strconv.ParseInt(strings.TrimPrefix(j.ID, t.prefix), 10, 64); err == nil && n > t.nextID {
		t.nextID = n
	}
	j.Experiment = j.Request.Experiment
	j.done = make(chan struct{})
	if j.State.Terminal() {
		close(j.done)
	}
	t.counters.Add("replayed", 1)
	t.insertLocked(job)
}

func (t *JobTable[J]) insertLocked(job J) {
	j := job.entry()
	t.jobs[j.ID] = job
	t.order = append(t.order, j.ID)
	if j.State.Terminal() {
		t.terminal++
	} else {
		t.inflight[j.ResultKey] = job
	}
	t.evictLocked()
}

// FinishLocked moves job into a terminal state, once: it reports false
// for a job that was already terminal. The owner's Finished hook runs
// before the lock is released.
func (t *JobTable[J]) FinishLocked(job J, state JobState, errMsg, errKind string) bool {
	j := job.entry()
	if j.State.Terminal() {
		return false
	}
	now := time.Now()
	j.State, j.Error, j.ErrorKind, j.Finished = state, errMsg, errKind, &now
	if t.inflight[j.ResultKey] == job {
		delete(t.inflight, j.ResultKey)
	}
	close(j.done)
	t.terminal++
	t.evictLocked()
	t.owner.Finished(job)
	return true
}

// evictLocked enforces the terminal-job retention cap: the oldest
// terminal jobs leave the table, in submission order, until at most
// retain remain. Active jobs are never evicted, and an evicted job's
// stored result stays fetchable by key.
func (t *JobTable[J]) evictLocked() {
	for i := 0; t.terminal > t.retain && i < len(t.order); {
		id := t.order[i]
		if !t.jobs[id].entry().State.Terminal() {
			i++
			continue
		}
		delete(t.jobs, id)
		t.order = append(t.order[:i], t.order[i+1:]...)
		t.terminal--
	}
}

// LookupLocked returns the identified job.
func (t *JobTable[J]) LookupLocked(id string) (J, bool) {
	job, ok := t.jobs[id]
	return job, ok
}

// InflightLocked returns the non-terminal job for a result key.
func (t *JobTable[J]) InflightLocked(key string) (J, bool) {
	job, ok := t.inflight[key]
	return job, ok
}

// EachLocked calls fn for every retained job in submission order.
func (t *JobTable[J]) EachLocked(fn func(J)) {
	for _, id := range t.order {
		fn(t.jobs[id])
	}
}

// ActiveLocked returns the number of non-terminal jobs.
func (t *JobTable[J]) ActiveLocked() int { return len(t.jobs) - t.terminal }

// Job returns the snapshot of the identified job.
func (t *JobTable[J]) Job(id string) (JobStatus, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	job, ok := t.jobs[id]
	if !ok {
		return JobStatus{}, ErrUnknownJob
	}
	return t.statusLocked(job), nil
}

// Jobs returns every retained job snapshot in submission order.
func (t *JobTable[J]) Jobs() []JobStatus {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]JobStatus, 0, len(t.order))
	for _, id := range t.order {
		out = append(out, t.statusLocked(t.jobs[id]))
	}
	return out
}

// JobCounts returns a gauge of retained jobs per state.
func (t *JobTable[J]) JobCounts() map[JobState]int {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[JobState]int, len(States))
	for _, st := range States {
		out[st] = 0
	}
	for _, job := range t.jobs {
		out[job.entry().State]++
	}
	return out
}

// Wait blocks until the job reaches a terminal state or ctx is done.
func (t *JobTable[J]) Wait(ctx context.Context, id string) (JobStatus, error) {
	t.mu.Lock()
	job, ok := t.jobs[id]
	t.mu.Unlock()
	if !ok {
		return JobStatus{}, ErrUnknownJob
	}
	select {
	case <-job.entry().done:
		return t.Job(id)
	case <-ctx.Done():
		return JobStatus{}, ctx.Err()
	}
}

func (t *JobTable[J]) statusLocked(job J) JobStatus {
	st := job.entry().JobStatus
	if t.keyWhenDone && st.State != JobDone {
		st.ResultKey = ""
	}
	return st
}
