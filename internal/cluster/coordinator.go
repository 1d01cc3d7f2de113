package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"acb/internal/service"
	"acb/internal/stats"
)

// Member is one worker shard in the static fleet: a stable name (the
// ring and the metrics node label key on it) and a base URL.
type Member struct {
	Name string
	URL  string
}

// Config configures a Coordinator. Zero values take the defaults noted.
type Config struct {
	// Node is the coordinator's own identity for its metrics series.
	Node string
	// Workers is the static fleet. Liveness within it is probed; the set
	// itself does not change at runtime.
	Workers []Member

	// QueueDepth bounds non-terminal cluster jobs; submissions beyond it
	// fail fast with service.ErrQueueFull. Default 4096.
	QueueDepth int
	// RetainJobs bounds terminal job records kept for status queries.
	// Default 1024.
	RetainJobs int

	// ProbeInterval is the heartbeat period (default 500ms);
	// ProbeTimeout bounds one health probe (default 2s); DeadAfter is
	// the consecutive probe failures that declare a worker dead
	// (default 3).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	DeadAfter     int

	// PollInterval is the job-reconcile period (default 250ms).
	PollInterval time.Duration
	// RPCTimeout bounds one job-control RPC (default 10s).
	RPCTimeout time.Duration

	// MaxAssigns bounds how many worker assignments one job may consume
	// (initial dispatch + re-dispatch after worker death + steals)
	// before the coordinator fails it. Default 6.
	MaxAssigns int
	// StealMargin is how many worker-queued jobs a straggler must hold
	// before an idle worker steals one. Default 2.
	StealMargin int
	// VNodes is the ring's virtual-node count per worker (default 64).
	VNodes int

	// Journal is the cluster write-ahead log (nil = not journaled).
	// Every placement, dispatch, steal, completion and membership
	// transition is appended before the in-memory job table mutates.
	Journal *Journal
	// Replay is the job set recovered from the journal at open, restored
	// into the table before the control loop starts: terminal jobs come
	// back queryable, placed jobs are re-probed via reconcile rather than
	// re-run, and unplaced jobs re-enter dispatch.
	Replay []ReplayedJob
	// Epoch is the coordinator's fencing epoch, stamped on every RPC.
	// Workers reject RPCs below the highest epoch they have seen, which
	// is what keeps a stale primary harmless after a failover (0 = not
	// clustered for fencing; nothing is stamped).
	Epoch uint64
	// Promoted marks a coordinator born from a standby takeover (counts
	// acbd_failovers_total).
	Promoted bool

	// Faults wires the rpc / rpc.<node> partition points (nil = none).
	Faults service.FaultPoints
	// Logf receives operational logs (default: discard).
	Logf func(format string, args ...interface{})
}

func (cfg *Config) fillDefaults() {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4096
	}
	if cfg.RetainJobs <= 0 {
		cfg.RetainJobs = 1024
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 500 * time.Millisecond
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 2 * time.Second
	}
	if cfg.DeadAfter <= 0 {
		cfg.DeadAfter = 3
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 250 * time.Millisecond
	}
	if cfg.RPCTimeout <= 0 {
		cfg.RPCTimeout = 10 * time.Second
	}
	if cfg.MaxAssigns <= 0 {
		cfg.MaxAssigns = 6
	}
	if cfg.StealMargin <= 0 {
		cfg.StealMargin = 2
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...interface{}) {}
	}
}

// member is a fleet entry plus its probed liveness.
type member struct {
	name  string
	url   string
	alive bool
	fails int
}

// cjob is the coordinator's job-table entry: the shared job lifecycle
// plus the worker-side handle. Guarded by the coordinator's mutex.
type cjob struct {
	service.Job
	remoteID string // job ID on the assigned worker
	cancel   bool   // client requested cancellation
	// remoteDone marks a job the worker reports finished whose result
	// the coordinator has not yet replicated. The job goes terminal only
	// once the replica lands (done ⇒ result durable at the coordinator);
	// if the worker dies first, the job reruns instead of going
	// done-but-unfetchable.
	remoteDone bool
	fetchTries int
}

// JobStatus is a coordinator job snapshot as clients decode it: the
// single-node status shape, whose worker and stolen fields only a
// coordinator sets.
type JobStatus struct {
	service.JobStatus
}

// Coordinator owns cluster state: fleet liveness, the live-member ring,
// and every cluster job's placement. One background goroutine runs all
// dispatch/reconcile/steal/probe transitions, so those never race each
// other; client-facing methods only read or flag state under the mutex.
type Coordinator struct {
	*service.JobTable[*cjob]

	cfg     Config
	client  *Client
	store   *service.Store
	journal *Journal
	epoch   uint64

	counters *stats.Counters

	mu      sync.Mutex
	fenced  bool // a higher-epoch coordinator exists; stand down
	members map[string]*member
	ring    *Ring // live members only; rebuilt on liveness change

	closed bool
	probed bool // first probe round done (readyz gate)

	kick   chan struct{}
	stopCh chan struct{}
	wg     sync.WaitGroup
}

// New builds a Coordinator over the given result store (the
// coordinator's own cache tier for the results proxy; it may be
// memory-only). Call Start to begin probing and dispatching.
func New(cfg Config, store *service.Store) (*Coordinator, error) {
	cfg.fillDefaults()
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("cluster: coordinator needs at least one worker")
	}
	c := &Coordinator{
		cfg:      cfg,
		client:   NewClient(cfg.RPCTimeout, cfg.Faults),
		store:    store,
		journal:  cfg.Journal,
		epoch:    cfg.Epoch,
		counters: stats.NewCounters(),
		members:  make(map[string]*member),
		kick:     make(chan struct{}, 1),
		stopCh:   make(chan struct{}),
	}
	// A coordinator publishes a result key only once the job is done:
	// before that the result is not yet replicated to it.
	c.JobTable = service.NewJobTable[*cjob](&c.mu, coordOwner{c}, c.counters, "c", cfg.RetainJobs, true)
	for _, m := range cfg.Workers {
		if m.Name == "" || m.URL == "" {
			return nil, fmt.Errorf("cluster: worker needs name and url, got %+v", m)
		}
		if _, dup := c.members[m.Name]; dup {
			return nil, fmt.Errorf("cluster: duplicate worker name %q", m.Name)
		}
		c.members[m.Name] = &member{name: m.Name, url: m.URL}
	}
	c.ring = NewRing(cfg.VNodes) // empty until the first probe round
	// The coordinator's store fills from whichever worker has a key, so
	// GET /v1/results/{key} works for any completed job, wherever it ran.
	store.SetPeers(c.fetchEnvelope, cfg.RPCTimeout)
	if cfg.Epoch > 0 {
		// Stamp the fencing epoch on every RPC; a 409 carrying a higher
		// epoch means another coordinator has taken over — stand down.
		c.client.SetEpoch(cfg.Epoch, c.onStaleEpoch)
	}
	if cfg.Promoted {
		c.counters.Add("failovers", 1)
	}
	if len(cfg.Replay) > 0 {
		c.counters.Add("journal_replays", 1)
		c.restoreReplay(cfg.Replay)
	}
	return c, nil
}

// onStaleEpoch is the client's fencing hook: some worker has seen a
// higher coordinator epoch, meaning a standby promoted past us. Stop
// touching the fleet — every mutation would bounce with 409 anyway —
// and report not-ready so clients move to the new primary.
func (c *Coordinator) onStaleEpoch(higher uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fenced {
		return
	}
	c.fenced = true
	c.counters.Add("fenced", 1)
	c.cfg.Logf("cluster: fenced: epoch %d superseded by %d; standing down", c.epoch, higher)
}

// restoreReplay rebuilds the job table from journal replay. Terminal
// jobs are restored closed (status queries across a restart keep
// working); non-terminal jobs whose result is already in the local
// store complete on the spot; the rest re-enter the table with their
// journaled placement, where reconcile re-probes the assigned worker
// — observing the result of work that kept running through the
// coordinator outage — instead of blindly re-running it.
func (c *Coordinator) restoreReplay(replay []ReplayedJob) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	for _, rj := range replay {
		job := &cjob{remoteID: rj.RemoteID}
		job.JobStatus = service.JobStatus{ID: rj.ID, State: service.JobQueued, Request: rj.Request,
			ResultKey: rj.Key, Worker: rj.Worker, Attempts: rj.Assigns, Stolen: rj.Stolen, Created: now}
		if rj.State.Terminal() {
			job.State, job.Error, job.ErrorKind, job.Finished = rj.State, rj.Err, rj.ErrKind, &now
		}
		c.RestoreLocked(job)
		if rj.State.Terminal() {
			continue
		}
		if _, cached := c.store.GetLocal(rj.Key); cached {
			// The result landed before the crash; the journal just
			// missed the terminal record. Close it out, durably.
			job.Worker, job.remoteID = "", ""
			c.counters.Add("cache_hits", 1)
			c.FinishLocked(job, service.JobDone, "", "")
		}
	}
}

// jlog counts a failed journal append. The append already happened (or
// failed) before the state transition; a failing journal degrades
// durability, not availability, and the metric is the alarm.
func (c *Coordinator) jlog(err error) {
	if err != nil {
		c.counters.Add("journal_errors", 1)
		c.cfg.Logf("cluster: journal append: %v", err)
	}
}

// Epoch returns the coordinator's fencing epoch (0 = unfenced setup).
func (c *Coordinator) Epoch() uint64 { return c.epoch }

// Fenced reports whether a higher-epoch coordinator has taken over.
func (c *Coordinator) Fenced() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fenced
}

// Journal returns the cluster journal (nil when not journaled).
func (c *Coordinator) Journal() *Journal { return c.journal }

// Done is closed when the coordinator shuts down (stream handlers hang
// off it).
func (c *Coordinator) Done() <-chan struct{} { return c.stopCh }

// Start launches the control loop.
func (c *Coordinator) Start() {
	c.wg.Add(1)
	go c.run()
}

// Shutdown stops the control loop. Worker daemons are separate
// processes and keep draining on their own; in-flight cluster job
// records freeze at their last observed state.
func (c *Coordinator) Shutdown(ctx context.Context) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	close(c.stopCh)
	c.mu.Unlock()

	doneCh := make(chan struct{})
	go func() { c.wg.Wait(); close(doneCh) }()
	select {
	case <-doneCh:
		// No terminal records are written here: for the journal, shutdown
		// is a crash, and replay + worker reconciliation is the recovery
		// path either way.
		return c.journal.Close()
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Store returns the coordinator's result store.
func (c *Coordinator) Store() *service.Store { return c.store }

// Counters returns the cluster event counters.
func (c *Coordinator) Counters() *stats.Counters { return c.counters }

// Ready reports whether the coordinator can accept work: the first
// probe round has completed and at least one worker is alive.
func (c *Coordinator) Ready() (bool, string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case c.closed:
		return false, "shutting down"
	case c.fenced:
		return false, fmt.Sprintf("fenced: a newer coordinator (epoch > %d) has taken over", c.epoch)
	case !c.probed:
		return false, "first probe round pending"
	case c.aliveLocked() == 0:
		return false, "no live workers"
	}
	return true, ""
}

func (c *Coordinator) aliveLocked() int {
	n := 0
	for _, m := range c.members {
		if m.alive {
			n++
		}
	}
	return n
}

// MemberStatus is one fleet entry's probed state, for GET /v1/cluster.
type MemberStatus struct {
	Name  string `json:"name"`
	URL   string `json:"url"`
	Alive bool   `json:"alive"`
	Jobs  int    `json:"jobs"` // non-terminal cluster jobs assigned here
}

// Members snapshots the fleet, sorted by name.
func (c *Coordinator) Members() []MemberStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	assigned := make(map[string]int)
	c.EachLocked(func(job *cjob) {
		if !job.State.Terminal() && job.Worker != "" {
			assigned[job.Worker]++
		}
	})
	out := make([]MemberStatus, 0, len(c.members))
	for _, m := range c.members {
		out = append(out, MemberStatus{Name: m.name, URL: m.url, Alive: m.alive, Jobs: assigned[m.name]})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// coordOwner is the coordinator's part of its job table. Submission has
// the single-node contract (see service.JobTable.Submit), with
// QueueDepth bounding the cluster's non-terminal jobs. Every submission,
// completion and cache hit is journaled before the lock is released, so
// no client observes a transition the journal lacks.
type coordOwner struct{ c *Coordinator }

func (o coordOwner) NewEntry(j service.Job) *cjob { return &cjob{Job: j} }

func (o coordOwner) Refuse() error {
	if o.c.closed || o.c.fenced {
		return service.ErrShuttingDown
	}
	return nil
}

// Cached probes the coordinator's local tiers only (memory + disk):
// fresh work must not pay a fleet-wide round of peer RPCs per
// submission. A key some worker has cached anyway dedups remotely — the
// worker answers its dispatch with an instant done.
func (o coordOwner) Cached(key string) bool {
	_, ok := o.c.store.GetLocal(key)
	return ok
}

func (o coordOwner) Enqueue(*cjob) error {
	if o.c.ActiveLocked() >= o.c.cfg.QueueDepth {
		return service.ErrQueueFull
	}
	return nil
}

func (o coordOwner) Admitted(job *cjob) {
	c := o.c
	c.jlog(c.journal.Submit(job.ID, job.ResultKey, job.Request))
	if job.CacheHit {
		c.jlog(c.journal.Terminal(job.ID, service.JobDone, "", ""))
		return
	}
	c.kickLocked()
	c.cfg.Logf("cluster: %s queued: %s key=%.12s", job.ID, job.Request.Experiment, job.ResultKey)
}

// Finished journals the terminal record; the job's placement fields stay
// for post-mortem status. A crash before the record lands replays the
// job as still in flight — at-least-once journaling, made exactly-once
// by content-addressing.
func (o coordOwner) Finished(job *cjob) {
	c := o.c
	c.jlog(c.journal.Terminal(job.ID, job.State, job.Error, job.ErrorKind))
	switch job.State {
	case service.JobDone:
		c.counters.Add("completed", 1)
	case service.JobFailed:
		c.counters.Add("failed", 1)
	case service.JobCancelled:
		c.counters.Add("cancelled", 1)
	}
}

// kickLocked nudges the control loop to dispatch soon.
func (c *Coordinator) kickLocked() {
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

// Cancel requests cancellation: unassigned queued jobs cancel on the
// spot; assigned jobs get a best-effort remote DELETE now and are
// re-DELETEd by the reconcile loop until the worker confirms, so a
// partition during cancel cannot resurrect the job.
func (c *Coordinator) Cancel(id string) (service.JobStatus, error) {
	c.mu.Lock()
	job, ok := c.LookupLocked(id)
	if !ok {
		c.mu.Unlock()
		return service.JobStatus{}, service.ErrUnknownJob
	}
	job.cancel = true
	if job.Worker == "" {
		c.FinishLocked(job, service.JobCancelled, "cancelled while queued", "")
	}
	c.mu.Unlock()
	c.cancelRemote(job, c.applyRemoteLocked)
	return c.Job(id)
}

// cancelRemote DELETEs an assigned job's copy on its worker — for a
// client cancel, its re-issue by reconcile, and a steal — and, if the job
// is still placed there when the reply lands, hands the worker's reply
// to apply under the lock. A 404 means the worker lost the job, which
// requeues it.
func (c *Coordinator) cancelRemote(job *cjob, apply func(*cjob, service.JobStatus)) {
	c.mu.Lock()
	worker, remoteID := job.Worker, job.remoteID
	m := c.members[worker]
	c.mu.Unlock()
	if m == nil || remoteID == "" {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.RPCTimeout)
	var rst service.JobStatus
	err := c.client.do(ctx, worker, http.MethodDelete, m.url+"/v1/jobs/"+remoteID, nil, &rst)
	cancel()
	lost := StatusCode(err) == http.StatusNotFound
	if err != nil && !lost {
		c.counters.Add("rpc_errors", 1)
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if job.State.Terminal() || job.Worker != worker || job.remoteID != remoteID {
		return // finished or re-placed while the RPC was in flight
	}
	if lost {
		c.unassignLocked(job)
		c.counters.Add("requeued_lost", 1)
		return
	}
	apply(job, rst)
}

// applyRemoteLocked folds one observed remote job status into the
// cluster job. Remote cancellations the client never asked for (an
// out-of-band DELETE straight to the worker) requeue the job rather
// than losing it.
func (c *Coordinator) applyRemoteLocked(job *cjob, rst service.JobStatus) {
	if job.State.Terminal() {
		return
	}
	switch rst.State {
	case service.JobQueued:
		job.State = service.JobQueued
	case service.JobRunning:
		job.State = service.JobRunning
		if job.Started == nil {
			job.Started = rst.Started
		}
	case service.JobDone:
		if job.remoteDone {
			return // already awaiting replication
		}
		job.CPI = rst.CPI
		job.remoteDone = true
		job.fetchTries = 0
		// Not terminal yet: warmResults finishes the job once the result
		// is replicated. Running (not queued) so it can't be stolen or
		// re-dispatched meanwhile.
		job.State = service.JobRunning
	case service.JobFailed:
		c.FinishLocked(job, service.JobFailed, rst.Error, rst.ErrorKind)
	case service.JobCancelled:
		if job.cancel {
			c.FinishLocked(job, service.JobCancelled, "cancelled", "")
			return
		}
		c.unassignLocked(job)
		c.counters.Add("requeued_cancelled", 1)
	}
	if job.State == service.JobRunning && job.Started == nil {
		now := time.Now()
		job.Started = &now
	}
}

// unassignLocked returns an assigned job to the dispatchable pool. A job
// the client asked to cancel finishes cancelled instead: no worker holds
// it any more, and dispatch never places it again.
func (c *Coordinator) unassignLocked(job *cjob) {
	if job.Worker != "" {
		c.jlog(c.journal.Unassign(job.ID))
	}
	job.Worker, job.remoteID = "", ""
	job.State = service.JobQueued
	job.remoteDone = false
	job.fetchTries = 0
	if job.cancel {
		c.FinishLocked(job, service.JobCancelled, "cancelled", "")
		return
	}
	c.kickLocked()
}

// run is the control loop. Every membership and placement transition
// happens on this goroutine, which is what keeps dispatch, reconcile,
// steal and death-rehash from racing one another.
func (c *Coordinator) run() {
	defer c.wg.Done()
	c.probe() // immediate first round: readyz and dispatch need not wait
	c.dispatch()
	probeT := time.NewTicker(c.cfg.ProbeInterval)
	defer probeT.Stop()
	pollT := time.NewTicker(c.cfg.PollInterval)
	defer pollT.Stop()
	for {
		select {
		case <-c.stopCh:
			return
		case <-probeT.C:
			c.probe()
			c.dispatch()
		case <-pollT.C:
			c.reconcile()
			c.steal()
			c.dispatch()
			c.warmResults()
		case <-c.kick:
			c.dispatch()
		}
	}
}

// probe health-checks every member in parallel and applies liveness
// transitions: DeadAfter consecutive failures kill a worker (its jobs
// are re-hashed); one success revives it.
func (c *Coordinator) probe() {
	if c.Fenced() {
		return
	}
	c.mu.Lock()
	targets := make([]*member, 0, len(c.members))
	for _, m := range c.members {
		targets = append(targets, m)
	}
	c.mu.Unlock()

	results := make(map[string]bool, len(targets))
	var (
		rmu sync.Mutex
		wg  sync.WaitGroup
	)
	for _, m := range targets {
		wg.Add(1)
		go func(name, url string) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), c.cfg.ProbeTimeout)
			defer cancel()
			// Retries ride inside ProbeTimeout: a blip doesn't count as a
			// failed round, but a dead worker still fails the round on time.
			err := c.client.doIdempotent(ctx, name, http.MethodGet, url+"/v1/healthz", nil, nil)
			rmu.Lock()
			results[name] = err == nil
			rmu.Unlock()
		}(m.name, m.url)
	}
	wg.Wait()

	c.mu.Lock()
	defer c.mu.Unlock()
	changed := false
	for name, ok := range results {
		m := c.members[name]
		if ok {
			m.fails = 0
			if !m.alive {
				m.alive = true
				changed = true
				c.counters.Add("worker_joined", 1)
				c.jlog(c.journal.Member(name, true))
				c.cfg.Logf("cluster: worker %s alive", name)
			}
			continue
		}
		m.fails++
		if m.alive && m.fails >= c.cfg.DeadAfter {
			m.alive = false
			changed = true
			c.counters.Add("worker_dead", 1)
			c.jlog(c.journal.Member(name, false))
			c.cfg.Logf("cluster: worker %s dead after %d failed probes", name, m.fails)
			c.rehashDeadLocked(name)
		}
	}
	if changed {
		live := make([]string, 0, len(c.members))
		for _, m := range c.members {
			if m.alive {
				live = append(live, m.name)
			}
		}
		c.ring = NewRing(c.cfg.VNodes, live...)
	}
	c.probed = true
}

// rehashDeadLocked requeues every non-terminal job assigned to a dead
// worker; the next dispatch places each on the ring rebuilt without it.
// The jobs are collected first: unassigning a cancelled job finishes it,
// which may evict records from the table the walk is ranging over.
func (c *Coordinator) rehashDeadLocked(name string) {
	var held []*cjob
	c.EachLocked(func(job *cjob) {
		if job.Worker == name && !job.State.Terminal() {
			held = append(held, job)
		}
	})
	for _, job := range held {
		c.unassignLocked(job)
		c.counters.Add("rehashed", 1)
		c.cfg.Logf("cluster: %s rehashed off dead %s", job.ID, name)
	}
}

// dispatch places every unassigned queued job on its ring owner.
func (c *Coordinator) dispatch() {
	c.mu.Lock()
	if c.closed || c.fenced {
		c.mu.Unlock()
		return
	}
	ring := c.ring
	urls := c.liveURLsLocked()
	var pending []*cjob
	c.EachLocked(func(job *cjob) {
		if job.State == service.JobQueued && job.Worker == "" && !job.cancel {
			pending = append(pending, job)
		}
	})
	c.mu.Unlock()
	if ring.Len() == 0 || len(pending) == 0 {
		return
	}

	for _, job := range pending {
		owner, ok := ring.Owner(job.ResultKey)
		if !ok {
			return
		}
		url := urls[owner]
		if url == "" {
			continue
		}
		c.mu.Lock()
		if job.Attempts >= c.cfg.MaxAssigns {
			c.FinishLocked(job, service.JobFailed,
				fmt.Sprintf("exceeded %d worker assignments", c.cfg.MaxAssigns), "cluster")
			c.mu.Unlock()
			continue
		}
		c.mu.Unlock()
		c.assign(job, owner, url, false)
	}
}

// assign submits one job to one worker and records the placement. The
// steal flag marks reassignments taken from a straggler.
func (c *Coordinator) assign(job *cjob, worker, url string, steal bool) {
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.RPCTimeout)
	defer cancel()
	var sr service.JobStatus // the reply's "deduped" flag is not needed
	err := c.client.do(ctx, worker, http.MethodPost, url+"/v1/jobs", job.Request, &sr)
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		if StatusCode(err) == http.StatusTooManyRequests {
			c.counters.Add("dispatch_backpressure", 1)
		} else {
			c.counters.Add("rpc_errors", 1)
			c.cfg.Logf("cluster: dispatch %s to %s: %v", job.ID, worker, err)
		}
		return // stays unassigned; next tick retries
	}
	if job.State.Terminal() || job.cancel || job.Worker != "" {
		return // cancelled or re-placed while the RPC was in flight
	}
	stolen := job.Stolen
	if steal {
		stolen++
	}
	c.jlog(c.journal.Assign(job.ID, worker, sr.ID, job.Attempts+1, stolen, steal))
	job.Worker = worker
	job.remoteID = sr.ID
	job.Attempts++
	if steal {
		job.Stolen++
		c.counters.Add("stolen", 1)
	}
	c.counters.Add("dispatched", 1)
	c.cfg.Logf("cluster: %s -> %s as %s", job.ID, worker, sr.ID)
	c.applyRemoteLocked(job, sr) // instant done on a worker cache hit
}

// reconcile polls each live worker's job list and folds the observed
// states into cluster jobs; lost jobs (a worker that restarted without
// its journal) requeue, and unconfirmed cancels are re-issued.
func (c *Coordinator) reconcile() {
	if c.Fenced() {
		return
	}
	c.mu.Lock()
	byWorker := make(map[string][]*cjob)
	urls := c.liveURLsLocked()
	c.EachLocked(func(job *cjob) {
		if !job.State.Terminal() && job.Worker != "" && job.remoteID != "" {
			byWorker[job.Worker] = append(byWorker[job.Worker], job)
		}
	})
	c.mu.Unlock()

	var dels []*cjob // unconfirmed cancels
	// Every live worker is listed, not just those holding assignments:
	// the listing doubles as the epoch-fence re-registration handshake
	// (a worker that adopted a new coordinator epoch reports not-ready
	// until the coordinator has seen its job table), so idle workers
	// must be reconciled too.
	for worker, url := range urls {
		assigned := byWorker[worker]
		ctx, cancel := context.WithTimeout(context.Background(), c.cfg.RPCTimeout)
		var list struct {
			Jobs []service.JobStatus `json:"jobs"`
		}
		err := c.client.doIdempotent(ctx, worker, http.MethodGet, url+"/v1/jobs", nil, &list)
		cancel()
		if err != nil {
			c.counters.Add("rpc_errors", 1)
			continue
		}
		byID := make(map[string]service.JobStatus, len(list.Jobs))
		for _, st := range list.Jobs {
			byID[st.ID] = st
		}
		c.mu.Lock()
		for _, job := range assigned {
			if job.State.Terminal() || job.Worker != worker {
				continue
			}
			rst, ok := byID[job.remoteID]
			if !ok {
				// The worker no longer knows the job: it restarted without
				// journal replay or evicted the record. Rerun elsewhere.
				c.unassignLocked(job)
				c.counters.Add("requeued_lost", 1)
				c.cfg.Logf("cluster: %s lost by %s, requeued", job.ID, worker)
				continue
			}
			c.applyRemoteLocked(job, rst)
			if job.cancel && !job.State.Terminal() && !job.remoteDone {
				dels = append(dels, job)
			}
		}
		c.mu.Unlock()
	}

	for _, job := range dels {
		c.cancelRemote(job, c.applyRemoteLocked)
	}
}

// steal rebalances: when a worker sits idle while another holds at
// least StealMargin worker-queued cluster jobs, the coordinator cancels
// the straggler's most recently queued job and resubmits it to the idle
// worker. One steal per idle worker per round keeps the churn bounded.
func (c *Coordinator) steal() {
	if c.Fenced() {
		return
	}
	c.mu.Lock()
	urls := c.liveURLsLocked()
	queuedBy := make(map[string][]*cjob)
	busy := make(map[string]int)
	c.EachLocked(func(job *cjob) {
		if job.State.Terminal() || job.Worker == "" {
			return
		}
		busy[job.Worker]++
		if job.State == service.JobQueued && !job.cancel {
			queuedBy[job.Worker] = append(queuedBy[job.Worker], job)
		}
	})
	var idle []string
	for name := range urls {
		if busy[name] == 0 {
			idle = append(idle, name)
		}
	}
	sort.Strings(idle)
	c.mu.Unlock()
	if len(idle) == 0 {
		return
	}

	for _, thief := range idle {
		// Most-loaded straggler with at least StealMargin queued.
		var victim string
		for name, q := range queuedBy {
			if name == thief || urls[name] == "" || len(q) < c.cfg.StealMargin {
				continue
			}
			if victim == "" || len(q) > len(queuedBy[victim]) ||
				(len(q) == len(queuedBy[victim]) && name < victim) {
				victim = name
			}
		}
		if victim == "" {
			return
		}
		q := queuedBy[victim]
		job := q[len(q)-1] // LIFO: keep the victim's FIFO head in place
		queuedBy[victim] = q[:len(q)-1]
		// A job that finished between the poll and the DELETE just
		// completes; one that was cancelled moves to the thief.
		released := false
		c.cancelRemote(job, func(job *cjob, rst service.JobStatus) {
			if job.cancel || rst.State == service.JobDone || rst.State == service.JobFailed {
				c.applyRemoteLocked(job, rst)
				return
			}
			// Cancelled (or cancelling) on the victim. Results are
			// content-addressed and deterministic, so even a cancel that
			// lost the race and let the run finish cannot corrupt anything
			// — the two shards would store byte-identical results.
			c.jlog(c.journal.Unassign(job.ID))
			job.Worker, job.remoteID = "", ""
			released = true
		})
		if released {
			c.assign(job, thief, urls[thief], true)
		}
	}
}

// warmResults replicates worker-reported results into the
// coordinator's own store and only then marks those jobs done (a Get
// drives the store's peer tier, fetchEnvelope, which asks the job's
// worker first). This is the durability handshake: a job is never
// terminal while its result lives only on a shard that might die. A result that
// stays unfetchable for 3 rounds — worker died right after finishing —
// sends the job back to dispatch for a rerun; determinism and
// content-addressing make the rerun byte-identical, so nothing is
// double-counted.
func (c *Coordinator) warmResults() {
	if c.Fenced() {
		return
	}
	c.mu.Lock()
	var pend []*cjob // submission order
	c.EachLocked(func(job *cjob) {
		if job.remoteDone && !job.State.Terminal() {
			pend = append(pend, job)
		}
	})
	c.mu.Unlock()
	var landed []*cjob
	for _, job := range pend {
		_, ok := c.store.Get(job.ResultKey)
		c.mu.Lock()
		switch {
		case job.State.Terminal() || !job.remoteDone:
			// raced with a concurrent transition; nothing to do
		case ok:
			c.counters.Add("results_warmed", 1)
			c.FinishLocked(job, service.JobDone, "", "")
			landed = append(landed, job)
		default:
			job.fetchTries++
			if job.fetchTries >= 3 {
				c.counters.Add("warm_failures", 1)
				c.cfg.Logf("cluster: %s done on %s but result unreachable; rerunning", job.ID, job.Worker)
				c.unassignLocked(job)
			}
		}
		c.mu.Unlock()
	}
	for _, job := range landed {
		c.replicate(job.ResultKey, job.Worker)
	}
}

// replicate pushes a freshly landed result envelope to the key's ring
// owner and successor (RF=2 across the worker fleet, on top of the
// coordinator's own copy), skipping completer, the shard that finished
// the job — that one already has the result on disk. Losing any single
// node after this point loses no result: the peer-fetch path falls back
// to the successor when the owner is gone. Failures are counted, not
// retried; the coordinator's copy already satisfies the done ⇒ durable
// handshake, and the next peer fetch self-heals the replica.
func (c *Coordinator) replicate(key, completer string) {
	env, ok := c.store.Envelope(key)
	if !ok {
		c.counters.Add("replica_errors", 1)
		return
	}
	c.mu.Lock()
	urls := c.liveURLsLocked()
	owners := c.ring.Owners(key, 2)
	c.mu.Unlock()
	for _, name := range owners {
		if name == completer || urls[name] == "" {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), c.cfg.RPCTimeout)
		err := c.client.putBytes(ctx, name, urls[name]+"/v1/store/"+key, env)
		cancel()
		if err != nil {
			c.counters.Add("replica_errors", 1)
			c.cfg.Logf("cluster: replicate %.12s to %s: %v", key, name, err)
			continue
		}
		c.counters.Add("replicated", 1)
	}
}

// liveURLsLocked maps live member name → base URL.
func (c *Coordinator) liveURLsLocked() map[string]string {
	out := make(map[string]string, len(c.members))
	for _, m := range c.members {
		if m.alive {
			out[m.name] = m.url
		}
	}
	return out
}

// fetchEnvelope is the coordinator store's peer tier, walked by
// Client.fetchFirst. Candidates: the worker of the key's in-flight job
// (the one that finished it, when warmResults asks — the ring owner is
// wrong for stolen and rehashed jobs), then the ring owner and its
// successor (the RF=2 replica holders), then the rest of the live fleet
// in name order.
func (c *Coordinator) fetchEnvelope(ctx context.Context, key string) ([]byte, error) {
	c.mu.Lock()
	urls := c.liveURLsLocked()
	var cands []string
	if job, ok := c.InflightLocked(key); ok {
		cands = append(cands, job.Worker)
	}
	cands = append(cands, c.ring.Owners(key, 2)...)
	c.mu.Unlock()
	rest := make([]string, 0, len(urls))
	for name := range urls {
		rest = append(rest, name)
	}
	sort.Strings(rest)
	return c.client.fetchFirst(ctx, key, append(cands, rest...), urls)
}
