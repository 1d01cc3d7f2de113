package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"acb/internal/cluster"
	"acb/internal/config"
	"acb/internal/experiments"
	"acb/internal/service"
	"acb/internal/workload"
)

// node is one in-process acbd node on a loopback listener.
type node struct {
	name  string
	url   string
	srv   *http.Server
	sched *service.Scheduler // workers only
	store *service.Store
}

// fleet is a coordinator with a journal and two workers, wired the way
// `acbd serve` wires them, with its default intervals.
type fleet struct {
	coord   *cluster.Coordinator
	front   node
	workers []node

	mu     sync.Mutex
	events []simEvent // per-simulation completions reported by workers
}

// simEvent is one worker log line marking a finished simulation.
type simEvent struct {
	worker string
	scheme string
	at     time.Time
}

func listen() (net.Listener, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return ln, "http://" + ln.Addr().String(), nil
}

// startFleet starts the cluster under dir and waits until the
// coordinator reports ready.
func startFleet(dir string) (*fleet, error) {
	f := &fleet{}
	lns := make([]net.Listener, 2)
	members := make([]cluster.Member, 2)
	peers := map[string]string{}
	for i := range lns {
		ln, url, err := listen()
		if err != nil {
			return nil, err
		}
		lns[i] = ln
		members[i] = cluster.Member{Name: fmt.Sprintf("w%d", i+1), URL: url}
		peers[members[i].Name] = url
	}
	for i, m := range members {
		store, err := service.NewStore(256, filepath.Join(dir, m.Name, "store"))
		if err != nil {
			return nil, err
		}
		store.SetPeers(cluster.PeerFetcher(m.Name, peers, cluster.NewClient(0, nil)), 0)
		name := m.Name
		sched := service.NewScheduler(service.SchedulerConfig{
			QueueDepth: 64, Workers: 1, SimJobs: 1, MaxTimeout: time.Hour, MaxAttempts: 3,
			Logf: func(format string, args ...interface{}) { f.observe(name, format, args) },
		}, store)
		ssrv := service.NewServer(sched)
		ssrv.SetNode(name)
		fence := cluster.NewFence()
		ssrv.AddReadyCheck(fence.Ready)
		srv := &http.Server{Handler: fence.Middleware(ssrv.Handler())}
		go srv.Serve(lns[i])
		f.workers = append(f.workers, node{name: name, url: m.URL, srv: srv, sched: sched, store: store})
	}

	cdir := filepath.Join(dir, "coord")
	store, err := service.NewStore(256, filepath.Join(cdir, "store"))
	if err != nil {
		return nil, err
	}
	journalPath := filepath.Join(cdir, "journal.jsonl")
	lease, err := cluster.OpenLease(journalPath+".lease", "coord")
	if err != nil {
		return nil, err
	}
	if err := lease.Advance(lease.Epoch() + 1); err != nil {
		return nil, err
	}
	journal, replay, err := cluster.OpenJournal(journalPath)
	if err != nil {
		return nil, err
	}
	coord, err := cluster.New(cluster.Config{
		Node: "coord", Workers: members, QueueDepth: 64,
		ProbeInterval: 500 * time.Millisecond, PollInterval: 250 * time.Millisecond, DeadAfter: 3,
		Journal: journal, Replay: replay, Epoch: lease.Epoch(),
	}, store)
	if err != nil {
		return nil, err
	}
	coord.Start()
	f.coord = coord
	ln, url, err := listen()
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: cluster.NewServer(coord).Handler()}
	go srv.Serve(ln)
	f.front = node{name: "coord", url: url, srv: srv, store: store}

	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(url + "/v1/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return f, nil
			}
		}
		if time.Now().After(deadline) {
			f.stop()
			return nil, fmt.Errorf("cluster not ready after 30s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// observe records the per-simulation log line the experiments harness
// emits through a worker's Logf when a simulation finishes.
func (f *fleet) observe(worker, format string, args []interface{}) {
	if !strings.Contains(format, "IPC=") || len(args) < 2 {
		return
	}
	ev := simEvent{worker: worker, scheme: fmt.Sprint(args[1]), at: time.Now()}
	f.mu.Lock()
	f.events = append(f.events, ev)
	f.mu.Unlock()
}

// stop shuts the fleet down and waits for every node.
func (f *fleet) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if f.coord != nil {
		f.coord.Shutdown(ctx)
	}
	if f.front.srv != nil {
		f.front.srv.Shutdown(ctx)
	}
	for _, w := range f.workers {
		w.srv.Shutdown(ctx)
		w.sched.Shutdown(ctx)
	}
}

// reqRec is one client request of the stream.
type reqRec struct {
	cold  bool
	key   string
	name  string // workload of the request
	lat   time.Duration
	body  []byte
	coord service.JobStatus // terminal status reported by the stream
}

// client issues one closed-loop request stream.
type client struct {
	id   int
	base string
	http *http.Client
	r    *run
}

// request submits req and waits for its result bytes.
func (c *client) request(req service.Request, op int64) (reqRec, error) {
	var rec reqRec
	sp := c.r.tr.begin("service.request", 0, op)
	defer c.r.tr.end(sp)
	t0 := time.Now()
	body, _ := json.Marshal(req)
	ssp := c.r.tr.begin("service.submit", sp, op)
	resp, err := c.http.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return rec, err
	}
	var st cluster.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	c.r.tr.end(ssp)
	if err != nil {
		return rec, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		return rec, fmt.Errorf("submit: HTTP %d", resp.StatusCode)
	}
	if st.State != service.JobDone {
		wsp := c.r.tr.begin("service.wait", sp, op)
		resp, err := c.http.Get(c.base + "/v1/results:stream?ids=" + st.ID)
		if err != nil {
			return rec, err
		}
		line, err := bufio.NewReader(resp.Body).ReadBytes('\n')
		resp.Body.Close()
		c.r.tr.end(wsp)
		if err != nil {
			return rec, fmt.Errorf("stream: %w", err)
		}
		st = cluster.JobStatus{}
		if err := json.Unmarshal(line, &st); err != nil {
			return rec, fmt.Errorf("stream: %w", err)
		}
		if st.State != service.JobDone {
			return rec, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
		}
	}
	fsp := c.r.tr.begin("service.fetch", sp, op)
	resp, err = c.http.Get(c.base + "/v1/results/" + st.ResultKey)
	if err != nil {
		return rec, err
	}
	rec.body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	c.r.tr.end(fsp)
	if err != nil {
		return rec, err
	}
	if resp.StatusCode != http.StatusOK {
		return rec, fmt.Errorf("result %s: HTTP %d", st.ResultKey, resp.StatusCode)
	}
	rec.lat = time.Since(t0)
	rec.key = st.ResultKey
	rec.coord = st.JobStatus
	return rec, nil
}

// stream runs the client's closed loop until the deadline: segment j is
// one cold request (single-workload fig6, the workload taken in a seeded
// order, made unique through Request.Seed) followed by repeats of the
// client's earlier cold requests, picked by the seeded generator.
func (c *client) stream(deadline time.Time, names []string, segOffset int) ([]reqRec, []time.Duration) {
	rng := rand.New(rand.NewSource(int64(c.r.seed)*7919 + int64(c.id)))
	order := rng.Perm(len(names))
	var recs []reqRec
	var colds []service.Request
	var segs []time.Duration
	for j := segOffset; time.Now().Before(deadline); j++ {
		t0 := time.Now()
		name := names[order[j%len(names)]]
		cold := service.Request{
			Experiment: "fig6",
			Workloads:  []string{name},
			Budget:     c.r.sizes.acbdBudget,
			Seed:       int64(c.r.seed)*1_000_000 + int64(c.id)*100_000 + int64(j),
		}
		colds = append(colds, cold)
		batch := []service.Request{cold}
		for i := 0; i < c.r.sizes.acbdRepeats; i++ {
			batch = append(batch, colds[rng.Intn(len(colds))])
		}
		for i, req := range batch {
			c.r.attempt(1)
			op := int64(c.id)<<32 | int64(len(recs)+1)
			rec, err := c.request(req, op)
			if err != nil {
				c.r.fail("client %d: %s %v: %v", c.id, req.Experiment, req.Workloads, err)
				continue
			}
			rec.cold, rec.name = i == 0, req.Workloads[0]
			if rec.cold && rec.coord.CacheHit {
				c.r.fail("client %d: cold request %v was served from the cache", c.id, req.Workloads)
			}
			if !rec.cold && !rec.coord.CacheHit {
				c.r.fail("client %d: repeat of %v was not served from the cache", c.id, req.Workloads)
			}
			recs = append(recs, rec)
		}
		segs = append(segs, time.Since(t0))
	}
	return recs, segs
}

// runACBD is the acbd-mixed workload: two closed-loop clients against an
// in-process coordinator with a journal and two workers (one job at a
// time each, one simulation per job, disk stores), all on loopback.
func runACBD(r *run) error {
	var f *fleet
	if err := r.setup(r.sizes.fleetStarts, func(rep int) error {
		if f != nil {
			f.stop()
		}
		var err error
		f, err = startFleet(filepath.Join(r.dir, fmt.Sprintf("fleet-%d", rep)))
		return err
	}); err != nil {
		return err
	}
	defer func() { f.stop() }()

	// Cold requests draw from the programs without a pointer-chase image:
	// building a chase image alone takes up to 220 ms, so those jobs
	// would straddle the coordinator's 250 ms poll tick, and the tick
	// count, not the service, would decide their latency. fig6-detailed
	// and fig6-sampled cover them.
	var names []string
	for _, w := range workload.All() {
		if w.Spec.ChaseDepth == 0 {
			names = append(names, w.Name)
		}
	}
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}
	defer hc.CloseIdleConnections()

	// The traced run streams untraced for the first half of the window
	// and traced for the second, to measure the tracing overhead.
	window := time.Duration(r.seconds * float64(time.Second))
	phases := []bool{false}
	if r.trace {
		phases = []bool{false, true}
		window /= 2
	}
	var all []reqRec
	segs := map[bool][]time.Duration{}
	start := time.Now()
	stopCal := make(chan struct{})
	calc := calibrateEvery(200*time.Millisecond, stopCal)
	for pi, traced := range phases {
		r.tr.on = traced
		deadline := time.Now().Add(window)
		var wg sync.WaitGroup
		out := make([][]reqRec, 2)
		seg := make([][]time.Duration, 2)
		for c := 0; c < 2; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				cl := &client{id: c, base: f.front.url, http: hc, r: r}
				out[c], seg[c] = cl.stream(deadline, names, pi*10_000)
			}(c)
		}
		wg.Wait()
		for c := range out {
			all = append(all, out[c]...)
			segs[traced] = append(segs[traced], seg[c]...)
		}
	}
	r.tr.on = r.trace
	streamS := time.Since(start).Seconds()
	close(stopCal)
	cal := <-calc

	var cold, hit []float64
	for _, rec := range all {
		if rec.cold {
			cold = append(cold, ms(rec.lat))
		} else {
			hit = append(hit, ms(rec.lat))
		}
	}
	var segS []float64
	for _, s := range segs[false] {
		segS = append(segS, s.Seconds())
	}
	r.metrics["wall_s"] = median(segS)
	r.metrics["p50_ms"] = quantile(cold, 0.5)
	r.metrics["p90_ms"] = quantile(cold, 0.9)
	r.schemeRates(f, ratio(calNominal, median(cal)))

	if r.trace {
		var tseg []float64
		for _, s := range segs[true] {
			tseg = append(tseg, s.Seconds())
		}
		r.layer["trace_overhead_pct"] = (ratio(median(tseg), median(segS)) - 1) * 100
		r.layer["service.hit_p50_ms"] = quantile(hit, 0.5)
		r.layer["service.hit_p99_ms"] = quantile(hit, 0.99)
		r.layer["service.jobs_per_s"] = ratio(float64(len(all)), streamS)
		r.serviceLayer(f, all)
		if err := r.walLayer(f, len(all)); err != nil {
			return err
		}
	}
	f.stop()
	r.checkResults(all)
	return nil
}

// calibrateEvery runs a calibration job every period while the stream
// runs, on a goroutine of its own beside the workers' simulations, until
// stop closes; it then sends the speeds it measured (Mop/s).
func calibrateEvery(period time.Duration, stop <-chan struct{}) <-chan []float64 {
	out := make(chan []float64, 1)
	go func() {
		var xs []float64
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-stop:
				out <- xs
				return
			case <-t.C:
				xs = append(xs, calOps/1e6/calibrate().Seconds())
			}
		}
	}()
	return out
}

// schemeRates derives each scheme's simulation throughput inside the
// workers' cold jobs. A job's two simulations run one after the other
// (SimJobs = 1, baseline first), and each worker logs a line when a
// simulation finishes: baseline time is job start to the first line, ACB
// time the first line to the second. Jobs share the two cores with the
// other worker, the coordinator and the clients, so per program the
// fastest job counts (as acbbench takes the fastest repetition), then the
// geomean over programs. norm scales the rates to the reference host's
// speed, as in the simulation workloads.
func (r *run) schemeRates(f *fleet, norm float64) {
	f.mu.Lock()
	events := append([]simEvent(nil), f.events...)
	f.mu.Unlock()
	per := map[string]map[string][]float64{"baseline": {}, "acb": {}}
	instr := float64(r.sizes.acbdBudget) / 1e6
	for _, w := range f.workers {
		for _, st := range w.sched.Jobs() {
			if st.Started == nil || st.Finished == nil || st.CacheHit || st.State != service.JobDone {
				continue
			}
			var in []simEvent
			for _, ev := range events {
				if ev.worker == w.name && !ev.at.Before(*st.Started) && !ev.at.After(*st.Finished) {
					in = append(in, ev)
				}
			}
			if len(in) != 2 || in[0].scheme != "baseline" || in[1].scheme != "acb" {
				continue
			}
			name := st.Request.Workloads[0]
			per["baseline"][name] = append(per["baseline"][name], instr/in[0].at.Sub(*st.Started).Seconds())
			per["acb"][name] = append(per["acb"][name], instr/in[1].at.Sub(in[0].at).Seconds())
		}
	}
	for _, s := range schemes {
		var gm []float64
		for _, xs := range per[s] {
			gm = append(gm, quantile(xs, 1))
		}
		r.metrics[s+"_minstr_s"] = geomean(gm) * norm
	}
}

// serviceLayer reports worker queueing and run times, store behaviour and
// the coordinator's dispatch and completion lag for the cold jobs.
func (r *run) serviceLayer(f *fleet, recs []reqRec) {
	byKey := map[string]service.JobStatus{}
	var queue, runT []float64
	for _, w := range f.workers {
		for _, st := range w.sched.Jobs() {
			if st.Started == nil || st.Finished == nil || st.CacheHit {
				continue
			}
			byKey[st.ResultKey] = st
			queue = append(queue, ms(st.Started.Sub(st.Created)))
			runT = append(runT, ms(st.Finished.Sub(*st.Started)))
		}
	}
	r.layer["service.queue_wait_ms"] = median(queue)
	r.layer["service.run_ms"] = median(runT)
	var dispatch, lag, assigns []float64
	for _, rec := range recs {
		if !rec.cold || rec.coord.Finished == nil {
			continue
		}
		w, ok := byKey[rec.key]
		if !ok || w.Finished == nil {
			continue
		}
		dispatch = append(dispatch, ms(w.Created.Sub(rec.coord.Created)))
		lag = append(lag, ms(rec.coord.Finished.Sub(*w.Finished)))
		assigns = append(assigns, float64(rec.coord.Attempts))
	}
	r.layer["cluster.dispatch_ms"] = median(dispatch)
	r.layer["cluster.completion_lag_ms_p50"] = quantile(lag, 0.5)
	r.layer["cluster.completion_lag_ms_p90"] = quantile(lag, 0.9)
	r.layer["cluster.assigns_per_job"] = mean(assigns)

	hits, misses := f.front.store.Stats()
	r.layer["service.store_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	var peer int64
	for _, n := range append([]node{f.front}, f.workers...) {
		h, _ := n.store.PeerStats()
		peer += h
	}
	r.layer["service.peer_hits"] = float64(peer)
}

// walLayer reports the coordinator journal's records per job, and the
// cost of one fsync'd append, timed on a scratch journal in the same
// directory tree.
func (r *run) walLayer(f *fleet, jobs int) error {
	recs, _, _ := f.coord.Journal().Snapshot(0)
	r.layer["wal.records_per_job"] = ratio(float64(len(recs)), float64(jobs))
	j, _, err := cluster.OpenJournal(filepath.Join(r.dir, "wal-probe.jsonl"))
	if err != nil {
		return err
	}
	defer j.Close()
	const n = 100
	req := service.Request{Experiment: "fig6", Workloads: []string{"gobmk"}, Budget: r.sizes.acbdBudget}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := j.Submit(fmt.Sprintf("p%06d", i), "probe", req); err != nil {
			return err
		}
	}
	r.layer["wal.append_ms"] = ms(time.Since(t0)) / n
	return nil
}

// checkResults compares every cold result with a direct experiments.Run
// of the same request, and every repeat with its cold result's bytes.
func (r *run) checkResults(recs []reqRec) {
	var names []string
	seen := map[string]bool{}
	for _, rec := range recs {
		if rec.cold && !seen[rec.name] {
			seen[rec.name] = true
			names = append(names, rec.name)
		}
	}
	direct := make([][]byte, len(names))
	err := experiments.Pool(experiments.Options{Jobs: poolJobs}, len(names), func(i int) {
		w, err := workload.ByName(names[i])
		if err != nil {
			r.fail("%v", err)
			return
		}
		tab, err := experiments.Run("fig6", experiments.Options{
			Budget: r.sizes.acbdBudget, Workloads: []workload.Workload{w}, Config: config.Skylake(), Jobs: 1,
		})
		if err != nil {
			r.fail("direct run %s: %v", names[i], err)
			return
		}
		direct[i], err = json.Marshal(tab)
		if err != nil {
			r.fail("direct run %s: %v", names[i], err)
		}
	})
	if err != nil {
		r.fail("direct runs: %v", err)
	}
	want := map[string][]byte{}
	for i, n := range names {
		want[n] = direct[i]
	}
	coldBody := map[string][]byte{}
	for _, rec := range recs {
		if rec.cold {
			coldBody[rec.key] = rec.body
		}
	}
	r.verifyBodies(recs, want, coldBody)
}

// verifyBodies fails every request whose result bytes differ from the
// direct run's (cold) or from its cold request's (repeat).
func (r *run) verifyBodies(recs []reqRec, direct map[string][]byte, cold map[string][]byte) {
	for _, rec := range recs {
		if rec.cold {
			if !bytes.Equal(rec.body, direct[rec.name]) {
				r.fail("%s (key %.12s): acbd result differs from a direct experiments.Run", rec.name, rec.key)
			}
			continue
		}
		if !bytes.Equal(rec.body, cold[rec.key]) {
			r.fail("%s (key %.12s): repeat returned other bytes than the cold result", rec.name, rec.key)
		}
	}
}
