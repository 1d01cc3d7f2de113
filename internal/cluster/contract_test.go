package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"acb/internal/cluster"
	"acb/internal/service"
)

// gate is a fault hook that holds every simulation at the scheduler's
// "worker" point until released, so a job stays running for as long as
// the test needs it in flight.
type gate chan struct{}

func (g gate) Fire(point string) error {
	if point == "worker" {
		<-g
	}
	return nil
}

// contractNode is one node type under test: start boots it with its
// simulations held by g and returns its base URL and a function that
// begins its shutdown.
type contractNode struct {
	name  string
	start func(t *testing.T, g gate) (url string, shutdown func())
	// Status JSON field sets: a running job (GET), a finished job (GET)
	// and a cache hit (the POST reply, which adds "deduped").
	running, done, hit []string
	// keyWhileRunning reports whether a running job's result_key is set.
	keyWhileRunning bool
}

func startSingleNode(t *testing.T, g gate) (string, func()) {
	store, err := service.NewStore(16, "")
	if err != nil {
		t.Fatal(err)
	}
	sched := service.NewScheduler(service.SchedulerConfig{QueueDepth: 1, Workers: 1, SimJobs: 1, Faults: g}, store)
	ts := httptest.NewServer(service.NewServer(sched).Handler())
	shutdown := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		sched.Shutdown(ctx)
	}
	t.Cleanup(func() { ts.Close(); shutdown() })
	return ts.URL, shutdown
}

func startClusterNode(t *testing.T, g gate) (string, func()) {
	wstore, err := service.NewStore(16, "")
	if err != nil {
		t.Fatal(err)
	}
	sched := service.NewScheduler(service.SchedulerConfig{Workers: 1, SimJobs: 1, Faults: g}, wstore)
	wts := httptest.NewServer(service.NewServer(sched).Handler())
	cstore, err := service.NewStore(16, "")
	if err != nil {
		t.Fatal(err)
	}
	coord, err := cluster.New(cluster.Config{
		Node: "coord", Workers: []cluster.Member{{Name: "w1", URL: wts.URL}}, QueueDepth: 1,
		ProbeInterval: 20 * time.Millisecond, PollInterval: 20 * time.Millisecond,
		ProbeTimeout: time.Second, RPCTimeout: 5 * time.Second,
	}, cstore)
	if err != nil {
		t.Fatal(err)
	}
	coord.Start()
	ts := httptest.NewServer(cluster.NewServer(coord).Handler())
	shutdown := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		coord.Shutdown(ctx)
	}
	t.Cleanup(func() {
		ts.Close()
		shutdown()
		wts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		sched.Shutdown(ctx)
	})
	return ts.URL, shutdown
}

// TestSharedJobRoutesContract pins the HTTP contract of the job routes
// every acbd node serves — status codes, Retry-After hints, result
// formats and the status JSON field sets — on both node types: a
// single-node service.Server, and a cluster.Server over a coordinator
// with one in-process worker.
func TestSharedJobRoutesContract(t *testing.T) {
	nodes := []contractNode{
		{
			name:            "single",
			start:           startSingleNode,
			running:         []string{"attempts", "created", "experiment", "id", "request", "result_key", "started", "state"},
			done:            []string{"attempts", "cpi", "created", "experiment", "finished", "id", "request", "result_key", "started", "state"},
			hit:             []string{"cache_hit", "created", "deduped", "experiment", "finished", "id", "request", "result_key", "state"},
			keyWhileRunning: true,
		},
		{
			name:    "coordinator",
			start:   startClusterNode,
			running: []string{"attempts", "created", "experiment", "id", "request", "result_key", "started", "state", "worker"},
			done:    []string{"attempts", "cpi", "created", "experiment", "finished", "id", "request", "result_key", "started", "state", "worker"},
			hit:     []string{"cache_hit", "created", "deduped", "experiment", "finished", "id", "request", "result_key", "state"},
		},
	}
	for _, node := range nodes {
		t.Run(node.name, func(t *testing.T) { checkJobRoutes(t, node) })
	}
}

func checkJobRoutes(t *testing.T, node contractNode) {
	g := make(gate)
	released := false
	release := func() {
		if !released {
			released = true
			close(g)
		}
	}
	defer release()
	base, shutdown := node.start(t, g)

	if code, _, _ := call(t, "GET", base+"/v1/healthz", ""); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, _, _ := call(t, "GET", base+"/v1/readyz", "")
		if code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("readyz never 200 (last %d)", code)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Rejected bodies.
	if code, _, _ := call(t, "POST", base+"/v1/jobs", `{"experiment":"fig6","bogus":1}`); code != http.StatusBadRequest {
		t.Errorf("unknown field: %d, want 400", code)
	}
	if code, _, _ := call(t, "POST", base+"/v1/jobs", `{"experiment":"no-such-experiment"}`); code != http.StatusBadRequest {
		t.Errorf("unknown experiment: %d, want 400", code)
	}

	// A new job, then the same request again while it runs.
	const reqA = `{"experiment":"fig6","workloads":["lammps"],"budget":20000}`
	code, _, body := call(t, "POST", base+"/v1/jobs", reqA)
	if code != http.StatusCreated {
		t.Fatalf("new job: %d %s", code, body)
	}
	var a struct {
		ID      string `json:"id"`
		Deduped bool   `json:"deduped"`
	}
	if err := json.Unmarshal(body, &a); err != nil || a.ID == "" || a.Deduped {
		t.Fatalf("new job reply %s: %v", body, err)
	}
	running := waitState(t, base, a.ID, "running")
	checkFields(t, "running job", running, node.running)
	var st struct {
		ResultKey string `json:"result_key"`
	}
	json.Unmarshal(running, &st)
	if (st.ResultKey != "") != node.keyWhileRunning {
		t.Errorf("running job result_key %q; want set=%v", st.ResultKey, node.keyWhileRunning)
	}

	code, _, body = call(t, "POST", base+"/v1/jobs", reqA)
	var dup struct {
		ID      string `json:"id"`
		Deduped bool   `json:"deduped"`
	}
	if err := json.Unmarshal(body, &dup); err != nil || code != http.StatusOK || dup.ID != a.ID || !dup.Deduped {
		t.Errorf("dedup: %d %s, want 200 deduped onto %s", code, body, a.ID)
	}

	// Backpressure: distinct work is accepted until the queue is full.
	full := false
	for seed := 1; seed <= 4 && !full; seed++ {
		req := `{"experiment":"fig6","workloads":["lammps"],"budget":20000,"seed":` + strconv.Itoa(seed) + `}`
		code, hdr, body := call(t, "POST", base+"/v1/jobs", req)
		switch code {
		case http.StatusCreated:
		case http.StatusTooManyRequests:
			if hdr.Get("Retry-After") == "" {
				t.Errorf("429 without Retry-After")
			}
			full = true
		default:
			t.Fatalf("filler seed %d: %d %s", seed, code, body)
		}
	}
	if !full {
		t.Errorf("queue never reported full")
	}

	// Unknown jobs.
	if code, _, _ := call(t, "GET", base+"/v1/jobs/nope", ""); code != http.StatusNotFound {
		t.Errorf("GET unknown job: %d, want 404", code)
	}
	if code, _, _ := call(t, "DELETE", base+"/v1/jobs/nope", ""); code != http.StatusNotFound {
		t.Errorf("DELETE unknown job: %d, want 404", code)
	}

	release()
	done := waitState(t, base, a.ID, "done")
	checkFields(t, "done job", done, node.done)
	json.Unmarshal(done, &st)
	if st.ResultKey == "" {
		t.Fatalf("done job has no result_key: %s", done)
	}

	// Results in every format, plus the error cases.
	for _, f := range []struct{ format, ctype string }{
		{"", "application/json"},
		{"json", "application/json"},
		{"csv", "text/csv; charset=utf-8"},
		{"ascii", "text/plain; charset=utf-8"},
	} {
		code, hdr, body := call(t, "GET", base+"/v1/results/"+st.ResultKey+"?format="+f.format, "")
		if code != http.StatusOK || hdr.Get("Content-Type") != f.ctype || !bytes.Contains(body, []byte("geomean-speedup")) {
			t.Errorf("results format %q: %d %q %q", f.format, code, hdr.Get("Content-Type"), body)
		}
	}
	if code, _, _ := call(t, "GET", base+"/v1/results/"+st.ResultKey+"?format=xml", ""); code != http.StatusBadRequest {
		t.Errorf("unknown format: %d, want 400", code)
	}
	missing := strings.Repeat("0", 64)
	if code, _, _ := call(t, "GET", base+"/v1/results/"+missing, ""); code != http.StatusNotFound {
		t.Errorf("missing result: %d, want 404", code)
	}
	if code, hdr, body := call(t, "GET", base+"/v1/store/"+st.ResultKey, ""); code != http.StatusOK ||
		hdr.Get("Content-Type") != "application/json" || !json.Valid(body) {
		t.Errorf("store hit: %d %q", code, hdr.Get("Content-Type"))
	}
	if code, _, _ := call(t, "GET", base+"/v1/store/"+missing, ""); code != http.StatusNotFound {
		t.Errorf("store miss: %d, want 404", code)
	}

	// The finished request again is a cache hit.
	code, _, body = call(t, "POST", base+"/v1/jobs", reqA)
	if code != http.StatusOK || !bytes.Contains(body, []byte(`"cache_hit": true`)) {
		t.Errorf("cache hit: %d %s", code, body)
	}
	checkFields(t, "cache hit", body, node.hit)

	// Shutting down: not ready, and submissions are refused with a hint.
	shutdown()
	if code, hdr, _ := call(t, "GET", base+"/v1/readyz", ""); code != http.StatusServiceUnavailable || hdr.Get("Retry-After") == "" {
		t.Errorf("readyz while shutting down: %d Retry-After=%q", code, hdr.Get("Retry-After"))
	}
	if code, hdr, _ := call(t, "POST", base+"/v1/jobs", reqA); code != http.StatusServiceUnavailable || hdr.Get("Retry-After") == "" {
		t.Errorf("submit while shutting down: %d Retry-After=%q", code, hdr.Get("Retry-After"))
	}
}

func call(t *testing.T, method, url, body string) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, b
}

// waitState polls a job until it reaches state and returns its status.
func waitState(t *testing.T, base, id, state string) []byte {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, _, body := call(t, "GET", base+"/v1/jobs/"+id, "")
		var st struct {
			State string `json:"state"`
		}
		if code == http.StatusOK && json.Unmarshal(body, &st) == nil && st.State == state {
			return body
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached %s: %d %s", id, state, code, body)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// checkFields compares the top-level field names of a status object.
func checkFields(t *testing.T, what string, body []byte, want []string) {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("%s: %v: %s", what, err, body)
	}
	got := make([]string, 0, len(m))
	for k := range m {
		got = append(got, k)
	}
	sort.Strings(got)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("%s fields %v, want %v", what, got, want)
	}
}
