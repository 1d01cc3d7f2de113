package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestClientRetryStalledPeer: a peer that accepts connections but never
// answers must not hang an idempotent RPC — each attempt is cut by the
// client's own per-RPC deadline, the bounded retry schedule runs dry,
// and the call returns a transport error in bounded time.
func TestClientRetryStalledPeer(t *testing.T) {
	var hits int64
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt64(&hits, 1)
		<-release // stall until the test tears down
	}))
	// Unblock the stalled handlers before Close waits on them.
	defer ts.Close()
	defer close(release)

	c := NewClient(100*time.Millisecond, nil) // per-RPC deadline
	c.SetRetry(3, 10*time.Millisecond, 40*time.Millisecond, 1)

	start := time.Now()
	err := c.doIdempotent(context.Background(), "stalled", http.MethodGet, ts.URL+"/v1/healthz", nil, nil)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("RPC against a stalled peer succeeded")
	}
	if code := StatusCode(err); code != 0 {
		t.Errorf("stall surfaced as status %d, want transport error", code)
	}
	if got := atomic.LoadInt64(&hits); got != 3 {
		t.Errorf("peer saw %d attempts, want 3", got)
	}
	// 3 × 100ms deadlines plus two backoffs ≤ 40ms each, with headroom.
	if elapsed > 2*time.Second {
		t.Errorf("bounded retry took %v", elapsed)
	}
}

// TestClientRetry5xxThenSuccess: transient server errors are retried and
// the eventual success is returned; the schedule is invisible to the
// caller.
func TestClientRetry5xxThenSuccess(t *testing.T) {
	var hits int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if atomic.AddInt64(&hits, 1) < 3 {
			http.Error(w, `{"error":"transient"}`, http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{"status":"ok"}`))
	}))
	defer ts.Close()

	c := NewClient(time.Second, nil)
	c.SetRetry(3, time.Millisecond, 5*time.Millisecond, 1)
	var out struct {
		Status string `json:"status"`
	}
	if err := c.doIdempotent(context.Background(), "flaky", http.MethodGet, ts.URL+"/x", nil, &out); err != nil {
		t.Fatalf("retry never recovered: %v", err)
	}
	if out.Status != "ok" || atomic.LoadInt64(&hits) != 3 {
		t.Errorf("status %q after %d attempts, want ok after 3", out.Status, hits)
	}

	// getBytesIdempotent rides the same schedule.
	atomic.StoreInt64(&hits, 0)
	b, err := c.getBytesIdempotent(context.Background(), "flaky", ts.URL+"/x")
	if err != nil || string(b) != `{"status":"ok"}`+"\n" && string(b) != `{"status":"ok"}` {
		t.Fatalf("getBytesIdempotent = %q, %v", b, err)
	}
	if atomic.LoadInt64(&hits) != 3 {
		t.Errorf("getBytes attempts = %d, want 3", hits)
	}
}

// TestClientNoRetryOnAuthoritative: 404 (miss) and 409 (fenced) answers
// are authoritative — exactly one attempt, no backoff burned.
func TestClientNoRetryOnAuthoritative(t *testing.T) {
	var hits int64
	var code atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt64(&hits, 1)
		http.Error(w, `{"error":"no"}`, int(code.Load()))
	}))
	defer ts.Close()
	c := NewClient(time.Second, nil)
	c.SetRetry(3, time.Millisecond, 5*time.Millisecond, 1)

	code.Store(http.StatusNotFound)
	b, err := c.getBytesIdempotent(context.Background(), "peer", ts.URL+"/v1/store/k")
	if b != nil || err != nil {
		t.Errorf("404 = (%q, %v), want authoritative (nil, nil) miss", b, err)
	}
	if atomic.LoadInt64(&hits) != 1 {
		t.Errorf("404 took %d attempts, want 1", hits)
	}

	atomic.StoreInt64(&hits, 0)
	code.Store(http.StatusConflict)
	err = c.doIdempotent(context.Background(), "peer", http.MethodGet, ts.URL+"/v1/jobs", nil, nil)
	if StatusCode(err) != http.StatusConflict {
		t.Errorf("409 surfaced as %v, want statusError 409", err)
	}
	if atomic.LoadInt64(&hits) != 1 {
		t.Errorf("409 took %d attempts, want 1", hits)
	}
}

// TestClientStampsEpochAndReportsFencing: an epoch-bearing client stamps
// every RPC shape — the JSON job POST, the store GET and the replication
// PUT; a 409 carrying a higher epoch triggers the onStale hook with the
// fencing epoch.
func TestClientStampsEpochAndReportsFencing(t *testing.T) {
	var sawEpoch atomic.Value
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sawEpoch.Store(r.Header.Get(EpochHeader))
		w.Header().Set(EpochHeader, "7")
		http.Error(w, `{"error":"stale"}`, http.StatusConflict)
	}))
	defer ts.Close()

	for _, tc := range []struct {
		name string
		call func(c *Client) error
	}{
		{"job POST", func(c *Client) error {
			return c.do(context.Background(), "w1", http.MethodPost, ts.URL+"/v1/jobs", map[string]int{"seed": 1}, nil)
		}},
		{"store GET", func(c *Client) error {
			_, err := c.getBytesIdempotent(context.Background(), "w1", ts.URL+"/v1/store/k")
			return err
		}},
		{"replication PUT", func(c *Client) error {
			return c.putBytes(context.Background(), "w1", ts.URL+"/v1/store/k", []byte(`{}`))
		}},
	} {
		sawEpoch.Store("")
		var staleWith atomic.Uint64
		c := NewClient(time.Second, nil)
		c.SetRetry(1, time.Millisecond, time.Millisecond, 1)
		c.SetEpoch(3, func(higher uint64) { staleWith.Store(higher) })

		err := tc.call(c)
		if StatusCode(err) != http.StatusConflict {
			t.Fatalf("%s: want 409, got %v", tc.name, err)
		}
		if got := sawEpoch.Load(); got != "3" {
			t.Errorf("%s: request carried epoch %v, want \"3\"", tc.name, got)
		}
		if staleWith.Load() != 7 {
			t.Errorf("%s: onStale reported %d, want 7", tc.name, staleWith.Load())
		}
	}
}
