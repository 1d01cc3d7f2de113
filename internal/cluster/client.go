package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"acb/internal/service"
)

// Client is the inter-node HTTP client every cluster RPC goes through.
// Each request first fires the faultinject points "rpc" (whole fabric)
// and "rpc.<node>" (one link), which is how chaos tests open network
// partitions deterministically: a rule on rpc.w2 severs every call to
// w2 without touching the process, and Clear (or a rule Limit) heals it.
//
// Every RPC carries an explicit context deadline (the caller's, or the
// client's default when the caller set none) — never the transport's or
// the server's idea of a timeout — and idempotent RPCs (health probes,
// job listings, store fetches) retry transient failures a bounded
// number of times, waiting service.Backoff between attempts. When the
// client has an epoch, it is stamped on every request; a 409 reply
// carrying a higher epoch means this coordinator has been fenced,
// reported once through the onStale hook.
type Client struct {
	http    *http.Client
	faults  service.FaultPoints
	timeout time.Duration

	mu      sync.Mutex
	epoch   uint64
	onStale func(uint64)
	tries   int
	base    time.Duration
	max     time.Duration
	rng     *rand.Rand
}

// Default retry schedule for idempotent RPCs: up to 3 attempts, with
// service.Backoff(n, base, max) before attempt n+1.
const (
	defaultRetryTries = 3
	defaultRetryBase  = 100 * time.Millisecond
	defaultRetryMax   = 2 * time.Second
)

// NewClient returns a client with the given default per-RPC deadline
// (0 = 10s) and optional fault injector (nil in production).
func NewClient(timeout time.Duration, faults service.FaultPoints) *Client {
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	return &Client{
		// No http.Client.Timeout: deadlines are per-RPC contexts, and a
		// whole-client timeout would sever long-lived streams.
		http:    &http.Client{},
		faults:  faults,
		timeout: timeout,
		tries:   defaultRetryTries,
		base:    defaultRetryBase,
		max:     defaultRetryMax,
		rng:     rand.New(rand.NewSource(1)),
	}
}

// SetRetry overrides the idempotent-RPC retry schedule (tests; tries=1
// disables retries). seed keeps the jitter deterministic.
func (c *Client) SetRetry(tries int, base, max time.Duration, seed int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if tries > 0 {
		c.tries = tries
	}
	if base > 0 {
		c.base = base
	}
	if max > 0 {
		c.max = max
	}
	c.rng = rand.New(rand.NewSource(seed))
}

// SetEpoch installs the fencing epoch stamped on every request and the
// hook invoked (with the higher epoch) when a peer fences this client.
func (c *Client) SetEpoch(epoch uint64, onStale func(uint64)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.epoch = epoch
	c.onStale = onStale
}

// statusError carries a non-2xx response so callers can branch on the
// code (429 backpressure vs 404 unknown vs 5xx).
type statusError struct {
	code int
	body string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("cluster: remote status %d: %s", e.code, e.body)
}

// StatusCode extracts the HTTP status from an inter-node RPC error
// (0 when the error was transport-level, not a response).
func StatusCode(err error) int {
	if se, ok := err.(*statusError); ok {
		return se.code
	}
	return 0
}

// maxReply bounds how much of one RPC reply is read: a stored-result
// envelope, the largest reply any node sends, stays well under it.
const maxReply = 64 << 20

// roundTrip performs one RPC against a node and returns the 2xx reply
// body. It fires the rpc and rpc.<node> fault points, runs under an
// explicit deadline (ctx's, or the client's default), stamps the epoch,
// and sends body, when non-nil, as JSON. A non-2xx reply becomes a
// *statusError carrying the reply's error message, after a 409 naming a
// higher epoch has been reported to the onStale hook.
func (c *Client) roundTrip(ctx context.Context, node, method, url string, body []byte) ([]byte, error) {
	if c.faults != nil {
		for _, point := range []string{"rpc", "rpc." + node} {
			if err := c.faults.Fire(point); err != nil {
				return nil, fmt.Errorf("cluster: rpc to %s: %w", node, err)
			}
		}
	}
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.timeout)
		defer cancel()
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	c.mu.Lock()
	epoch := c.epoch
	c.mu.Unlock()
	if epoch > 0 {
		req.Header.Set(EpochHeader, strconv.FormatUint(epoch, 10))
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxReply))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		c.noteFenced(resp)
		var ae struct {
			Error string `json:"error"`
		}
		msg := string(b)
		if json.Unmarshal(b, &ae) == nil && ae.Error != "" {
			msg = ae.Error
		}
		return nil, &statusError{code: resp.StatusCode, body: msg}
	}
	return b, nil
}

// noteFenced inspects a 409 response for a higher epoch and reports it.
func (c *Client) noteFenced(resp *http.Response) {
	if resp.StatusCode != http.StatusConflict {
		return
	}
	n, err := strconv.ParseUint(resp.Header.Get(EpochHeader), 10, 64)
	if err != nil {
		return
	}
	c.mu.Lock()
	hook := c.onStale
	stale := c.epoch > 0 && n > c.epoch
	c.mu.Unlock()
	if stale && hook != nil {
		hook(n)
	}
}

// retriable reports whether an idempotent RPC should be re-attempted:
// transport failures and 5xx/429 are transient; other response codes
// (404 miss, 409 fenced, 4xx misuse) are authoritative.
func retriable(err error) bool {
	code := StatusCode(err)
	return code == 0 || code >= 500 || code == http.StatusTooManyRequests
}

// retry runs an idempotent RPC attempt up to the client's tries, waiting
// service.Backoff between attempts, and stops early on success or an
// authoritative answer. ctx bounds the whole schedule; each attempt
// still gets its own explicit deadline inside roundTrip.
func (c *Client) retry(ctx context.Context, attempt func() error) error {
	c.mu.Lock()
	tries := c.tries
	c.mu.Unlock()
	for n := 1; ; n++ {
		err := attempt()
		if err == nil || !retriable(err) || n >= tries {
			return err
		}
		c.mu.Lock()
		d := service.Backoff(n, c.base, c.max, c.rng)
		c.mu.Unlock()
		t := time.NewTimer(d)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return err
		}
	}
}

// do performs one RPC with an optional JSON body in and an optional
// JSON decode of the reply into out.
func (c *Client) do(ctx context.Context, node, method, url string, in, out interface{}) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return err
		}
	}
	b, err := c.roundTrip(ctx, node, method, url, body)
	if err != nil || out == nil {
		return err
	}
	return json.Unmarshal(b, out)
}

// doIdempotent is do under the retry schedule, for RPCs that are safe to
// repeat (GETs: probes, job listings).
func (c *Client) doIdempotent(ctx context.Context, node, method, url string, in, out interface{}) error {
	return c.retry(ctx, func() error { return c.do(ctx, node, method, url, in, out) })
}

// getBytes performs one GET and returns the raw reply body. A 404
// returns (nil, nil): the peer authoritatively does not have it.
func (c *Client) getBytes(ctx context.Context, node, url string) ([]byte, error) {
	b, err := c.roundTrip(ctx, node, http.MethodGet, url, nil)
	if StatusCode(err) == http.StatusNotFound {
		return nil, nil
	}
	return b, err
}

// getBytesIdempotent is getBytes under the retry schedule (store and
// envelope fetches).
func (c *Client) getBytesIdempotent(ctx context.Context, node, url string) (b []byte, err error) {
	err = c.retry(ctx, func() error {
		b, err = c.getBytes(ctx, node, url)
		return err
	})
	return b, err
}

// putBytes PUTs a raw JSON body (result-envelope replication). Not
// retried: replication failures are counted and the coordinator's own
// copy already satisfies durability.
func (c *Client) putBytes(ctx context.Context, node, url string, body []byte) error {
	_, err := c.roundTrip(ctx, node, http.MethodPut, url, body)
	return err
}

// fetchFirst is the one peer walk: it asks each candidate in turn for
// key's stored-result envelope via GET /v1/store/{key}, skipping repeats
// and names without a URL in urls. The first hit wins; all-404 is an
// authoritative miss; a miss with transport errors reports the first
// error so the store counts it.
func (c *Client) fetchFirst(ctx context.Context, key string, names []string, urls map[string]string) ([]byte, error) {
	var firstErr error
	tried := make(map[string]bool, len(names))
	for _, name := range names {
		if urls[name] == "" || tried[name] {
			continue
		}
		tried[name] = true
		b, err := c.getBytesIdempotent(ctx, name, urls[name]+"/v1/store/"+key)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if b != nil {
			return b, nil
		}
	}
	return nil, firstErr
}

// PeerFetcher builds the service.PeerFetchFunc for a worker shard: on a
// local store miss, ask the shards that carry the key — the ring owner
// first, then its successor, which holds the key's replica under the
// coordinator's RF=2 result replication — via fetchFirst. Shards serve
// GET /v1/store/{key} from local tiers only (never their own peer
// tier), which is what makes the recursion terminate: two shards can
// never chase each other for a key neither has.
//
// self is never asked (asking yourself is the miss you already had).
// members maps node name → base URL and is the static fleet; liveness
// doesn't matter here — a dead candidate is a transport error, and the
// next candidate is tried.
func PeerFetcher(self string, members map[string]string, client *Client) service.PeerFetchFunc {
	names := make([]string, 0, len(members))
	others := make(map[string]string, len(members))
	for name, url := range members {
		names = append(names, name)
		if name != self {
			others[name] = url
		}
	}
	ring := NewRing(0, names...)
	return func(ctx context.Context, key string) ([]byte, error) {
		return client.fetchFirst(ctx, key, ring.Owners(key, 2), others)
	}
}
