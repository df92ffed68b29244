package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"time"

	"daesim/internal/engine"
	"daesim/internal/metrics"
	"daesim/internal/sweep"
)

// Client talks to one running sweepd: the two batch simulation calls
// (BatchRun, BatchSearch) plus health, cache statistics and GC. Sweeps
// reach a daemon through FleetClient — a single daemon is a fleet of
// one — which pins every request to this build's engine.Version and
// the local suite fingerprint, so a version-skewed daemon refuses with
// 409 instead of answering with results from a different build. A
// Client is safe for concurrent use.
type Client struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:8077".
	BaseURL string
	// HTTP is the underlying client. The default applies a generous
	// overall timeout (15 minutes — cold sweeps of large point sets are
	// legitimately slow) so a wedged daemon eventually fails the run
	// loudly rather than hanging it forever; replace it to tune.
	HTTP *http.Client
	// Policy optionally pins a non-default partition policy for the
	// suites remote runs execute against ("classic" when empty).
	Policy string
}

// defaultHTTPClient bounds requests to a daemon that accepted the
// connection but never answers (wedged, SIGSTOPped, or drowning in a
// concurrency-limit queue).
var defaultHTTPClient = &http.Client{Timeout: 15 * time.Minute}

// NewClient returns a Client for the daemon at baseURL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: baseURL}
}

// httpClient resolves the transport to use.
func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return defaultHTTPClient
}

// post sends req to path and decodes the 200 body into resp; non-2xx
// replies become errors carrying the daemon's message. ctx cancels the
// request in flight (nil is tolerated for robustness and means
// background).
func (c *Client) post(ctx context.Context, path string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("daemon client: encoding %s request: %w", path, err)
	}
	if ctx == nil {
		ctx = context.Background() //daelint:ctxflow-ok nil ctx is documented to mean background
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+path, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("daemon client: %s: %w", path, err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	r, err := c.httpClient().Do(hreq)
	if err != nil {
		return fmt.Errorf("daemon client: %s: %w", path, err)
	}
	defer r.Body.Close()
	return c.decodeReply(path, r, resp)
}

// get fetches path and decodes the 200 body into resp.
func (c *Client) get(ctx context.Context, path string, resp any) error {
	if ctx == nil {
		ctx = context.Background() //daelint:ctxflow-ok nil ctx is documented to mean background
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
	if err != nil {
		return fmt.Errorf("daemon client: %s: %w", path, err)
	}
	r, err := c.httpClient().Do(hreq)
	if err != nil {
		return fmt.Errorf("daemon client: %s: %w", path, err)
	}
	defer r.Body.Close()
	return c.decodeReply(path, r, resp)
}

// StatusError is a non-2xx daemon reply. It keeps the HTTP status
// machine-readable so a fleet client can tell refusals that would repeat
// on every replica (4xx bad requests, 409 skew) from per-replica
// failures worth retrying elsewhere (5xx, and transport errors, which
// are not StatusErrors at all).
type StatusError struct {
	Code int
	Msg  string
	// Draining marks a 503 from a replica that is shutting down
	// cleanly (the DrainingHeader was set): the fleet client reroutes
	// the work without charging the replica a failure — draining is
	// orderly, not broken.
	Draining bool
}

func (e *StatusError) Error() string { return fmt.Sprintf("%s (HTTP %d)", e.Msg, e.Code) }

// Retryable reports whether the same request could succeed on a
// different replica: server-side failures may be local to the replica
// (dying, overloaded), while 4xx/409 refusals are about the request or
// the build and would repeat everywhere.
func (e *StatusError) Retryable() bool { return e.Code >= 500 }

// decodeReply maps a response to resp or to the daemon's error.
func (c *Client) decodeReply(path string, r *http.Response, resp any) error {
	data, err := io.ReadAll(io.LimitReader(r.Body, 64<<20))
	if err != nil {
		return fmt.Errorf("daemon client: reading %s reply: %w", path, err)
	}
	if r.StatusCode != http.StatusOK {
		draining := r.Header.Get(DrainingHeader) == DrainingValue
		var e ErrorResponse
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			return fmt.Errorf("daemon client: %s: %w", path, &StatusError{Code: r.StatusCode, Msg: e.Error, Draining: draining})
		}
		return fmt.Errorf("daemon client: %s: %w", path, &StatusError{Code: r.StatusCode, Msg: string(bytes.TrimSpace(data)), Draining: draining})
	}
	if err := json.Unmarshal(data, resp); err != nil {
		return fmt.Errorf("daemon client: decoding %s reply: %w", path, err)
	}
	return nil
}

// target builds the request target for a workload and scale, pinned to
// this build's engine version (and the suite fingerprint when known).
func (c *Client) target(workload string, scale int, fingerprint string) Target {
	return Target{
		Workload: workload, Scale: scale, Policy: c.Policy,
		EngineVersion: engine.Version, Fingerprint: fingerprint,
	}
}

// BatchRun executes run requests — each carrying its own target — in
// MaxBatchItems-sized round trips (see postBatch). Results[i] answers
// items[i].
func (c *Client) BatchRun(ctx context.Context, items []RunRequest) ([]*engine.Result, error) {
	return postBatch(ctx, c, "/v1/batch/run", items, func(_ int, r *engine.Result) error {
		if r == nil {
			// A null element would otherwise settle into the caller's L1
			// and store as a poisoned entry and crash the first reader.
			return fmt.Errorf("null result: %w", ErrMalformedReply)
		}
		return nil
	})
}

// BatchSearch executes ratio searches server-side in MaxBatchItems-sized
// round trips (see postBatch); Results[i] answers items[i]. Each item's
// Target must be set by the caller. Every answer the daemon marks OK is
// checked against its request (checkSearchReply) before it can reach a
// figure.
func (c *Client) BatchSearch(ctx context.Context, items []SearchRequest) ([]SearchResponse, error) {
	return postBatch(ctx, c, "/v1/batch/search", items, func(i int, r SearchResponse) error {
		return checkSearchReply(items[i], r)
	})
}

// postBatch posts items to a batch endpoint as {items} bodies of at
// most MaxBatchItems each — one round trip for any realistically sized
// batch; the server 400s oversized requests with a non-retryable
// refusal, so the split must happen here, where sweeps of any size
// funnel through — and returns the {results} in order. A reply of the
// wrong length, or with an element check(i, result) refuses, wraps
// ErrMalformedReply.
func postBatch[Item, Result any](ctx context.Context, c *Client, path string, items []Item, check func(i int, r Result) error) ([]Result, error) {
	out := make([]Result, 0, len(items))
	for start := 0; start < len(items); start += MaxBatchItems {
		chunk := items[start:min(start+MaxBatchItems, len(items))]
		var resp struct {
			Results []Result `json:"results"`
		}
		if err := c.post(ctx, path, struct {
			Items []Item `json:"items"`
		}{chunk}, &resp); err != nil {
			return nil, err
		}
		if len(resp.Results) != len(chunk) {
			return nil, fmt.Errorf("daemon client: %s returned %d results for %d items: %w", path, len(resp.Results), len(chunk), ErrMalformedReply)
		}
		for i, r := range resp.Results {
			if err := check(start+i, r); err != nil {
				return nil, fmt.Errorf("daemon client: %s item %d: %w", path, start+i, err)
			}
		}
		out = append(out, resp.Results...)
	}
	return out, nil
}

// checkSearchReply rejects an OK ratio that no search could have
// produced for req — one that is not a window in
// [1, metrics.MaxEquivalentWindow] over the request's DM window —
// wrapping ErrMalformedReply. Saturated (!OK) answers carry no figure
// value and pass.
func checkSearchReply(req SearchRequest, resp SearchResponse) error {
	if !resp.OK {
		return nil
	}
	dm := req.Params.Window
	w := math.Round(resp.Ratio * float64(dm))
	if dm <= 0 || w < 1 || w > metrics.MaxEquivalentWindow || w/float64(dm) != resp.Ratio {
		return fmt.Errorf("ratio %v is not a window in [1, %d] over DM window %d: %w", resp.Ratio, metrics.MaxEquivalentWindow, dm, ErrMalformedReply)
	}
	return nil
}

// CacheStats fetches the daemon's cache counters.
func (c *Client) CacheStats(ctx context.Context) (StatsResponse, error) {
	var resp StatsResponse
	err := c.get(ctx, "/v1/cache/stats", &resp)
	return resp, err
}

// GC asks the daemon to trim its store to the policy's bounds.
func (c *Client) GC(ctx context.Context, pol sweep.GCPolicy) (sweep.GCResult, error) {
	req := GCRequest{MaxEntries: pol.MaxEntries, MaxBytes: pol.MaxBytes}
	if pol.MaxAge > 0 {
		req.MaxAge = pol.MaxAge.String()
	}
	var resp sweep.GCResult
	err := c.post(ctx, "/v1/cache/gc", req, &resp)
	return resp, err
}

// Health checks the daemon's liveness endpoint and that its engine
// build matches this client's, so version skew surfaces at attach time
// rather than per request.
func (c *Client) Health(ctx context.Context) error {
	var resp HealthResponse
	if err := c.get(ctx, "/healthz", &resp); err != nil {
		return err
	}
	if resp.Status != "ok" {
		return fmt.Errorf("daemon client: health status %q: %w", resp.Status, ErrFleetUnhealthy)
	}
	if resp.EngineVersion != "" && resp.EngineVersion != engine.Version {
		return fmt.Errorf("daemon client: engine version skew: daemon runs %s, this build is %s (restart sweepd from this build): %w", resp.EngineVersion, engine.Version, ErrFleetUnhealthy)
	}
	return nil
}

// WaitHealthy polls /healthz until the daemon answers or the deadline
// passes — the startup handshake for scripts and tests that just
// launched a sweepd.
func (c *Client) WaitHealthy(ctx context.Context, timeout time.Duration) error {
	return waitHealthy(ctx, timeout, "daemon client", c.Health)
}

// waitHealthy polls health every 50ms until it passes, ctx is
// cancelled (nil means never), or timeout passes.
func waitHealthy(ctx context.Context, timeout time.Duration, who string, health func(context.Context) error) error {
	deadline := time.Now().Add(timeout)
	for {
		err := health(ctx)
		if err == nil {
			return nil
		}
		// A cancelled caller must stop retrying: health fails fast on a
		// dead context, and without this check the loop would spin on
		// that error until the deadline.
		if ctx != nil {
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: not healthy after %s: %w", who, timeout, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
