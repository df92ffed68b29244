package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"daesim/internal/engine"
	"daesim/internal/experiments"
	"daesim/internal/machine"
	"daesim/internal/metrics"
	"daesim/internal/sweep"
	"daesim/internal/workloads"
)

// TestWireParamsCoverMachineParams is the protocol's field-count guard,
// mirroring TestCacheKeyCoversAllParams: machine.Params has exactly one
// field (Mem, deliberately not remotable) more than the wire Params.
// Adding a machine parameter without extending the protocol — which
// would silently simulate the default value on the daemon — fails here.
func TestWireParamsCoverMachineParams(t *testing.T) {
	t.Parallel()
	names := func(typ reflect.Type) map[string]bool {
		m := map[string]bool{}
		for i := 0; i < typ.NumField(); i++ {
			m[typ.Field(i).Name] = true
		}
		return m
	}
	mp := names(reflect.TypeOf(machine.Params{}))
	wp := names(reflect.TypeOf(Params{}))
	for n := range mp {
		if n == "Mem" {
			continue // deliberately not remotable, see ToParams
		}
		if !wp[n] {
			t.Errorf("machine.Params.%s has no wire counterpart: extend the protocol (daemon.Params, ToParams, Machine)", n)
		}
	}
	for n := range wp {
		if !mp[n] {
			t.Errorf("wire Params.%s has no machine counterpart: dead protocol surface, or a rename that forgot one side", n)
		}
	}
}

func TestParamsRoundTrip(t *testing.T) {
	t.Parallel()
	in := machine.Params{
		Window: 64, AUWindow: 32, DUWindow: 48, MD: 60, FPLat: 5, CopyLat: 2,
		AUWidth: 3, DUWidth: 6, Width: 9, DispatchWidth: 4, MemQueue: 128,
		CollectESW: true, HoldSendSlots: true, Retire: machine.RetireAtComplete,
	}
	wp, err := ToParams(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := wp.Machine()
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip changed params:\nin  %+v\nout %+v", in, out)
	}
	if _, err := ToParams(machine.Params{Mem: &stubMem{}}); err == nil {
		t.Error("custom-Mem params must not be remotable")
	}
	if _, err := (Params{Retire: "bogus"}).Machine(); err == nil {
		t.Error("unknown retire policy must fail")
	}
}

type stubMem struct{}

func (*stubMem) RequestFill(addr uint64, sent int64) int64 { return sent }
func (*stubMem) Consume(addr uint64, cycle int64)          {}
func (*stubMem) Reset()                                    {}

const testWorkload = "TRFD"

// newTestServer starts a daemon over an optional store and returns a
// client bound to it.
func newTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	srv := NewServer(cfg)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return srv, NewClient(hs.URL)
}

// localResult simulates one point locally, bypassing the daemon — the
// oracle for byte-identity checks.
func localResult(t *testing.T, workload string, pt sweep.Point) *engine.Result {
	t.Helper()
	tr, err := workloads.Build(workload, 1)
	if err != nil {
		t.Fatal(err)
	}
	suite, err := machine.NewSuite(tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := suite.Run(pt.Kind, pt.P)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func asJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// runOne runs one point as a one-item /v1/batch/run request pinned to
// this build (and to fingerprint, when non-empty).
func runOne(c *Client, workload, fingerprint string, pt sweep.Point) (*engine.Result, error) {
	res, err := runPoints(c, workload, fingerprint, []sweep.Point{pt})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// runPoints runs points against one suite in one /v1/batch/run request.
func runPoints(c *Client, workload, fingerprint string, pts []sweep.Point) ([]*engine.Result, error) {
	items := make([]RunRequest, len(pts))
	for i, pt := range pts {
		wp, err := ToPoint(pt)
		if err != nil {
			return nil, err
		}
		items[i] = RunRequest{Target: c.target(workload, 1, fingerprint), Point: wp}
	}
	return c.BatchRun(context.Background(), items)
}

// searchOne runs one search as a one-item /v1/batch/search request.
func searchOne(c *Client, workload string, req SearchRequest) (SearchResponse, error) {
	req.Target = c.target(workload, 1, "")
	res, err := c.BatchSearch(context.Background(), []SearchRequest{req})
	if err != nil {
		return SearchResponse{}, err
	}
	return res[0], nil
}

func TestRunEndpointMatchesLocalByteForByte(t *testing.T) {
	t.Parallel()
	_, client := newTestServer(t, Config{})
	pt := sweep.Point{Kind: machine.DM, P: machine.Params{Window: 16, MD: 30}}
	remote, err := runOne(client, testWorkload, "", pt)
	if err != nil {
		t.Fatal(err)
	}
	local := localResult(t, testWorkload, pt)
	if got, want := asJSON(t, remote), asJSON(t, local); !bytes.Equal(got, want) {
		t.Fatalf("remote result differs from local:\nremote %s\nlocal  %s", got, want)
	}
}

func TestSweepEndpointWarmRunHitsCache(t *testing.T) {
	t.Parallel()
	store, err := sweep.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, client := newTestServer(t, Config{Store: store})
	var pts []sweep.Point
	for _, w := range []int{8, 16, 24} {
		pts = append(pts,
			sweep.Point{Kind: machine.DM, P: machine.Params{Window: w, MD: 30}},
			sweep.Point{Kind: machine.SWSM, P: machine.Params{Window: w, MD: 30}})
	}
	cold, err := runPoints(client, testWorkload, "", pts)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := runPoints(client, testWorkload, "", pts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := asJSON(t, warm), asJSON(t, cold); !bytes.Equal(got, want) {
		t.Fatal("warm sweep differs from cold sweep")
	}
	for i, res := range cold {
		local := localResult(t, testWorkload, pts[i])
		if !bytes.Equal(asJSON(t, res), asJSON(t, local)) {
			t.Fatalf("point %d: daemon result differs from local", i)
		}
	}
	stats := srv.Stats()
	if stats.Runner.Sims != int64(len(pts)) {
		t.Errorf("want %d simulations total, got %+v", len(pts), stats.Runner)
	}
	if stats.Runner.L1Hits < int64(len(pts)) {
		t.Errorf("warm sweep should be pure L1 hits: %+v", stats.Runner)
	}
	if stats.Store.Writes != int64(len(pts)) {
		t.Errorf("every simulated point should persist: %+v", stats.Store)
	}
	if stats.StoreEntries != len(pts) {
		t.Errorf("store should hold %d entries, has %d", len(pts), stats.StoreEntries)
	}
}

func TestSearchEndpointMatchesLocalSearch(t *testing.T) {
	t.Parallel()
	_, client := newTestServer(t, Config{})
	p := machine.Params{Window: 16, MD: 30}

	// Local oracle.
	tr, err := workloads.Build(testWorkload, 1)
	if err != nil {
		t.Fatal(err)
	}
	suite, err := machine.NewSuite(tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	runner := sweep.NewRunner(suite)
	runner.Parallelism = 1
	wantRatio, wantOK, err := metrics.NewSearch(runner).EquivalentWindowRatio(p)
	if err != nil {
		t.Fatal(err)
	}

	resp, err := searchOne(client, testWorkload, SearchRequest{Params: Params{Window: 16, MD: 30}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK != wantOK || resp.Ratio != wantRatio {
		t.Fatalf("ratio search: got %+v, want ratio %v ok %v", resp, wantRatio, wantOK)
	}
}

func TestGCEndpoint(t *testing.T) {
	t.Parallel()
	store, err := sweep.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		store.Put(fmt.Sprintf("key-%d", i), &engine.Result{Cycles: int64(i)})
	}
	_, client := newTestServer(t, Config{Store: store})
	res, err := client.GC(context.Background(), sweep.GCPolicy{MaxEntries: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scanned != 6 || res.Evicted != 4 || res.Remaining != 2 {
		t.Fatalf("GC over the API: %+v", res)
	}

	// Negative bounds must be refused, not silently treated as
	// unbounded (every other GC entry point rejects them too).
	var gcres sweep.GCResult
	if err := client.post(context.Background(), "/v1/cache/gc", map[string]any{"max_entries": -1}, &gcres); err == nil || !strings.Contains(err.Error(), "negative GC bound") {
		t.Errorf("negative GC bound: %v", err)
	}

	// Without a store the endpoint must refuse, not no-op.
	_, storeless := newTestServer(t, Config{})
	if _, err := storeless.GC(context.Background(), sweep.GCPolicy{MaxEntries: 1}); err == nil || !strings.Contains(err.Error(), "no persistent store") {
		t.Errorf("GC without store: %v", err)
	}
}

// TestSkewRefused pins the version/fingerprint guards: a daemon must
// refuse (409) requests pinned to a different engine build or workload
// content rather than answer with results the client's own cache keys
// could never produce.
func TestSkewRefused(t *testing.T) {
	t.Parallel()
	_, client := newTestServer(t, Config{})
	_, err := client.BatchRun(context.Background(), []RunRequest{{
		Target: Target{Workload: testWorkload, EngineVersion: "engine-v0"},
		Point:  Point{Kind: "DM", Params: Params{Window: 8}},
	}})
	if err == nil || !strings.Contains(err.Error(), "engine version skew") || !strings.Contains(err.Error(), "409") {
		t.Errorf("engine version skew should be refused with 409: %v", err)
	}

	if _, err := runOne(client, testWorkload, "deadbeef", sweep.Point{Kind: machine.DM, P: machine.Params{Window: 8}}); err == nil || !strings.Contains(err.Error(), "workload content skew") {
		t.Errorf("fingerprint skew should be refused: %v", err)
	}

	// The real fingerprint (what FleetClient.RunBatch sends) must pass.
	tr, err := workloads.Build(testWorkload, 1)
	if err != nil {
		t.Fatal(err)
	}
	suite, err := machine.NewSuite(tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runOne(client, testWorkload, suite.Fingerprint(), sweep.Point{Kind: machine.DM, P: machine.Params{Window: 8, MD: 10}}); err != nil {
		t.Errorf("matching fingerprint refused: %v", err)
	}
}

// TestGeneratedWorkloadServes: a "spec:" workload travels by name over
// /v1/batch/run — the daemon regenerates it from the spec and answers
// byte-identically to a local run, and the content fingerprint the
// client pins is the proof both sides lowered the same program.
func TestGeneratedWorkloadServes(t *testing.T) {
	t.Parallel()
	_, client := newTestServer(t, Config{})
	const spec = "spec:depth=5,ilp=2,mem=0.8,addr=gather,hazard=0.2,iters=32,seed=9"
	tr, err := workloads.Build(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	suite, err := machine.NewSuite(tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	pt := sweep.Point{Kind: machine.DM, P: machine.Params{Window: 24, MD: 40}}
	remote, err := runOne(client, spec, suite.Fingerprint(), pt)
	if err != nil {
		t.Fatal(err)
	}
	local := localResult(t, spec, pt)
	if got, want := asJSON(t, remote), asJSON(t, local); !bytes.Equal(got, want) {
		t.Fatalf("remote generated-workload result differs from local:\nremote %s\nlocal  %s", got, want)
	}
	// A malformed spec is a 400 naming the field, not a 500 or a hang.
	_, err = runOne(client, "spec:depth=0", "", pt)
	if err == nil || !strings.Contains(err.Error(), "depth") {
		t.Errorf("malformed spec error %v does not name the field", err)
	}
}

// TestUnknownWorkloadErrorEnumeratesRegistry pins the daemon half of
// the enumeration-parity contract (cmd/repro's TestListOrderParity
// holds the other): the /v1/batch/run validation error for an unknown
// workload lists the registry in workloads.Names() order — the exact
// order repro -list prints — so operators comparing a 400 body against
// the CLI listing never see two orderings of the same catalog.
func TestUnknownWorkloadErrorEnumeratesRegistry(t *testing.T) {
	t.Parallel()
	_, client := newTestServer(t, Config{})
	_, err := runOne(client, "NOSUCH", "", sweep.Point{Kind: machine.DM, P: machine.Params{Window: 8}})
	if err == nil {
		t.Fatal("unknown workload accepted")
	}
	want := fmt.Sprintf("%v", workloads.Names())
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("validation error %q does not enumerate the registry in canonical order (want substring %q)", err, want)
	}
}

func TestHealthz(t *testing.T) {
	t.Parallel()
	_, client := newTestServer(t, Config{})
	if err := client.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := client.WaitHealthy(context.Background(), time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestBadRequests(t *testing.T) {
	t.Parallel()
	_, client := newTestServer(t, Config{})
	cases := []struct {
		name string
		call func() error
		want string
	}{
		{"unknown workload", func() error {
			_, err := runOne(client, "NOSUCH", "", sweep.Point{Kind: machine.DM, P: machine.Params{Window: 8}})
			return err
		}, "NOSUCH"},
		{"bad kind", func() error {
			_, err := client.BatchRun(context.Background(), []RunRequest{{Target: Target{Workload: testWorkload}, Point: Point{Kind: "VLIW"}}})
			return err
		}, "unknown machine kind"},
		{"bad policy", func() error {
			_, err := client.BatchRun(context.Background(), []RunRequest{{Target: Target{Workload: testWorkload, Policy: "random"}, Point: Point{Kind: "DM"}}})
			return err
		}, "unknown partition policy"},
		{"bad retire", func() error {
			_, err := client.BatchRun(context.Background(), []RunRequest{{Target: Target{Workload: testWorkload}, Point: Point{Kind: "DM", Params: Params{Retire: "never"}}}})
			return err
		}, "unknown retire policy"},
		{"empty batch", func() error {
			var resp BatchRunResponse
			return client.post(context.Background(), "/v1/batch/run", BatchRunRequest{}, &resp)
		}, "no items"},
		{"run params the simulator refuses", func() error {
			_, err := client.BatchRun(context.Background(), []RunRequest{{Target: Target{Workload: testWorkload}, Point: Point{Kind: "DM", Params: Params{Window: 8, MemQueue: -5}}}})
			return err
		}, "invalid MemQueue -5"},
		{"ratio search without a DM window", func() error {
			_, err := searchOne(client, testWorkload, SearchRequest{Params: Params{MD: 30}})
			return err
		}, "DM window of at least 1"},
		{"search params the simulator refuses", func() error {
			_, err := searchOne(client, testWorkload, SearchRequest{Params: Params{Window: 8, MemQueue: -5}})
			return err
		}, "invalid MemQueue -5"},
		{"search op field", func() error {
			var resp BatchSearchResponse
			return client.post(context.Background(), "/v1/batch/search", map[string]any{"items": []any{map[string]any{"workload": testWorkload, "op": "window", "params": map[string]any{"window": 8}}}}, &resp)
		}, "unknown field"},
		{"unknown field", func() error {
			var resp BatchRunResponse
			return client.post(context.Background(), "/v1/batch/run", map[string]any{"items": []any{map[string]any{"workload": testWorkload, "kind": "DM", "paramz": map[string]any{}}}}, &resp)
		}, "unknown field"},
	}
	for _, tc := range cases {
		err := tc.call()
		var se *StatusError
		if !errors.As(err, &se) || se.Code != http.StatusBadRequest || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want a 400 containing %q", tc.name, err, tc.want)
		}
	}
}

// TestBatchRunEndpoint: a batch whose items span workloads and scales
// answers each item exactly as a local simulation would, and a bad
// item anywhere fails the whole batch before anything simulates,
// naming the item.
func TestBatchRunEndpoint(t *testing.T) {
	t.Parallel()
	_, client := newTestServer(t, Config{})
	mk := func(workload string, kind string, w int) RunRequest {
		return RunRequest{
			Target: Target{Workload: workload, EngineVersion: engine.Version},
			Point:  Point{Kind: kind, Params: Params{Window: w, MD: 20}},
		}
	}
	items := []RunRequest{
		mk(testWorkload, "DM", 8),
		mk("ADM", "SWSM", 16),
		mk(testWorkload, "SWSM", 8),
		mk(testWorkload, "DM", 8), // duplicate: single-flight, same answer
	}
	results, err := client.BatchRun(context.Background(), items)
	if err != nil {
		t.Fatal(err)
	}
	for i, item := range items {
		pt, err := item.Point.Sweep()
		if err != nil {
			t.Fatal(err)
		}
		local := localResult(t, item.Workload, pt)
		if !bytes.Equal(asJSON(t, results[i]), asJSON(t, local)) {
			t.Errorf("batch item %d differs from local", i)
		}
	}

	bad := append(items[:2:2], RunRequest{Target: Target{Workload: testWorkload}, Point: Point{Kind: "VLIW"}})
	if _, err := client.BatchRun(context.Background(), bad); err == nil || !strings.Contains(err.Error(), "batch item 2") {
		t.Errorf("bad item should fail the batch naming the index: %v", err)
	}
	skewed := []RunRequest{{Target: Target{Workload: testWorkload, EngineVersion: "engine-v0"}, Point: Point{Kind: "DM", Params: Params{Window: 8}}}}
	if _, err := client.BatchRun(context.Background(), skewed); err == nil || !strings.Contains(err.Error(), "409") {
		t.Errorf("skewed item should 409 the batch: %v", err)
	}
}

// TestBatchSearchEndpoint: a search batch answers each item exactly as
// that search sent alone would, and a bad item anywhere fails the
// whole batch before anything simulates, naming the item.
func TestBatchSearchEndpoint(t *testing.T) {
	t.Parallel()
	_, client := newTestServer(t, Config{})
	target := Target{Workload: testWorkload, EngineVersion: engine.Version}
	items := []SearchRequest{
		{Target: target, Params: Params{Window: 16, MD: 30}},
		{Target: target, Params: Params{Window: 16}},
		{Target: target, Params: Params{Window: 8, MD: 30}},
	}
	batched, err := client.BatchSearch(context.Background(), items)
	if err != nil {
		t.Fatal(err)
	}
	for i, item := range items {
		single, err := searchOne(client, testWorkload, SearchRequest{Params: item.Params})
		if err != nil {
			t.Fatal(err)
		}
		if batched[i] != single {
			t.Errorf("batch item %d: %+v != sent alone %+v", i, batched[i], single)
		}
	}
	bad := append(items[:2:2], SearchRequest{Target: target, Params: Params{MD: 30}})
	if _, err := client.BatchSearch(context.Background(), bad); err == nil || !strings.Contains(err.Error(), "batch item 2") {
		t.Errorf("a window-0 item should fail the batch naming the index: %v", err)
	}
}

// TestConcurrencyLimitQueues proves MaxConcurrent=1 serializes without
// rejecting: concurrent requests all succeed.
func TestConcurrencyLimitQueues(t *testing.T) {
	t.Parallel()
	_, client := newTestServer(t, Config{MaxConcurrent: 1})
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = runOne(client, testWorkload, "", sweep.Point{Kind: machine.DM, P: machine.Params{Window: 8 + i, MD: 10}})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("request %d under concurrency limit: %v", i, err)
		}
	}
}

// TestRemoteContext is the repro -remote wiring end to end: an
// experiments.Context with a one-daemon fleet attached runs all
// cacheable points remotely (zero local simulations) and produces
// results byte-identical to a purely local context.
func TestRemoteContext(t *testing.T) {
	t.Parallel()
	store, err := sweep.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, client := newTestServer(t, Config{Store: store})

	run := func(ctx *experiments.Context) []*engine.Result {
		t.Helper()
		r, err := ctx.Runner(testWorkload)
		if err != nil {
			t.Fatal(err)
		}
		var pts []sweep.Point
		for _, w := range []int{8, 16} {
			for _, md := range []int{0, 30} {
				pts = append(pts, sweep.Point{Kind: machine.DM, P: machine.Params{Window: w, MD: md}})
			}
		}
		results, err := r.RunBatch(pts)
		if err != nil {
			t.Fatal(err)
		}
		return results
	}

	localCtx := experiments.NewContext()
	localRes := run(localCtx)

	one, err := NewFleetClient([]string{client.BaseURL})
	if err != nil {
		t.Fatal(err)
	}
	remoteCtx := experiments.NewContext()
	remoteCtx.RemoteBatch = func(workload string, scale int, fingerprint string, pts []sweep.Point) ([]*engine.Result, error) {
		return one.RunBatch(context.Background(), workload, scale, fingerprint, pts)
	}
	remoteRes := run(remoteCtx)

	if got, want := asJSON(t, remoteRes), asJSON(t, localRes); !bytes.Equal(got, want) {
		t.Fatal("remote context results differ from local")
	}
	stats := remoteCtx.CacheStats()
	if stats.Sims != 0 {
		t.Errorf("remote context simulated %d points locally, want 0", stats.Sims)
	}
	if stats.RemoteHits != 4 {
		t.Errorf("want 4 remote hits, got %+v", stats)
	}
	if srv.Stats().Runner.Sims != 4 {
		t.Errorf("daemon should have simulated the 4 points: %+v", srv.Stats().Runner)
	}

	// A dead daemon must fail the run loudly, not fall back to local.
	deadCtx := experiments.NewContext()
	dead, err := NewFleetClient([]string{"http://127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	deadCtx.RemoteBatch = func(workload string, scale int, fingerprint string, pts []sweep.Point) ([]*engine.Result, error) {
		return dead.RunBatch(context.Background(), workload, scale, fingerprint, pts)
	}
	r, err := deadCtx.Runner(testWorkload)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(sweep.Point{Kind: machine.DM, P: machine.Params{Window: 8}}); err == nil {
		t.Error("unreachable daemon must surface as an error")
	}
}

// TestStatsEndpointShape pins the JSON key names scripts (CI's smoke
// job) depend on.
func TestStatsEndpointShape(t *testing.T) {
	t.Parallel()
	_, client := newTestServer(t, Config{})
	if _, err := runOne(client, testWorkload, "", sweep.Point{Kind: machine.DM, P: machine.Params{Window: 8, MD: 10}}); err != nil {
		t.Fatal(err)
	}
	hres, err := http.Get(client.BaseURL + "/v1/cache/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer hres.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(hres.Body); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"runner"`, `"hit_rate"`, `"store"`, `"store_entries"`, `"uptime_seconds"`, `"requests"`, `"Sims"`, `"RemoteHits"`} {
		if !strings.Contains(buf.String(), key) {
			t.Errorf("stats JSON missing %s: %s", key, buf.String())
		}
	}
}
