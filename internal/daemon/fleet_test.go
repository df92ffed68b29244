package daemon

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"daesim/internal/engine"
	"daesim/internal/experiments"
	"daesim/internal/machine"
	"daesim/internal/metrics"
	"daesim/internal/sweep"
	"daesim/internal/workloads"
)

// newFleet spins n in-process daemons and a FleetClient routing over
// them. mkcfg, when non-nil, configures replica i; wrap, when non-nil,
// may replace replica i's handler (fault injection).
func newFleet(t *testing.T, n int, mkcfg func(i int) Config, wrap func(i int, h http.Handler) http.Handler) (*FleetClient, []*Server, []*httptest.Server) {
	t.Helper()
	servers := make([]*Server, n)
	https := make([]*httptest.Server, n)
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		cfg := Config{}
		if mkcfg != nil {
			cfg = mkcfg(i)
		}
		servers[i] = NewServer(cfg)
		h := http.Handler(servers[i].Handler())
		if wrap != nil {
			h = wrap(i, h)
		}
		https[i] = httptest.NewServer(h)
		t.Cleanup(https[i].Close)
		urls[i] = https[i].URL
	}
	fleet, err := NewFleetClient(urls)
	if err != nil {
		t.Fatal(err)
	}
	return fleet, servers, https
}

// fleetContext returns an experiments context with every remote hook
// attached to the fleet — the repro -remote url1,url2,... wiring.
func fleetContext(fleet *FleetClient) *experiments.Context {
	ctx := experiments.NewContext()
	ctx.RemoteBatch = func(workload string, scale int, fingerprint string, pts []sweep.Point) ([]*engine.Result, error) {
		return fleet.RunBatch(context.Background(), workload, scale, fingerprint, pts)
	}
	ctx.RemoteSearch = func(workload string, scale int, fingerprint string, params []machine.Params) ([]experiments.RatioAnswer, error) {
		return fleet.RatioBatch(context.Background(), workload, scale, fingerprint, params)
	}
	return ctx
}

// TestFleetFigure7ByteIdentical is the fleet's end-to-end contract: a
// 3-replica fleet reproduces Figure 7 (and the Figure 4 speedup sweep,
// which exercises the batched point path where Figure 7 exercises the
// batched search path) byte-identically to a purely local run, with
// zero local simulations, every replica serving traffic, a cold Figure 7
// costing at most one request per ratio curve per replica, and the
// point keyspace spread across replicas with no owner above 60%.
func TestFleetFigure7ByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full Figure 7 reproduction; skipped with -short")
	}
	t.Parallel()
	fleet, servers, _ := newFleet(t, 3, nil, nil)
	requests := func() int64 {
		var total int64
		for _, srv := range servers {
			total += srv.Stats().Requests
		}
		return total
	}

	// fig7Requests is the fleet traffic of the (first) remote Figure 7
	// render, read before Figure 4 adds its own.
	fig7Requests := int64(-1)
	render := func(ctx *experiments.Context) []byte {
		t.Helper()
		var buf bytes.Buffer
		ratio, err := ctx.RatioFigure("FLO52Q")
		if err != nil {
			t.Fatal(err)
		}
		if err := ratio.Render(&buf); err != nil {
			t.Fatal(err)
		}
		if ctx.RemoteSearch != nil && fig7Requests < 0 {
			fig7Requests = requests()
		}
		fig, err := ctx.Figure("FLO52Q")
		if err != nil {
			t.Fatal(err)
		}
		if err := fig.Render(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	local := render(experiments.NewContext())
	remoteCtx := fleetContext(fleet)
	remote := render(remoteCtx)
	if !bytes.Equal(local, remote) {
		t.Fatal("fleet Figure 7 + Figure 4 output differs from local")
	}
	// Each ratio curve is one RatioBatch, split at most once per owning
	// replica: the absolute request bound CI's fleet smoke also checks.
	if bound := int64(len(experiments.RatioMDs) * len(servers)); fig7Requests > bound {
		t.Errorf("cold fleet Figure 7 cost %d requests, want <= %d (len(RatioMDs) x replicas)", fig7Requests, bound)
	}
	t.Logf("cold fleet Figure 7: %d requests", fig7Requests)

	stats := remoteCtx.CacheStats()
	if stats.Sims != 0 {
		t.Errorf("fleet context simulated %d points locally, want 0", stats.Sims)
	}
	if stats.RemoteSearches == 0 || stats.RemoteHits == 0 {
		t.Errorf("fleet context should report remote traffic, got %+v", stats)
	}

	// A fresh client rendering Figure 7 against the now-warm fleet is
	// served by remote searches alone, and its hit rate must say so.
	warmCtx := fleetContext(fleet)
	if _, err := warmCtx.RatioFigure("FLO52Q"); err != nil {
		t.Fatal(err)
	}
	if warm := warmCtx.CacheStats(); warm.Sims != 0 || warm.HitRate() != 1 {
		t.Errorf("warm fleet Figure 7: %d local sims, hit rate %v; want 0 and 1 (%+v)", warm.Sims, warm.HitRate(), warm)
	}
	var total int64
	loads := make([]int64, len(servers))
	for i, srv := range servers {
		loads[i] = srv.Stats().Requests
		if loads[i] == 0 {
			t.Errorf("replica %d served no requests", i)
		}
		total += loads[i]
	}
	t.Logf("per-replica requests: %v", loads)

	// Key-distribution balance over the realistic point keyspace of the
	// figure experiments — the speedup grid plus the ratio searches'
	// SWSM probe space — against this fleet's live ring (whose member
	// names, httptest's random ports, differ every run): no replica may
	// own more than 60%.
	suite := mustSuite(t, "FLO52Q")
	counts := make([]int, 3)
	n := 0
	own := func(pt sweep.Point) {
		key, ok := routeKey("FLO52Q", 1, suite.Fingerprint(), pt)
		if !ok {
			t.Fatalf("point %+v not routable", pt)
		}
		counts[fleet.Ring().Owner(key)]++
		n++
	}
	for _, kind := range []machine.Kind{machine.DM, machine.SWSM} {
		for _, md := range []int{0, 60} {
			for _, w := range experiments.FigureWindows {
				own(sweep.Point{Kind: kind, P: machine.Params{Window: w, MD: md}})
			}
		}
	}
	for _, md := range experiments.RatioMDs {
		for w := 1; w <= 1024; w++ {
			own(sweep.Point{Kind: machine.SWSM, P: machine.Params{Window: w, MD: md}})
		}
	}
	for i, c := range counts {
		if share := float64(c) / float64(n); share > 0.60 {
			t.Errorf("replica %d owns %.1f%% of the figure keyspace (want <= 60%%)", i, 100*share)
		}
	}
	t.Logf("figure keyspace ownership: %v of %d", counts, n)
}

// dyingHandler serves normally for its first `healthy` simulation
// requests, then answers everything with 503 — the shape a draining or
// dying replica presents to clients (the CI fleet smoke SIGTERMs a real
// sweepd; this pins the client-side failover deterministically).
type dyingHandler struct {
	h       http.Handler
	served  atomic.Int64
	healthy int64
}

func (d *dyingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/healthz" && d.served.Add(1) > d.healthy {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"error":"replica dying"}`))
		return
	}
	d.h.ServeHTTP(w, r)
}

// TestFleetFailoverMidSweep pins the retry path: one replica dies after
// its first two requests, mid-sweep; every point still completes,
// byte-identical to local, served by the survivors. Ring ownership
// follows the random test ports, so the waves are built from it: each
// of the four waves holds a point the dying replica owns, so its first
// two waves are served and the third meets the death.
func TestFleetFailoverMidSweep(t *testing.T) {
	t.Parallel()
	var dying *dyingHandler
	fleet, servers, _ := newFleet(t, 3, nil, func(i int, h http.Handler) http.Handler {
		if i == 2 {
			dying = &dyingHandler{h: h, healthy: 2}
			return dying
		}
		return h
	})
	fleet.Cooldown = 50 * time.Millisecond

	suite := mustSuite(t, testWorkload)
	const waves, width = 4, 6
	var doomed, others []sweep.Point // owned by replica 2, and by the survivors
	for w := 4; len(doomed) < waves || len(others) < waves*(width-1); w += 4 {
		pt := sweep.Point{Kind: machine.DM, P: machine.Params{Window: w, MD: 30}}
		key, _ := routeKey(testWorkload, 1, suite.Fingerprint(), pt)
		if fleet.Ring().Owners(key, 1)[0] == 2 {
			doomed = append(doomed, pt)
		} else {
			others = append(others, pt)
		}
	}
	var pts []sweep.Point
	for k := 0; k < waves; k++ {
		pts = append(pts, doomed[k])
		pts = append(pts, others[k*(width-1):(k+1)*(width-1)]...)
	}
	// Several waves so the death lands mid-sweep, not before or after.
	var remote []*engine.Result
	for i := 0; i < len(pts); i += width {
		res, err := fleet.RunBatch(context.Background(), testWorkload, 1, suite.Fingerprint(), pts[i:i+width])
		if err != nil {
			t.Fatalf("wave %d: fleet sweep did not survive the replica death: %v", i/width, err)
		}
		remote = append(remote, res...)
	}
	if dying.served.Load() <= 2 {
		t.Fatalf("the dying replica was never routed to (served %d), failover untested", dying.served.Load())
	}
	for i, pt := range pts {
		local, err := suite.Run(pt.Kind, pt.P)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(asJSON(t, remote[i]), asJSON(t, local)) {
			t.Fatalf("point %d differs from local after failover", i)
		}
	}
	if s := servers[0].Stats().Requests + servers[1].Stats().Requests; s == 0 {
		t.Error("survivors served nothing")
	}
}

// TestFleetDeadReplicaFromStart: a replica that never comes up
// (connection refused) must not fail calls routed to it — its keys fall
// over to the ring's next owners.
func TestFleetDeadReplicaFromStart(t *testing.T) {
	t.Parallel()
	fleet, _, https := newFleet(t, 3, nil, nil)
	fleet.Cooldown = 50 * time.Millisecond
	https[1].Close() // now refuses connections

	suite := mustSuite(t, testWorkload)
	var pts []sweep.Point
	for _, w := range []int{8, 16, 24, 32, 40, 48} {
		pts = append(pts, sweep.Point{Kind: machine.SWSM, P: machine.Params{Window: w, MD: 20}})
	}
	res, err := fleet.RunBatch(context.Background(), testWorkload, 1, suite.Fingerprint(), pts)
	if err != nil {
		t.Fatalf("fleet with a dead replica failed the sweep: %v", err)
	}
	for i, pt := range pts {
		local := localResult(t, testWorkload, pt)
		if !bytes.Equal(asJSON(t, res[i]), asJSON(t, local)) {
			t.Fatalf("point %d differs from local", i)
		}
	}
}

// TestFleetSkewNotRetried: refusals that would repeat on every replica
// (409 fingerprint skew) must fail immediately, not burn the retry
// budget masking a misconfiguration.
func TestFleetSkewNotRetried(t *testing.T) {
	t.Parallel()
	fleet, servers, _ := newFleet(t, 3, nil, nil)
	// Run (a one-point RunBatch) must fail fast on the refusal.
	_, err := fleet.Run(context.Background(), testWorkload, 1, "deadbeef", sweep.Point{Kind: machine.DM, P: machine.Params{Window: 8}})
	if err == nil || !strings.Contains(err.Error(), "workload content skew") {
		t.Fatalf("fingerprint skew should surface immediately: %v", err)
	}
	var total int64
	for _, srv := range servers {
		total += srv.Stats().Requests
	}
	if total != 1 {
		t.Errorf("skew refusal should cost exactly one request, servers saw %d", total)
	}
}

// TestFleetBadItemNotRetried: an item the model rejects — a ratio
// search without a DM window, params the simulator's config validation
// refuses — is a 400 that would repeat on every replica, so the fleet
// fails the call at once: no retries, nothing declared unavailable,
// and no sweep.ErrUnavailable for a Degrade runner to re-run locally.
func TestFleetBadItemNotRetried(t *testing.T) {
	t.Parallel()
	fleet, _, _ := newFleet(t, 3, nil, nil)
	fp := mustSuite(t, testWorkload).Fingerprint()
	for _, tc := range []struct {
		name string
		call func() error
	}{
		{"window-0 ratio search", func() error {
			_, err := fleet.RatioBatch(context.Background(), testWorkload, 1, fp, []machine.Params{{Window: 16, MD: 30}, {MD: 30}})
			return err
		}},
		{"mem_queue -5 ratio search", func() error {
			_, err := fleet.RatioBatch(context.Background(), testWorkload, 1, fp, []machine.Params{{Window: 16, MD: 30, MemQueue: -5}})
			return err
		}},
		{"mem_queue -5 run", func() error {
			_, err := fleet.RunBatch(context.Background(), testWorkload, 1, fp, []sweep.Point{{Kind: machine.SWSM, P: machine.Params{Window: 16, MemQueue: -5}}})
			return err
		}},
	} {
		err := tc.call()
		var se *StatusError
		if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
			t.Errorf("%s: error %v, want a 400", tc.name, err)
		}
		if errors.Is(err, sweep.ErrUnavailable) {
			t.Errorf("%s: a refused item must not read as unavailable: %v", tc.name, err)
		}
	}
	if m := fleet.Metrics(); m.Retries != 0 || m.Unavailable != 0 {
		t.Errorf("refused items were retried: %+v", m)
	}
}

// TestFleetMembershipGuards pins the Health checks: a replica
// advertising a different member list, or two replicas advertising the
// same id, is refused at attach time, while silent (non-advertising)
// replicas with unique ids pass.
func TestFleetMembershipGuards(t *testing.T) {
	t.Parallel()
	fleet, _, _ := newFleet(t, 2, func(i int) Config {
		return Config{ReplicaID: fmt.Sprintf("r%d", i)}
	}, nil)
	if err := fleet.Health(context.Background()); err != nil {
		t.Fatalf("healthy fleet refused: %v", err)
	}
	if err := fleet.WaitHealthy(context.Background(), time.Second); err != nil {
		t.Fatalf("WaitHealthy on a healthy fleet: %v", err)
	}

	skewed, _, _ := newFleet(t, 2, func(i int) Config {
		return Config{Fleet: []string{"http://other-a:1", "http://other-b:2"}}
	}, nil)
	if err := skewed.Health(context.Background()); err == nil || !strings.Contains(err.Error(), "membership skew") {
		t.Errorf("advertised-membership mismatch should be refused: %v", err)
	}

	dup, _, _ := newFleet(t, 2, func(i int) Config {
		return Config{ReplicaID: "same"}
	}, nil)
	if err := dup.Health(context.Background()); err == nil || !strings.Contains(err.Error(), "replica id") {
		t.Errorf("duplicate replica ids should be refused: %v", err)
	}

	// The advertised-list comparison itself ignores order and trailing
	// slashes — exactly the differences deployment configs accumulate.
	if !sameMembers([]string{"http://b:2/", "http://a:1"}, []string{"http://a:1", "http://b:2"}) {
		t.Error("sameMembers must ignore order and trailing slashes")
	}
	if sameMembers([]string{"http://a:1"}, []string{"http://a:1", "http://b:2"}) {
		t.Error("sameMembers must reject differing lengths")
	}
}

// TestFleetRatioBatchRequestBound pins the absolute request bound of
// server-side searches: one RatioBatch curve on a 3-replica fleet costs
// at most one request per replica, and its answers equal the local
// search's.
func TestFleetRatioBatchRequestBound(t *testing.T) {
	t.Parallel()
	suite := mustSuite(t, testWorkload)
	windows := []int{8, 16, 24}
	md := 30

	local := metrics.NewSearch(sweep.NewRunner(suite))
	params := make([]machine.Params, len(windows))
	want := make([]experiments.RatioAnswer, len(windows))
	for i, w := range windows {
		params[i] = machine.Params{Window: w, MD: md}
		ratio, ok, err := local.EquivalentWindowRatio(params[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = experiments.RatioAnswer{Ratio: ratio, OK: ok}
	}

	fleet, servers, _ := newFleet(t, 3, nil, nil)
	got, err := fleet.RatioBatch(context.Background(), testWorkload, 1, suite.Fingerprint(), params)
	if err != nil {
		t.Fatal(err)
	}
	for i := range windows {
		if got[i] != want[i] {
			t.Errorf("window %d: fleet answer %+v != local %+v", windows[i], got[i], want[i])
		}
	}
	var requests int64
	for _, srv := range servers {
		requests += srv.Stats().Requests
	}
	if requests > int64(len(servers)) {
		t.Errorf("one RatioBatch curve cost %d requests, want <= %d (one per replica)", requests, len(servers))
	}
}

// stubSearchReplica answers every /v1/batch/search item with reply —
// a replica whose answers parse but that no search could produce.
func stubSearchReplica(t *testing.T, reply SearchResponse) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var hits atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			writeJSON(w, HealthResponse{Status: "ok", EngineVersion: engine.Version})
			return
		}
		hits.Add(1)
		var req BatchSearchRequest
		if err := decode(r, &req); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		resp := BatchSearchResponse{Results: make([]SearchResponse, len(req.Items))}
		for i := range resp.Results {
			resp.Results[i] = reply
		}
		writeJSON(w, resp)
	}))
	t.Cleanup(hs.Close)
	return hs, &hits
}

// TestBatchSearchRejectsImpossibleAnswers: an OK answer outside what
// any search could return — a zero or negative ratio, or a ratio whose
// window is not an integer in [1, MaxEquivalentWindow] — is
// ErrMalformedReply, never a figure value.
func TestBatchSearchRejectsImpossibleAnswers(t *testing.T) {
	t.Parallel()
	ratio := SearchRequest{Params: Params{Window: 16, MD: 30}}
	cases := []struct {
		name  string
		reply SearchResponse
	}{
		{"zero ratio", SearchResponse{Ratio: 0, OK: true}},
		{"negative ratio", SearchResponse{Ratio: -2, OK: true}},
		{"fractional window", SearchResponse{Ratio: 1.03, OK: true}},
		{"ratio past the cap", SearchResponse{Ratio: float64(metrics.MaxEquivalentWindow+16) / 16, OK: true}},
	}
	for _, tc := range cases {
		hs, _ := stubSearchReplica(t, tc.reply)
		_, err := NewClient(hs.URL).BatchSearch(context.Background(), []SearchRequest{ratio})
		if !errors.Is(err, ErrMalformedReply) {
			t.Errorf("%s: %+v accepted or misclassified: %v", tc.name, tc.reply, err)
		}
	}
	// Answers a search can produce pass, as do saturated answers.
	for _, reply := range []SearchResponse{
		{Ratio: 37.0 / 16, OK: true},
		{Ratio: float64(metrics.MaxEquivalentWindow) / 16, OK: true},
		{Ratio: 99, OK: false},
	} {
		hs, _ := stubSearchReplica(t, reply)
		if _, err := NewClient(hs.URL).BatchSearch(context.Background(), []SearchRequest{ratio}); err != nil {
			t.Errorf("%+v refused: %v", reply, err)
		}
	}
}

// TestFleetReroutesMalformedSearch: a replica lying with a negative
// ratio is charged like any failing replica — the curve reroutes to the
// healthy owner, whose answers equal the local search's.
func TestFleetReroutesMalformedSearch(t *testing.T) {
	t.Parallel()
	liar, lies := stubSearchReplica(t, SearchResponse{Ratio: -1, OK: true})
	good := httptest.NewServer(NewServer(Config{}).Handler())
	t.Cleanup(good.Close)
	fleet, err := NewFleetClient([]string{liar.URL, good.URL})
	if err != nil {
		t.Fatal(err)
	}
	fleet.BackoffBase, fleet.BackoffMax = time.Millisecond, time.Millisecond

	// Two ratio points owned by each replica (the ring hashes random
	// httptest ports, so ownership is found, not assumed).
	suite := mustSuite(t, testWorkload)
	local := metrics.NewSearch(sweep.NewRunner(suite))
	var params []machine.Params
	var want []experiments.RatioAnswer
	owned := make([]int, 2)
	for w := 4; owned[0] < 2 || owned[1] < 2; w++ {
		p := machine.Params{Window: w, MD: 30}
		wp, err := ToParams(p)
		if err != nil {
			t.Fatal(err)
		}
		o := fleet.Ring().Owner(searchKey(testWorkload, 1, wp))
		if owned[o] == 2 {
			continue
		}
		owned[o]++
		ratio, ok, err := local.EquivalentWindowRatio(p)
		if err != nil {
			t.Fatal(err)
		}
		params = append(params, p)
		want = append(want, experiments.RatioAnswer{Ratio: ratio, OK: ok})
	}
	got, err := fleet.RatioBatch(context.Background(), testWorkload, 1, suite.Fingerprint(), params)
	if err != nil {
		t.Fatal(err)
	}
	for i := range params {
		if got[i] != want[i] {
			t.Errorf("window %d: fleet answer %+v != local %+v", params[i].Window, got[i], want[i])
		}
	}
	if lies.Load() == 0 {
		t.Fatal("the lying replica was never asked; the reroute went untested")
	}
	if fleet.Metrics().Retries == 0 {
		t.Error("malformed replies must be charged as retries")
	}
}

// mustSuite builds a workload suite for key/fingerprint computations.
func mustSuite(t *testing.T, workload string) *machine.Suite {
	t.Helper()
	tr, err := workloads.Build(workload, 1)
	if err != nil {
		t.Fatal(err)
	}
	suite, err := machine.NewSuite(tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	return suite
}
