package daemon

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"testing"
	"time"

	"daesim/internal/engine"
	"daesim/internal/experiments"
	"daesim/internal/faultinject"
	"daesim/internal/machine"
	"daesim/internal/sweep"
)

// chaosFleet builds an n-replica in-process fleet whose client
// transports are wrapped with a deterministic fault injector (scope
// "r<i>" per replica, the repro -chaos wiring), with failure handling
// tuned fast for tests.
func chaosFleet(t *testing.T, n int, spec string) (*FleetClient, []*Server, *faultinject.Injector) {
	t.Helper()
	fleet, servers, _ := newFleet(t, n, nil, nil)
	sched, err := faultinject.ParseSchedule(spec)
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.NewInjector(sched)
	for i, c := range fleet.Clients() {
		c.HTTP = &http.Client{
			Timeout:   time.Minute,
			Transport: &faultinject.Transport{Injector: inj, Scope: fmt.Sprintf("r%d", i)},
		}
	}
	fleet.Cooldown = 20 * time.Millisecond
	fleet.BackoffBase = time.Millisecond
	fleet.BackoffMax = 4 * time.Millisecond
	return fleet, servers, inj
}

// chaosContext attaches the batched-run hook but NOT the server-side
// search hook: the ratio searches' probe waves then
// travel through RemoteBatch — one client request per replica per wave
// instead of one per curve — so the soak pushes an order of magnitude
// more traffic through the fault injector (the server-side search path
// is byte-identity-tested separately by TestFleetFigure7ByteIdentical).
func chaosContext(fleet *FleetClient) *experiments.Context {
	ctx := experiments.NewContext()
	ctx.RemoteBatch = func(workload string, scale int, fingerprint string, pts []sweep.Point) ([]*engine.Result, error) {
		return fleet.RunBatch(context.Background(), workload, scale, fingerprint, pts)
	}
	return ctx
}

// renderFig7 renders Figure 7 (ratio searches, the batched-search path)
// plus Figure 4 (the speedup sweep, the batched-run path) — the same
// pair TestFleetFigure7ByteIdentical pins.
func renderFig7(t *testing.T, ctx *experiments.Context) []byte {
	t.Helper()
	var buf bytes.Buffer
	ratio, err := ctx.RatioFigure("FLO52Q")
	if err != nil {
		t.Fatal(err)
	}
	if err := ratio.Render(&buf); err != nil {
		t.Fatal(err)
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

// TestChaosSoakFigure7 is the tentpole's acceptance test: Figure 7 (and
// the Figure 4 sweep) reproduced through a 3-replica fleet under
// several seeded fault schedules — random timeouts and 5xx bursts, a
// replica dying mid-sweep, a flapping replica plus corrupted and
// truncated bodies — must stay byte-identical to the local oracle,
// and the retry amplification of each schedule must stay bounded.
func TestChaosSoakFigure7(t *testing.T) {
	if testing.Short() {
		t.Skip("full Figure 7 chaos soak; skipped with -short")
	}
	if raceEnabled {
		t.Skip("full-figure soak is too slow under the race detector; unit chaos tests still run")
	}
	t.Parallel()
	oracle := renderFig7(t, experiments.NewContext())

	// The no-fault baseline pins the denominator for the amplification
	// bound: Ops counts every transport operation the injector saw.
	baseFleet, _, baseInj := chaosFleet(t, 3, "seed=1")
	if got := renderFig7(t, chaosContext(baseFleet)); !bytes.Equal(oracle, got) {
		t.Fatal("baseline fleet render differs from local oracle")
	}
	baseOps := baseInj.Counts().Ops
	if baseOps == 0 {
		t.Fatal("baseline run made no transport operations")
	}

	schedules := []struct{ name, spec string }{
		{"timeouts+5xx", "seed=7,timeout:rate=0.1,5xx:rate=0.1"},
		{"replica-death-mid-sweep", "seed=11,refuse@r1:from=5"},
		{"flapping+corruption", "seed=13,refuse@r2:period=6:duty=3,corrupt:rate=0.05,trunc:rate=0.03"},
	}
	for _, sc := range schedules {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			fleet, _, inj := chaosFleet(t, 3, sc.spec)
			ctx := chaosContext(fleet)
			ctx.Degrade = true
			got := renderFig7(t, ctx)
			if !bytes.Equal(oracle, got) {
				t.Errorf("figures under schedule %q differ from the local oracle", sc.spec)
			}
			counts := inj.Counts()
			if counts.Faults == 0 {
				t.Errorf("schedule %q injected no faults — the soak tested nothing", sc.spec)
			}
			// Retry amplification: injected failures may multiply
			// transport operations, but the ladder must keep the
			// multiple small (unbounded retry storms are the failure
			// mode this pins).
			if counts.Ops > 3*baseOps {
				t.Errorf("retry amplification out of bounds: %d ops vs %d baseline (>3x)", counts.Ops, baseOps)
			}
			stats := ctx.CacheStats()
			if stats.RemoteHits+stats.RemoteSearches == 0 && stats.Degraded == 0 {
				t.Errorf("no remote traffic and no degradation — schedule %q never exercised the fleet", sc.spec)
			}
			t.Logf("%s: %+v, fleet %+v, degraded %d (baseline ops %d)", sc.name, counts, fleet.Metrics(), stats.Degraded, baseOps)
		})
	}
}

// TestChaosTotalOutageDegrades: with every replica refusing every
// request, a Degrade-enabled context still reproduces the figure
// byte-identically — entirely through last-resort local simulation —
// while a strict context fails loudly with sweep.ErrUnavailable.
func TestChaosTotalOutageDegrades(t *testing.T) {
	if testing.Short() {
		t.Skip("figure reproduction; skipped with -short")
	}
	if raceEnabled {
		t.Skip("full-figure soak is too slow under the race detector")
	}
	t.Parallel()

	var oracle bytes.Buffer
	fig, err := experiments.NewContext().Figure("FLO52Q")
	if err != nil {
		t.Fatal(err)
	}
	if err := fig.Render(&oracle); err != nil {
		t.Fatal(err)
	}

	// Strict: the outage must surface, structurally, as unavailability.
	strictFleet, _, _ := chaosFleet(t, 3, "seed=3,refuse")
	strictCtx := fleetContext(strictFleet)
	if _, err := strictCtx.Figure("FLO52Q"); !errors.Is(err, sweep.ErrUnavailable) {
		t.Fatalf("total outage without Degrade must wrap sweep.ErrUnavailable, got %v", err)
	}

	// Degraded: the run completes locally, byte-identically.
	fleet, servers, _ := chaosFleet(t, 3, "seed=3,refuse")
	ctx := fleetContext(fleet)
	ctx.Degrade = true
	got, err := ctx.Figure("FLO52Q")
	if err != nil {
		t.Fatalf("degraded run must complete through the outage: %v", err)
	}
	var buf bytes.Buffer
	if err := got.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(oracle.Bytes(), buf.Bytes()) {
		t.Error("degraded figure differs from the local oracle")
	}
	stats := ctx.CacheStats()
	if stats.Degraded == 0 {
		t.Errorf("total outage must be absorbed as Degraded, got %+v", stats)
	}
	if stats.Sims != 0 {
		t.Errorf("degraded points must count under Degraded, not Sims: %+v", stats)
	}
	for i, srv := range servers {
		if n := srv.Stats().Requests; n != 0 {
			t.Errorf("replica %d served %d requests through a total refusal schedule", i, n)
		}
	}
}

// TestChaosReplayDeterministic: the same schedule replayed over the
// same batch produces the identical fault trace, the identical
// results, and the identical error — the property that makes a chaos
// failure debuggable by re-running its seed.
func TestChaosReplayDeterministic(t *testing.T) {
	t.Parallel()
	var pts []sweep.Point
	for _, kind := range []machine.Kind{machine.DM, machine.SWSM} {
		for _, w := range []int{8, 16, 24, 32} {
			pts = append(pts, sweep.Point{Kind: kind, P: machine.Params{Window: w, MD: 10}})
		}
	}
	// One set of replicas serves both runs: the ring routes by the
	// member URL strings, so fresh servers (fresh random ports) would
	// shuffle ownership between runs and with it the per-scope request
	// counts. Each run gets its own client and injector over the same
	// membership — exactly a repro -chaos rerun against a live fleet.
	base, _, _ := newFleet(t, 3, nil, nil)
	urls := base.Ring().Members()

	runOnce := func() ([]faultinject.Event, []string, string) {
		fleet, err := NewFleetClient(urls)
		if err != nil {
			t.Fatal(err)
		}
		sched, err := faultinject.ParseSchedule("seed=5,timeout:rate=0.25,5xx:rate=0.15")
		if err != nil {
			t.Fatal(err)
		}
		inj := faultinject.NewInjector(sched)
		for i, c := range fleet.Clients() {
			c.HTTP = &http.Client{
				Timeout:   time.Minute,
				Transport: &faultinject.Transport{Injector: inj, Scope: fmt.Sprintf("r%d", i)},
			}
		}
		fleet.BackoffBase = time.Millisecond
		fleet.BackoffMax = 4 * time.Millisecond
		// Routing must be a pure function of the schedule for the trace
		// to replay: breaker state depends on the wall clock (cooldown
		// expiry), so keep breakers closed for this test.
		fleet.FailureThreshold = 1 << 30
		res, err := fleet.RunBatch(context.Background(), testWorkload, 1, "", pts)
		var rendered []string
		for _, r := range res {
			if r == nil {
				rendered = append(rendered, "unserved")
			} else {
				rendered = append(rendered, fmt.Sprintf("%d", r.Cycles))
			}
		}
		errStr := ""
		if err != nil {
			if !errors.Is(err, sweep.ErrUnavailable) {
				t.Fatalf("only unavailability is acceptable under this schedule: %v", err)
			}
			errStr = err.Error()
		}
		return inj.Trace(), rendered, errStr
	}

	trace1, res1, err1 := runOnce()
	trace2, res2, err2 := runOnce()
	if !reflect.DeepEqual(trace1, trace2) {
		t.Error("fault traces differ between identical runs")
	}
	if !reflect.DeepEqual(res1, res2) {
		t.Errorf("results differ between identical runs:\n%v\n%v", res1, res2)
	}
	if err1 != err2 {
		t.Errorf("errors differ between identical runs: %q vs %q", err1, err2)
	}
	if len(trace1) == 0 {
		t.Fatal("no transport operations traced")
	}
	// And the served results match a local oracle point-for-point.
	for i, r := range res1 {
		if r == "unserved" {
			continue
		}
		want := fmt.Sprintf("%d", localResult(t, testWorkload, pts[i]).Cycles)
		if r != want {
			t.Errorf("point %d: chaos result %s != local %s", i, r, want)
		}
	}
}
