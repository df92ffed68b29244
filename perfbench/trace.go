package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"daesim/internal/daemon"
	"daesim/internal/engine"
	"daesim/internal/experiments"
	"daesim/internal/machine"
	"daesim/internal/obsv"
	"daesim/internal/partition"
	"daesim/internal/sweep"
	"daesim/internal/workloads"
)

// passTrace collects one traced pass: spans recorded around the calls
// the benchmark makes or wraps (offsets from the pass's start), and the
// inputs the replays feed back into layers it cannot wrap.
type passTrace struct {
	origin time.Time

	mu                                          sync.Mutex
	drivers, renders, hooks, transports, server []interval
	requests                                    []request
	reads                                       []string     // store keys read (hits)
	writes                                      []storeWrite // store blobs written
	routes                                      []string     // ring keys of the points the hooks routed

	// Filled after the pass's timing ends.
	scrape     time.Duration // one scrape of every obsv registry
	series     int
	storeBytes int64
	admission  time.Duration // admission-semaphore wait, all replicas
}

// request is one HTTP round trip seen at a replica client's transport.
type request struct {
	replica             int
	path                string
	reqBytes, respBytes int64
	span                interval
	body                []byte
}

type storeWrite struct {
	key  string
	data []byte
}

// span records [start, now) into dst.
func (t *passTrace) span(dst *[]interval, start time.Time) {
	end := time.Now()
	t.mu.Lock()
	*dst = append(*dst, interval{start.Sub(t.origin), end.Sub(t.origin)})
	t.mu.Unlock()
}

// route captures a point's ring key, spelled the way the fleet client
// keys its routing (engine version, fingerprint, workload, scale,
// canonical parameters).
func (t *passTrace) route(workload string, scale int, fp string, pt sweep.Point) {
	pk, ok := pt.P.CacheKey(pt.Kind)
	if !ok {
		return
	}
	key := engine.Version + "|" + fp + "|" + workload + "|" + strconv.Itoa(scale) + "|" + pk
	t.mu.Lock()
	t.routes = append(t.routes, key)
	t.mu.Unlock()
}

// tap points the fleet's transport and handler wrappers at the pass
// being traced; nil means untraced and the wrappers pass straight
// through.
type tap struct{ cur atomic.Pointer[passTrace] }

// handler wraps a replica's Server.Handler() with a server-side span.
func (t *tap) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := t.cur.Load()
		if tr == nil {
			h.ServeHTTP(w, r)
			return
		}
		defer tr.span(&tr.server, time.Now())
		h.ServeHTTP(w, r)
	})
}

// tapTransport is a replica client's transport. Traced, it reads each
// response body in full inside the span, so the span covers the whole
// round trip and the client's decode runs afterwards on bytes in
// memory, and it keeps the body for the decode replay.
type tapTransport struct {
	base    *http.Transport
	replica int
	tap     *tap
}

func (t *tapTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	tr := t.tap.cur.Load()
	if tr == nil {
		return t.base.RoundTrip(req)
	}
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	end := time.Now()
	rq := request{replica: t.replica, path: req.URL.Path, reqBytes: req.ContentLength, respBytes: int64(len(body)),
		span: interval{start.Sub(tr.origin), end.Sub(tr.origin)}, body: body}
	tr.mu.Lock()
	tr.transports = append(tr.transports, rq.span)
	tr.requests = append(tr.requests, rq)
	tr.mu.Unlock()
	return resp, nil
}

// CloseIdleConnections lets http.Client.CloseIdleConnections reach the
// wrapped transport.
func (t *tapTransport) CloseIdleConnections() { t.base.CloseIdleConnections() }

// storeTap is a pass-through sweep.BlobFaults that captures the keys
// and blobs of a pass's store traffic.
type storeTap struct{ tr *passTrace }

func (s storeTap) OnRead(key string, data []byte) []byte {
	s.tr.mu.Lock()
	s.tr.reads = append(s.tr.reads, key)
	s.tr.mu.Unlock()
	return data
}

func (s storeTap) OnWrite(key string, data []byte) []byte {
	s.tr.mu.Lock()
	s.tr.writes = append(s.tr.writes, storeWrite{key, data})
	s.tr.mu.Unlock()
	return data
}

// scrape times one exposition of every obsv registry in play: a client
// registry bridging the pass's cache (and store) counters, as repro
// -metrics-dump builds it, plus each replica's /metrics registry.
func (b *bench) scrape(ctx *experiments.Context, st *sweep.Store) (time.Duration, int) {
	client := obsv.NewRegistry()
	daemon.InstrumentCacheStats(client, ctx.CacheStats)
	if st != nil {
		daemon.InstrumentStore(client, st)
	}
	regs := []*obsv.Registry{client}
	if b.fleet != nil {
		for _, r := range b.fleet.replicas {
			regs = append(regs, r.srv.Metrics())
		}
	}
	start := time.Now()
	for _, reg := range regs {
		_ = reg.WritePrometheus(io.Discard) // io.Discard never fails
	}
	took := time.Since(start)
	series := 0
	for _, reg := range regs {
		series += len(reg.Snapshot())
	}
	return took, series
}

// admissionWait sums the replicas' admission-semaphore wait histograms.
func (f *fleet) admissionWait() time.Duration {
	var s float64
	for _, r := range f.replicas {
		for _, smp := range r.srv.Metrics().Snapshot() {
			if smp.Name == "daesim_admission_wait_seconds_sum" {
				s += smp.Value
			}
		}
	}
	return time.Duration(s * float64(time.Second))
}

// forEach runs fn(0..n-1) on par workers and waits for them.
func forEach(n, par int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// timedEach runs fn over n items on par workers and returns each call's
// interval from a common origin.
func timedEach(n, par int, fn func(i int)) []interval {
	iv := make([]interval, n)
	origin := time.Now()
	forEach(n, par, func(i int) {
		s := time.Since(origin)
		fn(i)
		iv[i] = interval{s, time.Since(origin)}
	})
	return iv
}

func lengths(iv []interval) []time.Duration {
	out := make([]time.Duration, len(iv))
	for i, x := range iv {
		out[i] = x.end - x.start
	}
	return out
}

// replay holds what the replays measured. Times marked "pass" are wall
// shares of one pass's worth of calls, run in the pass's own shape.
type replay struct {
	buildPass, lowerPass          time.Duration
	fingerprintPass               time.Duration
	suiteDurs                     []time.Duration
	allocsPerSuite, bytesPerSuite float64
	suites                        []*machine.Suite // Table 1's workloads
	gets, puts                    []time.Duration
	storePass                     time.Duration
	decodes                       []time.Duration
	ownerNs                       float64
	mops, allocsPerSim            float64
	simMean                       time.Duration
	engineSims                    int
}

// replayRounds is how many times the lowering and store replays repeat;
// their per-pass wall shares are the median round.
const replayRounds = 3

// replayLowering builds, lowers and fingerprints the pass's workloads
// the way a pass does: Table 1's seven on parallelism workers, then the
// generated one alone. Per-call wall shares split each round's wall time
// between workloads.Build, machine.NewSuite and Suite.Fingerprint.
func replayLowering(seed uint64, rp *replay) error {
	var pol partition.Policy // the Context default
	names := workloads.Names()
	type call struct {
		suite                     *machine.Suite
		err                       error
		build, lower, fingerprint interval
	}
	// phase runs one group of workloads and adds its per-layer wall
	// shares to sh.
	phase := func(names []string, par int, sh *[3]time.Duration) ([]call, error) {
		calls := make([]call, len(names))
		origin := time.Now()
		forEach(len(names), par, func(i int) {
			c := &calls[i]
			t0 := time.Since(origin)
			tr, err := workloads.Build(names[i], 1)
			t1 := time.Since(origin)
			c.build, c.err = interval{t0, t1}, err
			if err != nil {
				return
			}
			c.suite, c.err = machine.NewSuite(tr, pol)
			t2 := time.Since(origin)
			c.lower = interval{t1, t2}
			if c.err == nil {
				c.suite.Fingerprint()
			}
			c.fingerprint = interval{t2, time.Since(origin)}
		})
		iv := make([]interval, 0, 3*len(calls))
		for _, c := range calls {
			if c.err != nil {
				return nil, c.err
			}
			iv = append(iv, c.build, c.lower, c.fingerprint)
			rp.suiteDurs = append(rp.suiteDurs, c.lower.end-c.lower.start)
		}
		for i, d := range fairShares(iv) {
			sh[i%3] += d
		}
		return calls, nil
	}
	var build, lower, fingerprint []float64
	for round := 0; round < replayRounds; round++ {
		var sh [3]time.Duration
		calls, err := phase(names, parallelism, &sh)
		if err != nil {
			return err
		}
		if _, err := phase([]string{genName(seed)}, 1, &sh); err != nil {
			return err
		}
		if round == 0 {
			for _, c := range calls {
				rp.suites = append(rp.suites, c.suite)
			}
		}
		build = append(build, float64(sh[0]))
		lower = append(lower, float64(sh[1]))
		fingerprint = append(fingerprint, float64(sh[2]))
	}
	rp.buildPass = time.Duration(median(build))
	rp.lowerPass = time.Duration(median(lower))
	rp.fingerprintPass = time.Duration(median(fingerprint))

	// Allocation per suite, lowered one at a time so the MemStats delta
	// belongs to one NewSuite call.
	var m0, m1 runtime.MemStats
	var mallocs, bytes uint64
	all := append(append([]string(nil), names...), genName(seed))
	for _, name := range all {
		tr, err := workloads.Build(name, 1)
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&m0)
		_, err = machine.NewSuite(tr, pol)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return err
		}
		mallocs += m1.Mallocs - m0.Mallocs
		bytes += m1.TotalAlloc - m0.TotalAlloc
	}
	rp.allocsPerSuite = float64(mallocs) / float64(len(all))
	rp.bytesPerSuite = float64(bytes) / float64(len(all))
	return nil
}

// replayStore replays a pass's store traffic on parallelism workers:
// Get on the keys it read (hits, on the pass's store) or, when it read
// nothing, on the keys it wrote against an empty store (the misses that
// preceded those writes); then Put of every blob it wrote into an empty
// store.
func (b *bench) replayStore(tr *passTrace, rp *replay) error {
	keys := tr.reads
	if len(keys) == 0 {
		for _, w := range tr.writes {
			keys = append(keys, w.key)
		}
	}
	results := make([]*engine.Result, len(tr.writes))
	for i, w := range tr.writes {
		var ent struct {
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(w.data, &ent); err != nil {
			return err
		}
		results[i] = new(engine.Result)
		if err := json.Unmarshal(ent.Result, results[i]); err != nil {
			return err
		}
	}
	if len(keys) == 0 && len(results) == 0 {
		return nil
	}
	var walls []float64
	for round := 0; round < replayRounds; round++ {
		getStore := b.store
		if len(tr.reads) == 0 {
			s, err := sweep.OpenStore(filepath.Join(b.dir, fmt.Sprintf("replay-miss-%d", round)))
			if err != nil {
				return err
			}
			getStore = s
		}
		getStore.Faults = nil
		iv := timedEach(len(keys), parallelism, func(i int) { getStore.Get(keys[i]) })
		rp.gets = append(rp.gets, lengths(iv)...)
		wall := unionLen(iv)
		if len(results) > 0 {
			put, err := sweep.OpenStore(filepath.Join(b.dir, fmt.Sprintf("replay-put-%d", round)))
			if err != nil {
				return err
			}
			iv := timedEach(len(results), parallelism, func(i int) { put.Put(tr.writes[i].key, results[i]) })
			rp.puts = append(rp.puts, lengths(iv)...)
			wall += unionLen(iv)
		}
		walls = append(walls, float64(wall))
	}
	rp.storePass = time.Duration(median(walls))
	return nil
}

// replayWire decodes the captured batch response bodies, as the client
// does, one at a time.
func replayWire(tr *passTrace, rp *replay) error {
	for _, rq := range tr.requests {
		var v any
		switch rq.path {
		case "/v1/batch/run":
			v = new(daemon.BatchRunResponse)
		case "/v1/batch/search":
			v = new(daemon.BatchSearchResponse)
		default:
			continue
		}
		t0 := time.Now()
		err := json.Unmarshal(rq.body, v)
		rp.decodes = append(rp.decodes, time.Since(t0))
		if err != nil {
			return err
		}
	}
	return nil
}

// ownerRounds is how many times the ring replay resolves each key.
const ownerRounds = 200

// replayRing times Ring.Owner over the keys the pass routed.
func (f *fleet) replayRing(tr *passTrace, rp *replay) {
	if len(tr.routes) == 0 {
		return
	}
	ring := f.client.Ring()
	sink := 0
	t0 := time.Now()
	for r := 0; r < ownerRounds; r++ {
		for _, k := range tr.routes {
			sink += ring.Owner(k)
		}
	}
	rp.ownerNs = float64(time.Since(t0).Nanoseconds()) / float64(ownerRounds*len(tr.routes))
	runtime.KeepAlive(sink)
}

// engineIters is the fixed number of timed Table 1 grids the engine
// benchmark runs after its warm-up grid.
const engineIters = 3

// benchEngine runs the Table 1 grid (DM, every Table 1 window and
// unlimited, MD 60 and 0) through Suite.RunWith on one caller-held Sim:
// one grid to warm the scratch, then engineIters timed grids.
func benchEngine(rp *replay) error {
	sim := engine.NewSim()
	windows := append(append([]int(nil), experiments.Table1Windows...), 0)
	grid := func() (ops int64, sims int, err error) {
		for _, s := range rp.suites {
			n := int64(s.Program(machine.DM).Len())
			for _, w := range windows {
				for _, md := range []int{experiments.MDFull, experiments.MDZero} {
					if _, err := s.RunWith(sim, machine.DM, machine.Params{Window: w, MD: md}); err != nil {
						return 0, 0, err
					}
					ops += n
					sims++
				}
			}
		}
		return ops, sims, nil
	}
	if _, _, err := grid(); err != nil {
		return err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	var ops int64
	for i := 0; i < engineIters; i++ {
		o, n, err := grid()
		if err != nil {
			return err
		}
		ops += o
		rp.engineSims += n
	}
	took := time.Since(start)
	runtime.ReadMemStats(&m1)
	rp.mops = float64(ops) / took.Seconds() / 1e6
	rp.allocsPerSim = float64(m1.Mallocs-m0.Mallocs) / float64(rp.engineSims)
	rp.simMean = took / time.Duration(rp.engineSims)
	return nil
}

// attribution splits one traced pass's wall time into layer self-times.
//
// Measured spans nest: server handler within transport within remote
// hook within driver. Each layer's self-time is its union of spans
// minus its children's union. The replayed layers (build, lowering,
// store, engine estimate) are placed in the drivers' time outside the
// remote hooks; a replay larger than the time left there is cut to fit
// and the cut is reported as replay excess. What no layer claims is
// unattributed.
type attribution struct {
	render, daemon, http, fleet              time.Duration
	build, lower, fingerprint, store, engine time.Duration
	unattributed, excess                     time.Duration
}

func attribute(p passResult, tr *passTrace, rp *replay) attribution {
	var a attribution
	var drivers time.Duration
	for _, x := range tr.drivers {
		drivers += x.end - x.start
	}
	for _, x := range tr.renders {
		a.render += x.end - x.start
	}
	hooks, transports, server := unionLen(tr.hooks), unionLen(tr.transports), unionLen(tr.server)
	a.daemon = server
	a.http = transports - server
	a.fleet = hooks - transports
	left := drivers - hooks
	take := func(d time.Duration) time.Duration {
		if d > left {
			a.excess += d - left
			d = left
		}
		left -= d
		return d
	}
	a.build = take(rp.buildPass)
	a.lower = take(rp.lowerPass)
	a.fingerprint = take(rp.fingerprintPass)
	a.store = take(rp.storePass)
	a.engine = take(engineEstimate(p, rp))
	a.unattributed = p.wall - (a.render + a.daemon + a.http + a.fleet + a.build + a.lower + a.fingerprint + a.store + a.engine)
	return a
}

// engineEstimate is the engine's estimated wall time in a pass: sims ×
// mean sim time from the engine benchmark, divided by the parallelism
// the pass runs sims at.
func engineEstimate(p passResult, rp *replay) time.Duration {
	sims := p.delta.cache.Sims + p.delta.cache.Degraded
	return time.Duration(sims) * rp.simMean / parallelism
}
