package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"daesim/internal/daemon"
	"daesim/internal/engine"
	"daesim/internal/experiments"
	"daesim/internal/machine"
	"daesim/internal/sweep"
)

// Fixed load shape: one process, two CPUs' worth of workers, two
// replicas with one connection each. These are constants recorded in
// every result, never read from the host.
const (
	gomaxprocs  = 2
	parallelism = 2
	replicas    = 2
)

// The workloads.
const (
	coldFill  = "cold-fill"
	warmStore = "warm-store"
	warmFleet = "warm-fleet"
)

var workloadNames = []string{coldFill, warmStore, warmFleet}

// renderer is what every experiments driver returns.
type renderer interface{ Render(io.Writer) error }

// artifact is one rendered piece of a pass.
type artifact struct {
	name  string
	build func(*experiments.Context) (renderer, error)
}

// genName is the generated workload a pass renders as its eighth
// artifact; its spec varies with the benchmark's seed.
func genName(seed uint64) string { return fmt.Sprintf("spec:seed=%d", seed) }

// passArtifacts lists a pass in render order: Table 1, Figures 4-6,
// Figures 7-9, then the generated workload's ratio figure.
func passArtifacts(seed uint64) []artifact {
	fig := func(w string) func(*experiments.Context) (renderer, error) {
		return func(c *experiments.Context) (renderer, error) { return c.Figure(w) }
	}
	ratio := func(w string) func(*experiments.Context) (renderer, error) {
		return func(c *experiments.Context) (renderer, error) { return c.RatioFigure(w) }
	}
	gen := genName(seed)
	return []artifact{
		{"table1", func(c *experiments.Context) (renderer, error) { return c.Table1() }},
		{"fig4", fig("FLO52Q")}, {"fig5", fig("MDG")}, {"fig6", fig("TRACK")},
		{"fig7", ratio("FLO52Q")}, {"fig8", ratio("MDG")}, {"fig9", ratio("TRACK")},
		{"gen7", func(c *experiments.Context) (renderer, error) { return c.RatioFigureNamed(7, gen) }},
	}
}

// bench is one workload's environment: what set-up built and every pass
// reuses.
type bench struct {
	workload string
	seed     uint64
	dir      string // scratch directory inside the checkout
	genRef   string // SHA-256 of set-up's local render of the generated figure
	store    *sweep.Store
	fleet    *fleet
	passes   int
	fills    []passResult // the warm-up passes set-up ran
}

// setup builds a workload's environment: the local reference render of
// the generated figure, then the warm-up fill for the warm workloads.
func setup(workload string, seed uint64, dir string) (*bench, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("creating work directory: %w", err)
	}
	b := &bench{workload: workload, seed: seed, dir: dir}
	ref := newContext()
	res, err := ref.RatioFigureNamed(7, genName(seed))
	if err != nil {
		return nil, fmt.Errorf("reference render of %s: %w", genName(seed), err)
	}
	h := sha256.New()
	if err := res.Render(h); err != nil {
		return nil, fmt.Errorf("reference render of %s: %w", genName(seed), err)
	}
	b.genRef = hex.EncodeToString(h.Sum(nil))
	switch workload {
	case coldFill:
		return b, nil
	case warmStore:
		if b.store, err = sweep.OpenStore(filepath.Join(dir, "store")); err != nil {
			return nil, err
		}
	case warmFleet:
		if b.fleet, err = startFleet(replicas); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
	}
	fill, err := b.pass(nil, false)
	if err != nil {
		b.close()
		return nil, fmt.Errorf("warm-up pass: %w", err)
	}
	b.fills = append(b.fills, fill)
	return b, nil
}

// close stops the fleet. The scratch directory stays until the run
// ends: deleting thousands of store blobs leaves the filesystem busy for
// a while, which would slow whatever is measured next.
func (b *bench) close() {
	if b.fleet != nil {
		b.fleet.close()
	}
}

// newContext returns a fresh experiments.Context with the fixed load
// shape.
func newContext() *experiments.Context {
	c := experiments.NewContext()
	c.Parallelism = parallelism
	return c
}

// passContext builds the fresh Context one pass runs in, wired to the
// workload's cache layer. With tr set, the remote hooks and the store's
// blob hook record into it.
func (b *bench) passContext(tr *passTrace) (*experiments.Context, *sweep.Store, error) {
	ctx := newContext()
	var st *sweep.Store
	switch b.workload {
	case coldFill:
		var err error
		if st, err = sweep.OpenStore(filepath.Join(b.dir, fmt.Sprintf("pass-%d", b.passes))); err != nil {
			return nil, nil, err
		}
	case warmStore:
		st = b.store
	case warmFleet:
		b.fleet.bind(ctx, tr)
	}
	if st != nil {
		st.Faults = nil
		if tr != nil {
			st.Faults = storeTap{tr}
		}
		ctx.Cache = st
	}
	b.passes++
	return ctx, st, nil
}

// counters is the traffic a render is checked against.
type counters struct {
	cache                  sweep.CacheStats
	fleet                  daemon.FleetMetrics
	refused, queueTimeouts int64
}

func (b *bench) counters(ctx *experiments.Context) counters {
	c := counters{cache: ctx.CacheStats()}
	if b.fleet != nil {
		c.fleet = b.fleet.client.Metrics()
		for _, r := range b.fleet.replicas {
			st := r.srv.Stats()
			c.refused += st.Refused
			c.queueTimeouts += st.QueueTimeouts
		}
	}
	return c
}

// minus returns c - o field by field.
func (c counters) minus(o counters) counters {
	d := c
	d.cache.L1Hits -= o.cache.L1Hits
	d.cache.StoreHits -= o.cache.StoreHits
	d.cache.RemoteHits -= o.cache.RemoteHits
	d.cache.RemoteSearches -= o.cache.RemoteSearches
	d.cache.Sims -= o.cache.Sims
	d.cache.Degraded -= o.cache.Degraded
	d.cache.Uncacheable -= o.cache.Uncacheable
	d.fleet.Retries -= o.fleet.Retries
	d.fleet.BreakerOpens -= o.fleet.BreakerOpens
	d.fleet.Hedges -= o.fleet.Hedges
	d.fleet.DrainingReroutes -= o.fleet.DrainingReroutes
	d.fleet.Unavailable -= o.fleet.Unavailable
	d.refused -= o.refused
	d.queueTimeouts -= o.queueTimeouts
	return d
}

// warmFault names why a render on a warm pass fails despite correct
// bytes: the warm path simulated, degraded, retried or was refused.
func (c counters) warmFault() string {
	switch {
	case c.cache.Sims != 0:
		return fmt.Sprintf("simulated %d points", c.cache.Sims)
	case c.cache.Degraded != 0:
		return fmt.Sprintf("degraded %d points", c.cache.Degraded)
	case c.fleet.Retries != 0:
		return fmt.Sprintf("retried %d points", c.fleet.Retries)
	case c.fleet.Unavailable != 0:
		return fmt.Sprintf("%d points unavailable", c.fleet.Unavailable)
	case c.refused != 0 || c.queueTimeouts != 0:
		return fmt.Sprintf("server refused %d, queue timeouts %d", c.refused, c.queueTimeouts)
	}
	return ""
}

// passResult is what one pass measured.
type passResult struct {
	wall, table1, fig7 time.Duration
	allocBytes         uint64
	gcCPU              time.Duration // GC CPU time the runtime charged to the pass
	attempted, failed  int
	failures           []string
	digest             string
	delta              counters         // traffic over the whole pass
	fig7Cache          sweep.CacheStats // traffic inside Figure 7's driver
	storeHits          int64
	storeWrites        int64
}

// pass runs one pass in a fresh Context. warm selects the warm-path
// checks. A render that errors or renders unexpected bytes is counted
// failed, not returned as an error; errors are for a broken harness.
func (b *bench) pass(tr *passTrace, warm bool) (passResult, error) {
	ctx, st, err := b.passContext(tr)
	if err != nil {
		return passResult{}, err
	}
	var r passResult
	var storeBefore sweep.StoreStats
	if st != nil {
		storeBefore = st.Stats()
	}
	var admission time.Duration
	if tr != nil && b.fleet != nil {
		admission = b.fleet.admissionWait()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0 := gcCPU()
	passHash := sha256.New()
	var buf bytes.Buffer
	start := time.Now()
	if tr != nil {
		tr.origin = start
	}
	first := b.counters(ctx)
	for _, a := range passArtifacts(b.seed) {
		c0 := b.counters(ctx)
		t0 := time.Now()
		res, err := a.build(ctx)
		if tr != nil {
			tr.span(&tr.drivers, t0)
		}
		buf.Reset()
		if err == nil {
			t1 := time.Now()
			err = res.Render(&buf)
			if tr != nil {
				tr.span(&tr.renders, t1)
			}
		}
		took := time.Since(t0)
		d := b.counters(ctx).minus(c0)
		switch a.name {
		case "table1":
			r.table1 = took
		case "fig7":
			r.fig7, r.fig7Cache = took, d.cache
		}
		passHash.Write(buf.Bytes())
		r.attempted++
		if why := b.check(a.name, buf.Bytes(), err, d, warm); why != "" {
			r.failed++
			r.failures = append(r.failures, a.name+": "+why)
		}
	}
	r.wall = time.Since(start)
	runtime.ReadMemStats(&m1)
	r.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	r.gcCPU = gcCPU() - gc0
	r.delta = b.counters(ctx).minus(first)
	r.digest = hex.EncodeToString(passHash.Sum(nil))
	if st != nil {
		after := st.Stats()
		r.storeHits, r.storeWrites = after.Hits-storeBefore.Hits, after.Writes-storeBefore.Writes
	}
	if tr != nil {
		tr.scrape, tr.series = b.scrape(ctx, st)
		if st != nil {
			_, tr.storeBytes = st.Usage()
		}
		if b.fleet != nil {
			tr.admission = b.fleet.admissionWait() - admission
			b.fleet.tap.cur.Store(nil)
		}
	}
	return r, nil
}

// check returns why a render failed, or "" when it passed.
func (b *bench) check(name string, out []byte, err error, d counters, warm bool) string {
	if err != nil {
		return "driver error: " + err.Error()
	}
	sum := sha256.Sum256(out)
	got := hex.EncodeToString(sum[:])
	want, pinned := pinnedDigests[name]
	if !pinned {
		want = b.genRef
	}
	if got != want {
		return fmt.Sprintf("rendered sha256 %s, want %s", got, want)
	}
	if warm {
		return d.warmFault()
	}
	return ""
}

// gcCPU reads the runtime's estimate of the CPU time spent in GC so far.
func gcCPU() time.Duration {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return time.Duration(s[0].Value.Float64() * float64(time.Second))
}

// fleet is a warm-fleet environment: in-process, memory-only
// daemon.Servers behind loopback HTTP and the FleetClient that routes
// over them, wired the way repro -remote wires it.
type fleet struct {
	replicas []*replica
	client   *daemon.FleetClient
	tap      tap
}

type replica struct {
	srv    *daemon.Server
	hs     *http.Server
	served chan error
}

// startFleet starts n replicas on loopback and a fleet client holding
// one connection per replica.
func startFleet(n int) (*fleet, error) {
	f := &fleet{}
	urls := make([]string, 0, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.close()
			return nil, fmt.Errorf("replica %d: %w", i, err)
		}
		srv := daemon.NewServer(daemon.Config{Parallelism: parallelism, MaxConcurrent: parallelism})
		r := &replica{srv: srv, hs: &http.Server{Handler: f.tap.handler(srv.Handler())}, served: make(chan error, 1)}
		go func() { r.served <- r.hs.Serve(ln) }()
		f.replicas = append(f.replicas, r)
		urls = append(urls, "http://"+ln.Addr().String())
	}
	client, err := daemon.NewFleetClient(urls)
	if err != nil {
		f.close()
		return nil, err
	}
	for i, c := range client.Clients() {
		base := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
		c.HTTP = &http.Client{Transport: &tapTransport{base: base, replica: i, tap: &f.tap}, Timeout: 2 * time.Minute}
	}
	f.client = client
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := client.WaitHealthy(ctx, 30*time.Second); err != nil {
		f.close()
		return nil, fmt.Errorf("fleet health: %w", err)
	}
	return f, nil
}

// bind attaches the fleet to a Context's Remote, RemoteBatch and
// RemoteSearch hooks with Degrade on, as repro -remote does; with tr set
// every hook call is timed and its routed points captured.
func (f *fleet) bind(ctx *experiments.Context, tr *passTrace) {
	f.tap.cur.Store(tr)
	bg := context.Background()
	fc := f.client
	ctx.Degrade = true
	ctx.Remote = func(w string, s int, fp string, pt sweep.Point) (*engine.Result, error) {
		if tr != nil {
			defer tr.span(&tr.hooks, time.Now())
			tr.route(w, s, fp, pt)
		}
		return fc.Run(bg, w, s, fp, pt)
	}
	ctx.RemoteBatch = func(w string, s int, fp string, pts []sweep.Point) ([]*engine.Result, error) {
		if tr != nil {
			defer tr.span(&tr.hooks, time.Now())
			for _, pt := range pts {
				tr.route(w, s, fp, pt)
			}
		}
		return fc.RunBatch(bg, w, s, fp, pts)
	}
	ctx.RemoteSearch = func(w string, s int, fp string, ps []machine.Params) ([]experiments.RatioAnswer, error) {
		if tr != nil {
			defer tr.span(&tr.hooks, time.Now())
		}
		return fc.RatioBatch(bg, w, s, fp, ps)
	}
}

// close stops every replica and waits for its Serve loop to return.
func (f *fleet) close() {
	for _, r := range f.replicas {
		r.hs.Close()
		if err := <-r.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "perfbench: replica: %v\n", err)
		}
	}
	if f.client != nil {
		for _, c := range f.client.Clients() {
			c.HTTP.CloseIdleConnections()
		}
	}
}
