// Command perfbench is the repository's benchmark: it times repeated
// passes over the paper's evaluation (Table 1, Figures 4-9 and one
// generated workload's ratio figure) cold into a fresh store, warm from
// a filled store, and warm from an in-process two-replica sweepd fleet,
// checks every pass's rendered bytes, and with -trace 1 splits a pass
// into the repository's layers. README.md documents the workloads, the
// metrics and how to read the traced run.
//
// perfbench is a module of its own that imports the program's internal
// packages through a replace directive. perfbench/run.py builds it and
// runs it from the repository root:
//
//	python3 perfbench/run.py -workload warm-store -seed 7 -seconds 10 -trace 0
//
// The last line of standard output is the result: one JSON object with
// the keys correct, attempted, failed and metrics. The line before it
// records provenance and sample counts.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// An end-to-end run sets its workload up at least minSetups times and
// until minSetupTime has been spent; setup_s is the median.
const (
	minSetups    = 3
	minSetupTime = 3 * time.Second
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// tally folds passes' render counts and failures into the result.
func (r *result) tally(ps []passResult, failures *[]string) {
	for _, p := range ps {
		r.Attempted += p.attempted
		r.Failed += p.failed
		*failures = append(*failures, p.failures...)
	}
}

func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	flags.SetOutput(stderr)
	workload := flags.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flags.Uint64("seed", 1, "seed of the generated workload spec:seed=<seed> rendered in every pass")
	seconds := flags.Float64("seconds", 15, "measuring time of the run, in seconds")
	traced := flags.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	dir := flags.String("dir", filepath.Join(".bench_build", "work"), "scratch directory for stores, removed at exit")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	known := false
	for _, w := range workloadNames {
		known = known || w == *workload
	}
	if !known || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: want -workload %s, -seconds > 0 and -trace 0 or 1\n", strings.Join(workloadNames, "|"))
		return 2
	}
	runtime.GOMAXPROCS(gomaxprocs)
	work := filepath.Join(*dir, fmt.Sprintf("%s-%d", *workload, os.Getpid()))
	defer os.RemoveAll(work)
	budget := time.Duration(*seconds * float64(time.Second))
	var res result
	var samples map[string]any
	var failures []string
	var err error
	if *traced == 0 {
		res, samples, failures, err = endToEnd(*workload, *seed, budget, work)
	} else {
		res, samples, failures, err = tracedRun(*workload, *seed, budget, work)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for i, f := range failures {
		if i == 10 {
			fmt.Fprintf(stderr, "perfbench: ... %d more failed renders\n", len(failures)-i)
			break
		}
		fmt.Fprintf(stderr, "perfbench: failed render: %s\n", f)
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	info := map[string]any{"provenance": provenance(*workload, *seed, *traced), "samples": samples}
	if err := writeJSONLine(stdout, info); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := writeJSONLine(stdout, res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

func writeJSONLine(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// endToEnd sets the workload up repeatedly (see minSetups) and reports
// the end-to-end metrics. The untraced passes are spread over the first
// minSetups environments, a third of the budget and at least one pass
// each, so a slow spell on a shared host lands on a share of the
// samples rather than on all of them.
func endToEnd(workload string, seed uint64, budget time.Duration, work string) (result, map[string]any, []string, error) {
	res := result{Metrics: map[string]metric{}}
	var failures []string
	var setups []float64
	var passes []passResult
	var b *bench
	var spent, measured time.Duration
	warm := workload != coldFill
	for i := 0; i < minSetups || spent < minSetupTime; i++ {
		if b != nil {
			b.close()
		}
		start := time.Now()
		nb, err := setup(workload, seed, filepath.Join(work, fmt.Sprintf("setup-%d", i)))
		if err != nil {
			return res, nil, nil, fmt.Errorf("set-up: %w", err)
		}
		took := time.Since(start)
		spent += took
		setups = append(setups, sec(took))
		b = nb
		res.tally(b.fills, &failures)
		runtime.GC()
		share := budget * time.Duration(min(i+1, minSetups)) / minSetups
		for n := 0; measured < share || (i < minSetups && n == 0); n++ {
			p, err := b.pass(nil, warm)
			if err != nil {
				b.close()
				return res, nil, nil, err
			}
			measured += p.wall
			passes = append(passes, p)
		}
	}
	defer b.close()
	// Two collections: the first moves sync.Pool contents to the victim
	// cache, the second frees them, so only data the run holds is live.
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	res.tally(passes, &failures)

	var wall, table1, fig7, alloc []float64
	digests := map[string]bool{}
	for _, p := range passes {
		wall = append(wall, sec(p.wall))
		table1 = append(table1, sec(p.table1))
		fig7 = append(fig7, sec(p.fig7))
		alloc = append(alloc, float64(p.allocBytes)/1e6)
		digests[p.digest] = true
	}
	res.set("setup_s", median(setups), "s")
	res.set("pass_s", median(wall), "s")
	res.set("table1_s", median(table1), "s")
	res.set("fig7_s", median(fig7), "s")
	res.set("alloc_mb_per_pass", median(alloc), "MB")
	res.set("heap_live_mb", float64(m.HeapAlloc)/1e6, "MB")
	samples := map[string]any{
		"setups":        len(setups),
		"setup_s":       setups,
		"passes":        len(passes),
		"pass_s_each":   wall,
		"fig7_s_each":   fig7,
		"pass_s_q1":     quantile(wall, 0.25),
		"pass_s_q3":     quantile(wall, 0.75),
		"pass_s_p90":    quantile(wall, 0.9),
		"pass_sha256":   sortedKeys(digests),
		"fail_frac":     failFrac(res),
		"render_checks": res.Attempted,
	}
	return res, samples, failures, nil
}

// tracedRun sets the workload up once, alternates untraced and traced
// passes for the budget, replays what the traced passes captured into
// the layers the benchmark cannot wrap, and reports per-layer metrics.
func tracedRun(workload string, seed uint64, budget time.Duration, work string) (result, map[string]any, []string, error) {
	res := result{Metrics: map[string]metric{}}
	var failures []string
	b, err := setup(workload, seed, filepath.Join(work, "setup-0"))
	if err != nil {
		return res, nil, nil, fmt.Errorf("set-up: %w", err)
	}
	defer b.close()
	res.tally(b.fills, &failures)
	runtime.GC()
	warm := workload != coldFill
	var plain, traced []passResult
	var traces []*passTrace
	start := time.Now()
	for len(traced) == 0 || time.Since(start) < budget {
		p, err := b.pass(nil, warm)
		if err != nil {
			return res, nil, nil, err
		}
		plain = append(plain, p)
		tr := &passTrace{}
		if p, err = b.pass(tr, warm); err != nil {
			return res, nil, nil, err
		}
		if n := len(traces); n > 0 {
			// Only the last pass's captures feed the replays.
			prev := traces[n-1]
			prev.reads, prev.writes, prev.routes = nil, nil, nil
			for i := range prev.requests {
				prev.requests[i].body = nil
			}
		}
		traced = append(traced, p)
		traces = append(traces, tr)
	}
	res.tally(plain, &failures)
	res.tally(traced, &failures)

	last := traces[len(traces)-1]
	rp := &replay{}
	if err := replayLowering(seed, rp); err != nil {
		return res, nil, nil, fmt.Errorf("lowering replay: %w", err)
	}
	if err := b.replayStore(last, rp); err != nil {
		return res, nil, nil, fmt.Errorf("store replay: %w", err)
	}
	if err := replayWire(last, rp); err != nil {
		return res, nil, nil, fmt.Errorf("wire replay: %w", err)
	}
	if b.fleet != nil {
		b.fleet.replayRing(last, rp)
	}
	if err := benchEngine(rp); err != nil {
		return res, nil, nil, fmt.Errorf("engine benchmark: %w", err)
	}

	perPass := map[string][]float64{}
	add := func(name string, v float64) { perPass[name] = append(perPass[name], v) }
	var clientMs, serverMs, plainWall []float64
	for _, p := range plain {
		plainWall = append(plainWall, sec(p.wall))
	}
	for i, p := range traced {
		tr := traces[i]
		a := attribute(p, tr, rp)
		wall := p.wall
		c := p.delta.cache
		add("trace.pass_s", sec(wall))
		add("experiments.render_ms", ms(a.render))
		add("workloads.build_ms", ms(a.build))
		add("lower.pass_ms", ms(a.lower))
		add("lower.fingerprint_ms", ms(a.fingerprint))
		add("store.pass_ms", ms(a.store))
		add("engine.est_ms", ms(a.engine))
		add("engine.est_share", float64(engineEstimate(p, rp))/float64(wall))
		add("fleet.scatter_ms", ms(a.fleet))
		add("http.transport_ms", ms(a.http))
		add("daemon.handler_ms", ms(a.daemon))
		add("trace.unattributed_ms", ms(a.unattributed))
		add("trace.replay_excess_frac", float64(a.excess)/float64(wall))
		add("trace.attributed_frac", float64(wall-a.unattributed)/float64(wall))
		add("runtime.gc_cpu_ms", ms(p.gcCPU))
		add("engine.sims", float64(c.Sims))
		add("metrics.sims_fig7", float64(p.fig7Cache.Sims))
		f7 := p.fig7Cache
		add("metrics.probes_fig7", float64(f7.L1Hits+f7.StoreHits+f7.RemoteHits+f7.Sims+f7.Degraded))
		add("sweep.l1_hits", float64(c.L1Hits))
		add("sweep.store_hits", float64(c.StoreHits))
		add("sweep.remote_hits", float64(c.RemoteHits))
		add("sweep.remote_searches", float64(c.RemoteSearches))
		served := c.L1Hits + c.StoreHits + c.RemoteHits + c.RemoteSearches
		add("sweep.served_frac", float64(served)/float64(served+c.Sims+c.Degraded))
		add("store.hits", float64(p.storeHits))
		add("store.writes", float64(p.storeWrites))
		add("store.bytes", float64(tr.storeBytes))
		var reqBytes, respBytes int64
		perReplica := make([]int, replicas)
		for _, rq := range tr.requests {
			reqBytes += rq.reqBytes
			respBytes += rq.respBytes
			perReplica[rq.replica]++
			clientMs = append(clientMs, ms(rq.span.end-rq.span.start))
		}
		for _, s := range tr.server {
			serverMs = append(serverMs, ms(s.end-s.start))
		}
		busiest := 0
		for _, n := range perReplica {
			busiest = max(busiest, n)
		}
		add("wire.req_bytes", float64(reqBytes))
		add("wire.resp_bytes", float64(respBytes))
		add("http.requests", float64(len(tr.requests)))
		add("http.admission_wait_ms", ms(tr.admission))
		add("fleet.busiest_share", ratio(busiest, len(tr.requests)))
		add("fleet.retries", float64(p.delta.fleet.Retries))
		add("fleet.unavailable", float64(p.delta.fleet.Unavailable))
		add("obsv.scrape_ms", ms(tr.scrape))
		add("obsv.series", float64(tr.series))
	}
	for name, vs := range perPass {
		res.set(name, median(vs), unitOf(name))
	}
	res.set("trace.overhead_frac", median(perPass["trace.pass_s"])/median(plainWall)-1, "ratio")
	res.set("http.client_ms_p50", quantile(clientMs, 0.5), "ms")
	res.set("http.client_ms_p90", quantile(clientMs, 0.9), "ms")
	res.set("http.server_ms_p50", quantile(serverMs, 0.5), "ms")
	res.set("http.server_ms_p90", quantile(serverMs, 0.9), "ms")
	res.set("store.get_us_p50", quantile(durs(rp.gets, us), 0.5), "us")
	res.set("store.get_us_p90", quantile(durs(rp.gets, us), 0.9), "us")
	res.set("store.put_us_p50", quantile(durs(rp.puts, us), 0.5), "us")
	res.set("store.put_us_p90", quantile(durs(rp.puts, us), 0.9), "us")
	res.set("wire.decode_us_p50", quantile(durs(rp.decodes, us), 0.5), "us")
	res.set("fleet.ring_owner_ns", rp.ownerNs, "ns")
	res.set("lower.suite_ms", median(durs(rp.suiteDurs, ms)), "ms")
	res.set("lower.allocs_per_suite", rp.allocsPerSuite, "count")
	res.set("lower.mb_per_suite", rp.bytesPerSuite/1e6, "MB")
	res.set("engine.mops", rp.mops, "Mops/s")
	res.set("engine.allocs_per_sim", rp.allocsPerSim, "count")
	res.set("fail_frac", failFrac(res), "ratio")
	samples := map[string]any{
		"traced_passes":    len(traced),
		"untraced_passes":  len(plain),
		"http_requests":    len(clientMs),
		"server_spans":     len(serverMs),
		"replayed_gets":    len(rp.gets),
		"replayed_puts":    len(rp.puts),
		"replayed_decodes": len(rp.decodes),
		"replayed_suites":  len(rp.suiteDurs),
		"engine_sims":      rp.engineSims,
		"engine_iters":     engineIters,
		"render_checks":    res.Attempted,
	}
	return res, samples, failures, nil
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func failFrac(r result) float64 { return ratio(r.Failed, r.Attempted) }

// unitOf gives the unit of a per-pass traced metric from its name.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_frac"), strings.HasSuffix(name, "_share"):
		return "ratio"
	case strings.HasSuffix(name, "bytes"):
		return "bytes"
	}
	return "count"
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// provenance records what a result was measured on and with.
func provenance(workload string, seed uint64, traced int) map[string]any {
	p := map[string]any{
		"workload":      workload,
		"seed":          seed,
		"trace":         traced,
		"cpu_model":     cpuModel(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"parallelism":   parallelism,
		"replicas":      replicas,
		"conns_per_rep": 1,
		"go_version":    runtime.Version(),
		"commit":        "unknown",
		"source_sha256": sourceDigest("."),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				p["commit"] = s.Value
			case "vcs.modified":
				p["commit_modified"] = s.Value
			}
		}
	}
	return p
}

// cpuModel reads the CPU model name from /proc/cpuinfo ("unknown" where
// there is none).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the program's Go sources and go.mod under root
// (the benchmark's own directory and hidden directories excluded), so a
// result names the code it measured even where there is no commit.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && name != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
