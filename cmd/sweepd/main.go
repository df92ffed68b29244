// Command sweepd serves simulations and sweeps from a long-lived
// daemon: one memoizing, single-flight runner per (workload, scale,
// partition policy) over a shared persistent result store, behind an
// HTTP/JSON API (DESIGN.md §10).
//
// Usage:
//
//	sweepd [-addr :8077] [-cache dir] [-par 0] [-max-concurrent 0]
//	       [-timeout 0] [-gc ""] [-gc-interval 10m] [-drain 30s]
//	       [-drain-grace 500ms] [-quiet] [-replica id] [-fleet url1,url2,...]
//	       [-metrics=true]
//
// Endpoints: POST /v1/batch/run (simulation points, each with its own
// target, in one round trip) and POST /v1/batch/search
// (equivalent-window ratio searches of Figures 7-9) — every simulation
// is a batch, one request per replica round trip for fleet clients —
// plus GET /v1/cache/stats, POST /v1/cache/gc,
// GET /healthz, and GET /metrics (Prometheus text exposition of the
// request, cache, store and admission-queue counters — DESIGN.md §15;
// disable with -metrics=false). -gc takes a sweep GC policy
// ("max-entries=N,max-bytes=N,max-age=DUR") enforced every -gc-interval
// in the background; /v1/cache/gc remains available on demand either
// way.
//
// As one replica of a fleet (DESIGN.md §11), give each daemon a unique
// -replica id and the full member list in -fleet — the same
// comma-separated URLs, spelled the same way, that clients pass to
// repro -remote. Both are advertised in /healthz so fleet clients can
// refuse a replica whose ring membership disagrees with theirs instead
// of silently splitting the keyspace.
//
// On SIGTERM or SIGINT the daemon drains gracefully in two steps:
// first it advertises "draining" — /healthz flips status and every new
// work request is refused with 503 plus the X-Sweepd-State header, so
// fleet clients reroute immediately and penalty-free (DESIGN.md §13) —
// for -drain-grace; then it stops accepting connections, lets in-flight
// requests finish for up to -drain, and exits with a final cache
// summary on stderr. Clients: repro -remote <url> routes a local
// reproduction's cacheable simulations here; examples/daemon shows the
// raw API.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"daesim/internal/daemon"
	"daesim/internal/sweep"
)

func main() {
	var (
		addr       = flag.String("addr", ":8077", "listen address")
		cacheDir   = flag.String("cache", "", "persistent result-cache directory (empty = memory only)")
		par        = flag.Int("par", 0, "max concurrent simulations per sweep, and max concurrent searches (0 = GOMAXPROCS)")
		maxConc    = flag.Int("max-concurrent", 0, "max simulation requests executing at once (0 = unlimited)")
		timeout    = flag.Duration("timeout", 0, "per-request timeout, queue wait included (0 = none)")
		gcSpec     = flag.String("gc", "", "background store GC policy, e.g. max-entries=5000,max-bytes=256mb,max-age=168h (empty = no background GC)")
		gcInterval = flag.Duration("gc-interval", 10*time.Minute, "background GC period (with -gc)")
		drain      = flag.Duration("drain", 30*time.Second, "graceful-shutdown drain budget for in-flight requests")
		drainGrace = flag.Duration("drain-grace", 500*time.Millisecond, "time to advertise draining (503 + header, reroutes fleet clients) before closing listeners")
		quiet      = flag.Bool("quiet", false, "suppress per-request logging")
		replica    = flag.String("replica", "", "this daemon's replica id within a fleet (advertised in /healthz; must be unique)")
		fleet      = flag.String("fleet", "", "comma-separated URLs of every fleet member, matching the clients' -remote list (advertised in /healthz for membership-skew checks)")
		metrics    = flag.Bool("metrics", true, "serve GET /metrics (Prometheus text exposition)")
	)
	flag.Parse()
	if err := run(*addr, *cacheDir, *par, *maxConc, *timeout, *gcSpec, *gcInterval, *drain, *drainGrace, *quiet, *replica, *fleet, *metrics); err != nil {
		fmt.Fprintf(os.Stderr, "sweepd: %v\n", err)
		os.Exit(1)
	}
}

func run(addr, cacheDir string, par, maxConc int, timeout time.Duration, gcSpec string, gcInterval, drain, drainGrace time.Duration, quiet bool, replica, fleet string, metrics bool) error {
	cfg := daemon.Config{
		Parallelism:    par,
		MaxConcurrent:  maxConc,
		RequestTimeout: timeout,
		GCInterval:     gcInterval,
		ReplicaID:      replica,
		DisableMetrics: !metrics,
	}
	if fleet != "" {
		for _, u := range strings.Split(fleet, ",") {
			if u = strings.TrimSpace(u); u != "" {
				cfg.Fleet = append(cfg.Fleet, u)
			}
		}
	}
	if !quiet {
		cfg.Log = log.New(os.Stderr, "sweepd: ", log.LstdFlags)
	}
	if cacheDir != "" {
		store, err := sweep.OpenStore(cacheDir)
		if err != nil {
			return err
		}
		cfg.Store = store
	}
	if gcSpec != "" {
		if cfg.Store == nil {
			return fmt.Errorf("-gc needs -cache")
		}
		pol, err := sweep.ParseGCPolicy(gcSpec)
		if err != nil {
			return err
		}
		cfg.GCPolicy = pol
	}

	server := daemon.NewServer(cfg)
	httpServer := &http.Server{
		Addr:              addr,
		Handler:           server.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// SIGTERM/SIGINT begin the graceful drain: stop accepting, let
	// in-flight sweeps finish (up to the drain budget), then report.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	go server.GCLoop(ctx)

	errc := make(chan error, 1)
	go func() {
		if err := httpServer.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()
	fmt.Fprintf(os.Stderr, "sweepd: listening on %s (cache %s)\n", addr, orNone(cacheDir))

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// Two-step drain: advertise first (new work gets 503 + the draining
	// header, /healthz flips, fleet clients reroute without charging a
	// failure), hold the listeners open for the grace window so clients
	// actually observe the advertisement, then close them and wait out
	// the in-flight requests.
	fmt.Fprintln(os.Stderr, "sweepd: draining...")
	server.BeginDrain()
	if drainGrace > 0 {
		time.Sleep(drainGrace)
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	err := httpServer.Shutdown(shutdownCtx)
	stats := server.Stats()
	fmt.Fprintf(os.Stderr, "sweepd: served %d requests (%d received, %d refused, %d queue timeouts): %d sims, %d L1 hits, %d store hits (hit rate %.1f%%); store: %d writes, %d GC evictions\n",
		stats.Requests, stats.Received, stats.Refused, stats.QueueTimeouts,
		stats.Runner.Sims, stats.Runner.L1Hits, stats.Runner.StoreHits,
		100*stats.HitRate, stats.Store.Writes, stats.Store.GCEvictions)
	if err != nil {
		return fmt.Errorf("drain incomplete after %s: %w", drain, err)
	}
	return nil
}

func orNone(s string) string {
	if s == "" {
		return "(none)"
	}
	return s
}
