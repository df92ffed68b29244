// Package daemon implements sweepd, the long-lived simulation service:
// the HTTP/JSON wire protocol shared by server and client, the Server
// that owns per-workload memoizing runners (single-flight L1) over one
// shared persistent sweep.Store (L2), and the clients that let a local
// sweep — repro -remote, or any sweep.Runner with its RemoteBatch hook
// set — route cacheable simulations through running daemons instead of
// simulating locally.
//
// Every simulation is a batch. Endpoints (DESIGN.md §10 documents the
// full schemas):
//
//	POST /v1/batch/run    run requests (own targets) in one round trip
//	POST /v1/batch/search equivalent-window ratio searches, run through metrics.Ratios
//	GET  /v1/cache/stats  runner + store cache counters
//	POST /v1/cache/gc     trim the persistent store to given bounds
//	GET  /healthz         liveness (never throttled by the request limit)
//
// A search item is {target, params} and its answer {ratio, ok}: the
// daemon runs the same metrics.Ratios fan-out that renders Figures 7-9
// locally, so a remote figure equals a local one by construction. Both
// batch endpoints validate every item before anything simulates, and
// refuse with 400 what the model would reject — a ratio search with a
// DM window below 1, or params the simulator's config validation
// refuses — so a bad request is never retried as a replica failure.
//
// Fleet mode shards keys across several daemons with the consistent-hash
// Ring and FleetClient (DESIGN.md §11).
package daemon

import (
	"fmt"

	"daesim/internal/engine"
	"daesim/internal/machine"
	"daesim/internal/partition"
	"daesim/internal/sweep"
)

// Params is the wire form of machine.Params. Every simulation-visible
// field crosses the wire explicitly except Mem: a custom MemModel is
// arbitrary local code with no serialized identity, so points carrying
// one are not remotable (they are also the points sweep.Runner never
// routes through its RemoteBatch hook). TestWireParamsCoverMachineParams
// pins the field count against machine.Params, so adding a parameter
// without extending the protocol fails the build gate.
type Params struct {
	Window        int    `json:"window,omitempty"`
	AUWindow      int    `json:"au_window,omitempty"`
	DUWindow      int    `json:"du_window,omitempty"`
	MD            int    `json:"md,omitempty"`
	FPLat         int    `json:"fp_lat,omitempty"`
	CopyLat       int    `json:"copy_lat,omitempty"`
	AUWidth       int    `json:"au_width,omitempty"`
	DUWidth       int    `json:"du_width,omitempty"`
	Width         int    `json:"width,omitempty"`
	DispatchWidth int    `json:"dispatch_width,omitempty"`
	MemQueue      int    `json:"mem_queue,omitempty"`
	CollectESW    bool   `json:"collect_esw,omitempty"`
	HoldSendSlots bool   `json:"hold_send_slots,omitempty"`
	Retire        string `json:"retire,omitempty"` // "", "auto", "at-complete", "in-order"
}

// ToParams converts machine parameters to their wire form. It fails on
// points carrying a custom Params.Mem (not remotable, see Params).
func ToParams(p machine.Params) (Params, error) {
	if p.Mem != nil {
		return Params{}, fmt.Errorf("daemon: points with a custom memory model cannot be simulated remotely")
	}
	retire := ""
	if p.Retire != machine.RetireAuto {
		retire = p.Retire.String()
	}
	return Params{
		Window: p.Window, AUWindow: p.AUWindow, DUWindow: p.DUWindow,
		MD: p.MD, FPLat: p.FPLat, CopyLat: p.CopyLat,
		AUWidth: p.AUWidth, DUWidth: p.DUWidth, Width: p.Width,
		DispatchWidth: p.DispatchWidth, MemQueue: p.MemQueue,
		CollectESW: p.CollectESW, HoldSendSlots: p.HoldSendSlots,
		Retire: retire,
	}, nil
}

// Machine converts wire parameters back to machine.Params.
func (w Params) Machine() (machine.Params, error) {
	p := machine.Params{
		Window: w.Window, AUWindow: w.AUWindow, DUWindow: w.DUWindow,
		MD: w.MD, FPLat: w.FPLat, CopyLat: w.CopyLat,
		AUWidth: w.AUWidth, DUWidth: w.DUWidth, Width: w.Width,
		DispatchWidth: w.DispatchWidth, MemQueue: w.MemQueue,
		CollectESW: w.CollectESW, HoldSendSlots: w.HoldSendSlots,
	}
	switch w.Retire {
	case "", "auto":
		p.Retire = machine.RetireAuto
	case "at-complete":
		p.Retire = machine.RetireAtComplete
	case "in-order":
		p.Retire = machine.RetireInOrder
	default:
		return p, fmt.Errorf("daemon: unknown retire policy %q (want auto, at-complete, in-order)", w.Retire)
	}
	return p, nil
}

// Point is the wire form of sweep.Point.
type Point struct {
	Kind   string `json:"kind"` // "DM" or "SWSM"
	Params Params `json:"params"`
}

// ToPoint converts a sweep point to its wire form.
func ToPoint(pt sweep.Point) (Point, error) {
	wp, err := ToParams(pt.P)
	if err != nil {
		return Point{}, err
	}
	return Point{Kind: pt.Kind.String(), Params: wp}, nil
}

// Sweep converts a wire point back to a sweep.Point.
func (w Point) Sweep() (sweep.Point, error) {
	kind, err := ParseKind(w.Kind)
	if err != nil {
		return sweep.Point{}, err
	}
	p, err := w.Params.Machine()
	if err != nil {
		return sweep.Point{}, err
	}
	return sweep.Point{Kind: kind, P: p}, nil
}

// ParseKind parses a machine kind name as printed by machine.Kind.String.
func ParseKind(s string) (machine.Kind, error) {
	switch s {
	case "DM":
		return machine.DM, nil
	case "SWSM":
		return machine.SWSM, nil
	default:
		return 0, fmt.Errorf("daemon: unknown machine kind %q (want DM or SWSM)", s)
	}
}

// ParsePolicy parses a partition policy name as printed by
// partition.Policy.String; empty means the default classic partition.
func ParsePolicy(s string) (partition.Policy, error) {
	switch s {
	case "", "classic":
		return partition.Classic, nil
	case "slice-only":
		return partition.SliceOnly, nil
	case "balance":
		return partition.Balance, nil
	default:
		return 0, fmt.Errorf("daemon: unknown partition policy %q (want classic, slice-only, balance)", s)
	}
}

// Target identifies the suite a request runs against: a workload at a
// scale under a partition policy. The zero values mean scale 1 and the
// classic partition.
//
// EngineVersion and Fingerprint, when set, make the daemon refuse
// (HTTP 409) to answer from a skewed build: a daemon left running
// across an engine-semantics bump or a workload recalibration would
// otherwise return results the client's own cache keys could never
// produce — and the client would install them into its local store
// under its own version key, poisoning exactly the entries the §9 key
// scheme exists to invalidate. FleetClient always sends its linked
// engine.Version and the local suite's content fingerprint.
type Target struct {
	Workload string `json:"workload"`
	Scale    int    `json:"scale,omitempty"`
	Policy   string `json:"policy,omitempty"`
	// EngineVersion, when non-empty, must equal the daemon's
	// engine.Version.
	EngineVersion string `json:"engine_version,omitempty"`
	// Fingerprint, when non-empty, must equal the daemon suite's
	// machine.Suite.Fingerprint().
	Fingerprint string `json:"fingerprint,omitempty"`
}

// RunRequest is one /v1/batch/run item: one simulation point against
// its own target.
type RunRequest struct {
	Target
	Point
}

// SearchRequest is one /v1/batch/search item: the equivalent-window
// ratio search of Figures 7-9 (metrics.Search.EquivalentWindowRatio)
// against one suite, probed through the daemon's shared cache.
type SearchRequest struct {
	Target
	// Params configures the search. Params.Window is the DM window and
	// must be at least 1; params the simulator would refuse on either
	// machine are refused with 400 before anything simulates.
	Params Params `json:"params"`
}

// SearchResponse answers one SearchRequest: the equivalent SWSM window
// over the DM window. OK is false when the search saturated (no window
// within metrics.MaxEquivalentWindow matches the DM).
type SearchResponse struct {
	Ratio float64 `json:"ratio,omitempty"`
	OK    bool    `json:"ok"`
}

// MaxBatchItems caps the item count of /v1/batch/run and
// /v1/batch/search requests. Larger batches are refused with 400 — a
// probe wave or sweep shard legitimately reaches a few thousand points,
// but an unbounded batch is indistinguishable from a decoder bomb (the
// body size limit alone would still admit millions of tiny items).
const MaxBatchItems = 4096

// BatchRunRequest is the POST /v1/batch/run body: up to MaxBatchItems
// independent run requests answered in one round trip. Items carry
// their own targets, so one request may span workloads and scales —
// a fleet replica receives whatever slice of a cross-workload sweep
// (Table1's global point list, a search's probe wave) the ring routed
// to it, batched by the client into a single round trip.
type BatchRunRequest struct {
	Items []RunRequest `json:"items"`
}

// BatchRunResponse is the POST /v1/batch/run reply; Results[i] answers
// Items[i]. The batch is all-or-nothing: any invalid item fails the
// whole request (400/409) before anything simulates.
type BatchRunResponse struct {
	Results []*engine.Result `json:"results"`
}

// BatchSearchRequest is the POST /v1/batch/search body: up to
// MaxBatchItems ratio searches executed server-side through
// metrics.Ratios, answered in one round trip.
type BatchSearchRequest struct {
	Items []SearchRequest `json:"items"`
}

// BatchSearchResponse is the POST /v1/batch/search reply; Results[i]
// answers Items[i].
type BatchSearchResponse struct {
	Results []SearchResponse `json:"results"`
}

// GCRequest is the POST /v1/cache/gc body; zero fields are unbounded,
// matching sweep.GCPolicy. MaxAge uses time.Duration syntax ("24h").
type GCRequest struct {
	MaxEntries int    `json:"max_entries,omitempty"`
	MaxBytes   int64  `json:"max_bytes,omitempty"`
	MaxAge     string `json:"max_age,omitempty"`
}

// StatsResponse is the GET /v1/cache/stats reply.
type StatsResponse struct {
	// Runner aggregates cache traffic across every runner the daemon has
	// built; HitRate is its composite hit rate.
	Runner  sweep.CacheStats `json:"runner"`
	HitRate float64          `json:"hit_rate"`
	// Store is the persistent layer's counters and StoreEntries its
	// current on-disk entry count (zero values when no store is attached).
	Store        sweep.StoreStats `json:"store"`
	StoreEntries int              `json:"store_entries"`
	// UptimeSeconds and the request counters describe the serving
	// process. Requests counts admitted work — simulation requests that
	// made it past the draining gate and the admission semaphore (the
	// number the CI smokes assert on); Received counts every arrival at
	// a throttled endpoint, Refused the draining 503s, and QueueTimeouts
	// the requests whose deadline expired while queued for a slot, so
	// Received = Requests + Refused + QueueTimeouts + currently queued.
	UptimeSeconds float64 `json:"uptime_seconds"`
	Requests      int64   `json:"requests"`
	Received      int64   `json:"received"`
	Refused       int64   `json:"refused"`
	QueueTimeouts int64   `json:"queue_timeouts"`
}

// DrainingHeader marks 503 refusals from a daemon in graceful
// shutdown (Server.BeginDrain); DrainingValue is both its value and
// the /healthz status of a draining daemon. Fleet clients treat the
// marker as "stop routing here, nothing is wrong": the work reroutes
// without a breaker penalty or a backoff round, because a clean drain
// is operational hygiene, not a failure.
const (
	DrainingHeader = "X-Sweepd-State"
	DrainingValue  = "draining"
)

// HealthResponse is the GET /healthz reply. Status is "ok", or
// "draining" while the daemon winds down (routable probes should treat
// draining as not-ready). EngineVersion lets clients and probes detect
// a version-skewed daemon before routing work to it (Client.Health
// checks it). ReplicaID and Fleet, set when sweepd runs with
// -replica/-fleet, advertise the daemon's view of the ring so a fleet
// client can detect membership skew — a client and a replica
// disagreeing on the member list would route keys to different owners,
// silently splitting the cache — before any work routes (checked by
// FleetClient.Health).
type HealthResponse struct {
	Status        string   `json:"status"`
	EngineVersion string   `json:"engine_version"`
	UptimeSeconds float64  `json:"uptime_seconds"`
	ReplicaID     string   `json:"replica_id,omitempty"`
	Fleet         []string `json:"fleet,omitempty"`
}

// ErrorResponse is the body of every non-2xx reply.
type ErrorResponse struct {
	Error string `json:"error"`
}
