// Package faultinject is a deterministic, schedule-driven fault layer
// for chaos-testing the daemon transport and the sweep.Store blob I/O.
//
// A Schedule is a seed plus a list of Rules; whether the i-th operation
// on a scope (one HTTP request to replica "r1", one blob read in scope
// "store") is faulted — and how — is a pure function of (seed, rules,
// scope, i). Nothing reads the clock or a global RNG, so the same seed
// replays the identical fault sequence on every run and on every host:
// that is what lets the chaos soak assert byte-identical figures and a
// reproducible request trace (DESIGN.md §13), and what keeps daelint's
// determinism analyzer clean over this package.
//
// The injectable faults cover the failure taxonomy the fleet client is
// hardened against: connection refusals, timeouts, slow responses
// (virtual delay), truncated and corrupted bodies, synthesized 5xx
// bursts, and blob corruption.
package faultinject

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"time"
)

// Kind identifies one fault class.
type Kind uint8

const (
	// None means the operation proceeds untouched.
	None Kind = iota
	// Refuse fails the operation before any wire traffic, like a
	// connection refused by a dead replica.
	Refuse
	// Timeout fails the operation with a net.Error whose Timeout() is
	// true — a virtual client-side deadline, no wall clock burned.
	Timeout
	// Slow delays the operation by the rule's Delay, then lets it
	// proceed (tail-latency injection).
	Slow
	// Truncate lets the operation complete, then cuts its payload short
	// at a seed-determined position.
	Truncate
	// Corrupt lets the operation complete, then overwrites one
	// seed-determined payload byte with 0x00 — a byte that is invalid
	// anywhere in JSON, so damage is always detectable at decode time
	// rather than silently surviving inside a string.
	Corrupt
	// ServerError synthesizes an HTTP 503 without touching the wire.
	ServerError
)

// kindNames maps spec tokens to kinds; String and ParseSchedule share
// it so the grammar and the trace agree.
var kindNames = []struct {
	kind Kind
	name string
}{
	{None, "none"},
	{Refuse, "refuse"},
	{Timeout, "timeout"},
	{Slow, "slow"},
	{Truncate, "trunc"},
	{Corrupt, "corrupt"},
	{ServerError, "5xx"},
}

func (k Kind) String() string {
	for _, kn := range kindNames {
		if kn.kind == k {
			return kn.name
		}
	}
	return "kind(" + strconv.Itoa(int(k)) + ")"
}

func parseKind(s string) (Kind, bool) {
	for _, kn := range kindNames {
		if kn.name == s && kn.kind != None {
			return kn.kind, true
		}
	}
	return None, false
}

// Rule matches a subset of operations and names the fault to inject.
// The zero values of the selectors are permissive: an empty Scope
// matches every scope, To=0 means no upper bound, Period=0 disables
// duty-cycling, and Rate 0 is promoted to 1 (always, within the other
// selectors) by ParseSchedule.
type Rule struct {
	Kind Kind
	// Scope restricts the rule to one operation stream ("r0".."rN-1"
	// for replica transports, "store" for blob I/O); empty matches all.
	Scope string
	// Rate is the per-operation fault probability in (0,1]; draws come
	// from the schedule seed, not a global RNG.
	Rate float64
	// From and To bound the matched per-scope indices to [From,To);
	// To=0 means unbounded. From=K models a replica dying after its
	// K-th request; From/To windows model bursts.
	From, To uint64
	// Period and Duty duty-cycle the rule: indices with
	// i%Period < Duty match. A flapping replica is period=6,duty=3.
	Period, Duty uint64
	// Delay is the virtual latency for Slow rules.
	Delay time.Duration
}

// applies reports whether the rule's selectors match the index-th
// operation on scope (rate is drawn separately, in Schedule.Decide).
func (r Rule) applies(scope string, index uint64) bool {
	if r.Scope != "" && r.Scope != scope {
		return false
	}
	if index < r.From {
		return false
	}
	if r.To > 0 && index >= r.To {
		return false
	}
	if r.Period > 0 && index%r.Period >= r.Duty {
		return false
	}
	return true
}

// Schedule is a replayable fault plan: Decide is a pure function of
// the seed, the rules, and the (scope, index) coordinate of an
// operation.
type Schedule struct {
	Seed  uint64
	Rules []Rule
}

// Decision is the fault verdict for one operation. Roll carries
// seed-determined entropy for the fault's free parameters (corruption
// position, truncation length) so they replay too.
type Decision struct {
	Kind  Kind
	Delay time.Duration
	Roll  uint64
}

// Decide returns the fault for the index-th operation on scope. Rules
// are consulted in order; the first match wins.
func (s Schedule) Decide(scope string, index uint64) Decision {
	for ri, r := range s.Rules {
		if !r.applies(scope, index) {
			continue
		}
		roll := mix(s.Seed, uint64(ri), scopeHash(scope), index)
		if r.Rate < 1 && unit(roll) >= r.Rate {
			continue
		}
		// A second mix decorrelates the fault's free parameters from the
		// rate draw.
		return Decision{Kind: r.Kind, Delay: r.Delay, Roll: mix(roll, 0x9e3779b97f4a7c15, 0, 0)}
	}
	return Decision{}
}

// mix folds the coordinates through splitmix64 — a fast, well-mixed
// hash whose output is a pure function of its inputs.
func mix(a, b, c, d uint64) uint64 {
	x := a
	for _, v := range [...]uint64{b, c, d} {
		x += 0x9e3779b97f4a7c15 + v
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x ^= x >> 31
	}
	return x
}

// unit maps a hash to [0,1) using its top 53 bits.
func unit(x uint64) float64 {
	return float64(x>>11) / (1 << 53)
}

func scopeHash(scope string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(scope))
	return h.Sum64()
}

// ParseSchedule parses the -chaos spec grammar: comma-separated fields,
// one "seed=N" plus zero or more rules of the form
//
//	KIND[@SCOPE][:k=v]...
//
// where KIND is refuse|timeout|slow|trunc|corrupt|5xx and k=v tunes
// rate= (float in (0,1], default 1), from=, to= (per-scope index
// window, half-open), period=, duty= (duty cycle), delay= (Go
// duration, slow only). Examples:
//
//	seed=1,timeout:rate=0.1,5xx:rate=0.1      — 10% timeouts and 503s everywhere
//	seed=2,refuse@r2:from=5                   — replica 2 dies after its 5th request
//	seed=3,refuse@r1:period=6:duty=3          — replica 1 flaps, 3 down of every 6
//	seed=4,slow:rate=0.3:delay=200ms          — 30% of operations take +200ms
func ParseSchedule(spec string) (Schedule, error) {
	var s Schedule
	seenSeed := false
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(field, "seed="); ok {
			n, err := strconv.ParseUint(rest, 10, 64)
			if err != nil {
				return Schedule{}, fmt.Errorf("faultinject: bad seed %q: %w", rest, err)
			}
			s.Seed, seenSeed = n, true
			continue
		}
		r, err := parseRule(field)
		if err != nil {
			return Schedule{}, err
		}
		s.Rules = append(s.Rules, r)
	}
	if !seenSeed {
		return Schedule{}, fmt.Errorf("faultinject: spec %q has no seed= field", spec)
	}
	return s, nil
}

func parseRule(field string) (Rule, error) {
	parts := strings.Split(field, ":")
	head := parts[0]
	r := Rule{Rate: 1}
	if at := strings.IndexByte(head, '@'); at >= 0 {
		r.Scope = head[at+1:]
		head = head[:at]
	}
	k, ok := parseKind(head)
	if !ok {
		return Rule{}, fmt.Errorf("faultinject: unknown fault kind %q in %q", head, field)
	}
	r.Kind = k
	for _, kv := range parts[1:] {
		key, val, found := strings.Cut(kv, "=")
		if !found {
			return Rule{}, fmt.Errorf("faultinject: bad option %q in %q (want k=v)", kv, field)
		}
		switch key {
		case "rate":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || f <= 0 || f > 1 {
				return Rule{}, fmt.Errorf("faultinject: rate %q in %q must be in (0,1]", val, field)
			}
			r.Rate = f
		case "from", "to", "period", "duty":
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return Rule{}, fmt.Errorf("faultinject: bad %s %q in %q: %w", key, val, field, err)
			}
			switch key {
			case "from":
				r.From = n
			case "to":
				r.To = n
			case "period":
				r.Period = n
			case "duty":
				r.Duty = n
			}
		case "delay":
			d, err := time.ParseDuration(val)
			if err != nil || d < 0 {
				return Rule{}, fmt.Errorf("faultinject: bad delay %q in %q", val, field)
			}
			r.Delay = d
		default:
			return Rule{}, fmt.Errorf("faultinject: unknown option %q in %q", key, field)
		}
	}
	if r.Kind == Slow && r.Delay == 0 {
		return Rule{}, fmt.Errorf("faultinject: slow rule %q needs delay=", field)
	}
	if r.Period > 0 && r.Duty == 0 {
		return Rule{}, fmt.Errorf("faultinject: rule %q has period= but duty=0 (never matches)", field)
	}
	return r, nil
}
