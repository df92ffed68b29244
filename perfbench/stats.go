package main

import (
	"sort"
	"time"
)

// median returns the median of xs (0 for an empty slice).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// interval is one timed call, as offsets from a common origin.
type interval struct{ start, end time.Duration }

// unionLen is the wall time covered by at least one interval.
func unionLen(iv []interval) time.Duration {
	if len(iv) == 0 {
		return 0
	}
	s := append([]interval(nil), iv...)
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	var total time.Duration
	cur := s[0]
	for _, x := range s[1:] {
		if x.start > cur.end {
			total += cur.end - cur.start
			cur = x
			continue
		}
		if x.end > cur.end {
			cur.end = x.end
		}
	}
	return total + cur.end - cur.start
}

// fairShares splits the wall time covered by concurrent intervals among
// them: each elementary slice of time is divided equally between the
// intervals active in it. The shares sum to unionLen(iv), so a replay
// run on several workers yields per-call wall shares that add up to the
// replay's wall time instead of over-counting overlapped calls.
func fairShares(iv []interval) []time.Duration {
	type edge struct {
		at    time.Duration
		i     int
		start bool
	}
	edges := make([]edge, 0, 2*len(iv))
	for i, x := range iv {
		edges = append(edges, edge{x.start, i, true}, edge{x.end, i, false})
	}
	sort.Slice(edges, func(a, b int) bool {
		if edges[a].at != edges[b].at {
			return edges[a].at < edges[b].at
		}
		return !edges[a].start && edges[b].start // close before open at a tie
	})
	shares := make([]time.Duration, len(iv))
	active := map[int]bool{}
	var last time.Duration
	for _, e := range edges {
		if n := len(active); n > 0 && e.at > last {
			per := (e.at - last) / time.Duration(n)
			for i := range active {
				shares[i] += per
			}
		}
		last = e.at
		if e.start {
			active[e.i] = true
		} else {
			delete(active, e.i)
		}
	}
	return shares
}

// ms, us and sec convert durations to the units metrics report in.
func ms(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64  { return float64(d) / float64(time.Microsecond) }
func sec(d time.Duration) float64 { return d.Seconds() }

// durs converts durations to float64 values in the given unit.
func durs(ds []time.Duration, unit func(time.Duration) float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = unit(d)
	}
	return out
}
