package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"

	"vnfguard/internal/ias"
	"vnfguard/internal/obs"
	"vnfguard/internal/simtime"
)

// dist holds every sample of one timing, sorted. The benchmark keeps its
// own samples instead of metrics.Histogram, which keeps only the first
// MaxSamples and so would drop the tail of a long northbound run.
type dist []time.Duration

func newDist(samples []time.Duration) dist {
	d := slices.Clone(samples)
	slices.Sort(d)
	return d
}

// pct returns the nearest-rank p-quantile, or 0 for no samples.
func (d dist) pct(p float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(d)))) - 1
	return d[max(i, 0)]
}

// enough reports whether the p-quantile has at least ten samples beyond
// it, the least a reported percentile may rest on.
func (d dist) enough(p float64) bool { return float64(len(d))*(1-p) >= 10 }

// Rates are read over windows of a phase, so that a stall of the shared
// machine in one window does not move the median; a window must hold at
// least minWindowOps operations, or the rate is read over the whole phase.
const (
	rateWindows  = 10
	minWindowOps = 100
)

// rate is the phase's completed operations per second: the median of the
// rates of equal windows, and how many windows it was read over.
func (p *phase) rate() (float64, int) {
	span := p.end.Sub(p.start)
	k := min(rateWindows, len(p.done)/minWindowOps)
	if k <= 1 || span <= 0 {
		return ratio(float64(len(p.done)), span.Seconds()), 1
	}
	counts := make([]int64, k)
	for _, t := range p.done {
		i := int(int64(t.Sub(p.start)) * int64(k) / int64(span))
		counts[min(max(i, 0), k-1)]++
	}
	win := (span / time.Duration(k)).Seconds()
	return median(counts) / win, k
}

// median sorts v and returns its median, or 0 for no values.
func median(v []int64) float64 {
	n := len(v)
	if n == 0 {
		return 0
	}
	slices.Sort(v)
	return float64(v[(n-1)/2]+v[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// reading is a point-in-time copy of every counter a phase differences:
// modeled hardware charges, the obs registry, IAS reports, process CPU
// and the Go allocator.
type reading struct {
	at       time.Time
	sim      map[string]simtime.OpStats
	obs      map[string]any
	reports  int64
	cpu      time.Duration
	allocs   uint64
	heapLive uint64
}

func read(model *simtime.CostModel, iasSvc *ias.Service) reading {
	var ru syscall.Rusage
	// Getrusage fails only for an invalid "who" argument.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	rm := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/live:bytes"}}
	metrics.Read(rm)
	return reading{
		at:       time.Now(),
		sim:      model.Snapshot(),
		obs:      obs.Default().Snapshot(),
		reports:  iasSvc.Reports(),
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs:   rm[0].Value.Uint64(),
		heapLive: rm[1].Value.Uint64(),
	}
}

// delta is the change between two readings.
type delta struct{ a, b reading }

func (d delta) simCount(op simtime.Op) float64 {
	return float64(d.b.sim[op.String()].Count - d.a.sim[op.String()].Count)
}

func (d delta) simTotal(op simtime.Op) time.Duration {
	return d.b.sim[op.String()].Total - d.a.sim[op.String()].Total
}

// obsValue reads a counter or gauge from an obs snapshot.
func obsValue(snap map[string]any, key string) float64 {
	switch v := snap[key].(type) {
	case uint64:
		return float64(v)
	case int64:
		return float64(v)
	}
	return 0
}

func (d delta) counter(key string) float64 { return obsValue(d.b.obs, key) - obsValue(d.a.obs, key) }

// histogram returns the change in an obs histogram's count and sum.
func (d delta) histogram(key string) (count float64, sum time.Duration) {
	get := func(snap map[string]any) (float64, float64) {
		h, ok := snap[key].(map[string]any)
		if !ok {
			return 0, 0
		}
		return float64(h["count"].(uint64)), h["sum_seconds"].(float64)
	}
	c0, s0 := get(d.a.obs)
	c1, s1 := get(d.b.obs)
	return c1 - c0, time.Duration((s1 - s0) * float64(time.Second))
}

// meanPhaseMS is the mean duration per commit of one log commit phase.
func (d delta) meanPhaseMS(phase string) float64 {
	n, sum := d.histogram(fmt.Sprintf("translog_cycle_phase_seconds{phase=%q}", phase))
	return ratio(ms(sum), n)
}

// ratio is num/den, or 0 when den is 0 (a workload without that
// operation).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
