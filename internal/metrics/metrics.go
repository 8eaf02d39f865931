// Package metrics is the simulated-time telemetry subsystem: a registry of
// counters, gauges, and log-bucketed histograms sampled by kernel-driven
// probes, plus a per-task latency attribution record that decomposes every
// completed node's end-to-end latency into scheduling wait, DMA queueing
// (contention stall vs. pure transfer), compute, and writeback.
//
// The registry follows the same nil-receiver pattern as trace.Recorder: a
// nil *Registry is a valid, zero-cost no-op, so the manager's hot path pays
// a single pointer test when telemetry is off. Producers register
// func-backed metrics (the probe reads live simulator state) or push
// samples into histograms; exports (export.go) render the collected state
// as a CSV time series, a relief-metrics/1 JSON summary, or Prometheus
// text exposition.
//
// See docs/OBSERVABILITY.md for the metric catalogue and the trace-vs-
// metrics division of labour.
package metrics

import (
	"fmt"
	"sort"

	"relief/internal/sim"
)

// DefaultProbeInterval is the probe sampling period used when none is
// configured.
const DefaultProbeInterval = 50 * sim.Microsecond

// metric is one registered counter or gauge, read from fn at sample and
// export time.
type metric struct {
	name    string
	help    string
	counter bool // Prometheus TYPE: counter vs gauge
	fn      func() float64
}

// Registry holds the metric set of one simulation, the probe time series,
// and the latency attribution sums. All methods are no-ops on a nil
// receiver; a single registry serves a single simulation (no locking).
type Registry struct {
	policy string

	metrics     []*metric
	byName      map[string]*metric
	hists       []*Histogram
	histByName  map[string]*Histogram
	bhists      []*BucketHistogram
	bhistByName map[string]*BucketHistogram

	// Probe time series: cols is the column snapshot taken at the first
	// sample, rows one value slice per probe tick.
	interval sim.Time
	cols     []*metric
	times    []sim.Time
	rows     [][]float64

	attr Attribution

	// Cached attribution-fed histograms (created on first observation).
	hNodeLatency *Histogram
	hSchedWait   *Histogram
	hNodeStall   *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		byName:      make(map[string]*metric),
		histByName:  make(map[string]*Histogram),
		bhistByName: make(map[string]*BucketHistogram),
	}
}

// Enabled reports whether telemetry is being collected. Producers gate
// sample construction that is itself costly (formatted labels, per-transfer
// arithmetic) on this, mirroring trace.Recorder.Enabled.
func (r *Registry) Enabled() bool { return r != nil }

// SetPolicy labels the registry (and its attribution record) with the
// scheduling policy that produced it.
func (r *Registry) SetPolicy(name string) {
	if r == nil {
		return
	}
	r.policy = name
	r.attr.Policy = name
}

// Policy returns the label set by SetPolicy.
func (r *Registry) Policy() string {
	if r == nil {
		return ""
	}
	return r.policy
}

// register adds a counter/gauge metric under name; re-registering a name
// keeps the first registration. Re-registering a counter as a gauge (or
// the reverse) is a programmer error.
func (r *Registry) register(name, help string, counter bool, fn func() float64) {
	if m, ok := r.byName[name]; ok {
		if m.counter != counter {
			panic(fmt.Sprintf("metrics: %s re-registered with a different shape", name))
		}
		return
	}
	m := &metric{name: name, help: help, counter: counter, fn: fn}
	r.metrics = append(r.metrics, m)
	r.byName[name] = m
}

// CounterFunc registers a cumulative metric read from fn at sample and
// export time.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.register(name, help, true, fn)
}

// GaugeFunc registers an instantaneous metric read from fn at sample and
// export time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.register(name, help, false, fn)
}

// Histogram registers (or fetches) a log-bucketed histogram.
func (r *Registry) Histogram(name, help string) *Histogram {
	if r == nil {
		return nil
	}
	if h, ok := r.histByName[name]; ok {
		return h
	}
	h := &Histogram{name: name, help: help}
	r.hists = append(r.hists, h)
	r.histByName[name] = h
	return h
}

// BucketHistogram registers (or fetches) an explicit-bounds histogram
// exported in Prometheus TYPE histogram form (export only: it never
// appears in the JSON/CSV documents, so golden digests are unaffected).
// bounds must be sorted ascending; a +Inf overflow bucket is implicit.
// Re-registering a name with different bounds is a programmer error.
func (r *Registry) BucketHistogram(name, help string, bounds []float64) *BucketHistogram {
	if r == nil {
		return nil
	}
	if h, ok := r.bhistByName[name]; ok {
		if len(h.bounds) != len(bounds) {
			panic(fmt.Sprintf("metrics: %s re-registered with different bounds", name))
		}
		for i := range bounds {
			if h.bounds[i] != bounds[i] {
				panic(fmt.Sprintf("metrics: %s re-registered with different bounds", name))
			}
		}
		return h
	}
	if !sort.Float64sAreSorted(bounds) {
		panic(fmt.Sprintf("metrics: %s bucket bounds not sorted", name))
	}
	h := &BucketHistogram{
		name:   name,
		help:   help,
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
	r.bhists = append(r.bhists, h)
	r.bhistByName[name] = h
	return h
}

// FindHistogram returns the named histogram, or nil.
func (r *Registry) FindHistogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	return r.histByName[name]
}

// Interval returns the configured probe period (zero before StartProbes).
func (r *Registry) Interval() sim.Time {
	if r == nil {
		return 0
	}
	return r.interval
}

// Samples reports the number of probe ticks recorded.
func (r *Registry) Samples() int {
	if r == nil {
		return 0
	}
	return len(r.times)
}

// StartProbes schedules the periodic sampling loop on the kernel. Every
// `every` of simulated time the probe reads all registered counters and
// gauges into the time series. Ticks are weak kernel events: they fire only
// while real simulation events remain pending, and the trailing tick left
// over after the last real event is discarded without firing — the probe
// never extends the run or advances the clock past the simulation's natural
// end. every <= 0 selects DefaultProbeInterval.
//
// Probe events consume kernel sequence numbers but read state only, so a
// metricised run produces bit-identical simulation results (the full-grid
// golden digest holds with probes on).
func (r *Registry) StartProbes(k *sim.Kernel, every sim.Time) {
	if r == nil || k == nil {
		return
	}
	if every <= 0 {
		every = DefaultProbeInterval
	}
	r.interval = every
	var tick func()
	tick = func() {
		r.sample(k.Now())
		k.ScheduleWeak(every, tick)
	}
	k.ScheduleWeak(every, tick)
}

// FinalSample records one last sample at simulation end (deduplicated if
// the probe already sampled this instant).
func (r *Registry) FinalSample(now sim.Time) {
	if r == nil {
		return
	}
	if n := len(r.times); n > 0 && r.times[n-1] == now {
		return
	}
	r.sample(now)
}

// sample appends one row to the probe time series. The column set is
// snapshotted (sorted by name) at the first sample, so every row has the
// same shape even if metrics are registered late.
func (r *Registry) sample(now sim.Time) {
	if r.cols == nil {
		r.cols = make([]*metric, len(r.metrics))
		copy(r.cols, r.metrics)
		sort.Slice(r.cols, func(i, j int) bool { return r.cols[i].name < r.cols[j].name })
	}
	row := make([]float64, len(r.cols))
	for i, m := range r.cols {
		row[i] = m.fn()
	}
	r.times = append(r.times, now)
	r.rows = append(r.rows, row)
}

// Series returns the probe time series of one metric: the sample times and
// the sampled values, in probe order. It returns nils when the metric was
// not registered before the first probe tick (the column set is snapshotted
// there) or no samples exist. The returned slices alias registry storage —
// read-only. Steady-state detection (internal/exp's interval sampler) reads
// per-period deltas of relief_nodes_done_total through this.
func (r *Registry) Series(name string) (times []sim.Time, vals []float64) {
	if r == nil || len(r.rows) == 0 {
		return nil, nil
	}
	col := -1
	for i, m := range r.cols {
		if m.name == name {
			col = i
			break
		}
	}
	if col < 0 {
		return nil, nil
	}
	vals = make([]float64, len(r.rows))
	for i, row := range r.rows {
		vals[i] = row[col]
	}
	return r.times, vals
}

// sortedMetrics returns the registered counters/gauges ordered by name.
func (r *Registry) sortedMetrics() []*metric {
	ms := make([]*metric, len(r.metrics))
	copy(ms, r.metrics)
	sort.Slice(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
	return ms
}

// sortedHists returns the registered histograms ordered by name.
func (r *Registry) sortedHists() []*Histogram {
	hs := make([]*Histogram, len(r.hists))
	copy(hs, r.hists)
	sort.Slice(hs, func(i, j int) bool { return hs[i].name < hs[j].name })
	return hs
}

// sortedBucketHists returns the registered bucket histograms ordered by
// name.
func (r *Registry) sortedBucketHists() []*BucketHistogram {
	hs := make([]*BucketHistogram, len(r.bhists))
	copy(hs, r.bhists)
	sort.Slice(hs, func(i, j int) bool { return hs[i].name < hs[j].name })
	return hs
}
