package serve

import (
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"relief/internal/exp"
	"relief/internal/metrics"
)

// serviceMetrics tracks service-level counters (cache hits/misses, dedup
// joins, rejections, queue depth) and the request-latency distribution,
// exposed in Prometheus text format on /metrics. The counters are atomics
// read through func-backed registry metrics; the histogram and the
// registry's render path are guarded by mu (internal/metrics is built for
// the single-goroutine simulator and is not itself thread-safe).
type serviceMetrics struct {
	requests   atomic.Int64
	hits       atomic.Int64
	misses     atomic.Int64
	joins      atomic.Int64
	rejected   atomic.Int64
	errors     atomic.Int64
	queueDepth atomic.Int64
	running    atomic.Int64
	cacheLen   func() int

	// peers holds the per-peer cluster counters, keyed by peer base URL.
	// Written once by registerPeers before the cluster starts taking
	// traffic, read-only afterwards.
	peers map[string]*peerCounters

	mu     sync.Mutex
	reg    *metrics.Registry
	lat    *metrics.Histogram
	stages map[string]*metrics.BucketHistogram
}

// peerCounters tracks one peer's share of cluster traffic: requests
// forwarded to it as the owner, forwards that failed (peer down → local
// fallback), and requests that skipped the peer without network I/O
// because its circuit breaker was open.
type peerCounters struct {
	forwarded     atomic.Int64
	forwardErrors atomic.Int64
	fastFails     atomic.Int64
}

// discardPeer absorbs counts for peers outside the configured fleet; it can
// only be reached if ring membership and registration disagree, and keeps
// the counting path total instead of panicking.
var discardPeer = &peerCounters{}

// peer returns the counters for one peer base URL.
func (m *serviceMetrics) peer(url string) *peerCounters {
	if pc, ok := m.peers[url]; ok {
		return pc
	}
	return discardPeer
}

// registerPeers creates and registers the per-peer cluster counters, one
// labelled series per peer (`relief_serve_forwarded_total{peer="..."}`,
// ...), plus the circuit-breaker gauge and counters read from each peer's
// health tracker. peers must be sorted and deduplicated (ConfigureCluster's
// fleet normalization guarantees it).
func (m *serviceMetrics) registerPeers(peers []string, health map[string]*peerHealth) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.peers = make(map[string]*peerCounters, len(peers))
	count := func(v *atomic.Int64) func() float64 {
		return func() float64 { return float64(v.Load()) }
	}
	for _, p := range peers {
		pc := &peerCounters{}
		m.peers[p] = pc
		label := "{peer=\"" + metrics.EscapeLabelValue(p) + "\"}"
		m.reg.CounterFunc("relief_serve_forwarded_total"+label,
			"Requests forwarded to this peer as the digest's ring owner.", count(&pc.forwarded))
		m.reg.CounterFunc("relief_serve_forward_errors_total"+label,
			"Forwards this peer failed to serve (request fell back to local execution).", count(&pc.forwardErrors))
		m.reg.CounterFunc("relief_serve_peer_fast_fails_total"+label,
			"Requests that skipped this peer without network I/O because its breaker was open.", count(&pc.fastFails))
		h := health[p]
		if h == nil {
			continue
		}
		m.reg.GaugeFunc("relief_serve_peer_breaker_state"+label,
			"Circuit-breaker state for this peer: 0 closed, 1 half-open, 2 open.",
			func() float64 { return float64(h.stateG.Load()) })
		m.reg.CounterFunc("relief_serve_peer_breaker_opens_total"+label,
			"Transitions of this peer's circuit breaker to the open state.", count(&h.opens))
		m.reg.CounterFunc("relief_serve_peer_retries_total"+label,
			"Half-open probes granted against this peer after its backoff expired.", count(&h.probes))
	}
}

// registerDisk registers the durable-cache counters once a spill directory
// is attached (EnableDiskCache).
func (m *serviceMetrics) registerDisk(d *diskCache) {
	m.mu.Lock()
	defer m.mu.Unlock()
	count := func(v *atomic.Int64) func() float64 {
		return func() float64 { return float64(v.Load()) }
	}
	m.reg.CounterFunc("relief_serve_disk_cache_hits_total",
		"Requests answered by loading a verified spill file from the cache directory.", count(&d.hits))
	m.reg.CounterFunc("relief_serve_disk_cache_misses_total",
		"Memory-cache misses that found no spill file on disk either.", count(&d.misses))
	m.reg.CounterFunc("relief_serve_disk_cache_load_errors_total",
		"Spill files rejected on load (bad schema, digest mismatch, failed checksum) and deleted.", count(&d.loadErrors))
	m.reg.CounterFunc("relief_serve_disk_cache_spill_errors_total",
		"Results that could not be spilled to disk (entry stayed memory-only).", count(&d.spillErrors))
	m.reg.GaugeFunc("relief_serve_disk_cache_entries",
		"Spill files currently held in the cache directory.",
		func() float64 { return float64(d.entries()) })
}

func newServiceMetrics(cacheLen func() int) *serviceMetrics {
	m := &serviceMetrics{
		cacheLen: cacheLen,
		stages:   make(map[string]*metrics.BucketHistogram),
	}
	r := metrics.NewRegistry()
	count := func(v *atomic.Int64) func() float64 {
		return func() float64 { return float64(v.Load()) }
	}
	r.CounterFunc("relief_serve_requests_total",
		"Simulation requests accepted for processing.", count(&m.requests))
	r.CounterFunc("relief_serve_cache_hits_total",
		"Requests answered from the result cache.", count(&m.hits))
	r.CounterFunc("relief_serve_cache_misses_total",
		"Requests that executed a simulation.", count(&m.misses))
	r.CounterFunc("relief_serve_dedup_joins_total",
		"Requests coalesced onto an identical in-flight simulation.", count(&m.joins))
	r.CounterFunc("relief_serve_rejected_total",
		"Requests rejected with 429 because the admission queue was full.", count(&m.rejected))
	r.CounterFunc("relief_serve_errors_total",
		"Simulations that finished with an error (including timeouts).", count(&m.errors))
	r.GaugeFunc("relief_serve_queue_depth",
		"Admitted simulations waiting for a worker.", count(&m.queueDepth))
	r.GaugeFunc("relief_serve_running",
		"Simulations currently executing.", count(&m.running))
	r.GaugeFunc("relief_serve_cache_entries",
		"Results held in the LRU cache.", func() float64 { return float64(cacheLen()) })
	r.CounterFunc("relief_serve_sims_recycled_total",
		"Simulations run on a reset simulation of the same platform from the process's free list.",
		func() float64 { n, _ := exp.SimCounts(); return float64(n) })
	r.CounterFunc("relief_serve_sims_cold_total",
		"Simulations run on a newly built simulation: traced, metricised or faulty runs, and runs that found none free.",
		func() float64 { _, n := exp.SimCounts(); return float64(n) })
	m.lat = r.Histogram("relief_serve_request_latency_ms",
		"End-to-end request latency (admission to response) in milliseconds.")
	m.reg = r
	return m
}

func (m *serviceMetrics) observeLatency(d time.Duration) {
	m.mu.Lock()
	m.lat.Observe(float64(d) / float64(time.Millisecond))
	m.mu.Unlock()
}

// retryAfterSeconds derives the Retry-After hint for 429/503 responses from
// live load instead of a hardcoded constant: the admission backlog times the
// median request service latency is roughly how long the backlog takes to
// drain, so a client that waits that long finds queue space with one retry
// instead of hammering a saturated server. The estimate is clamped to
// [1, 30] seconds; a cold server with no completed requests yet (empty
// latency histogram) answers the 1-second floor.
func (m *serviceMetrics) retryAfterSeconds() int {
	m.mu.Lock()
	var p50 float64
	if m.lat.Count() > 0 {
		p50 = m.lat.Quantile(0.50)
	}
	m.mu.Unlock()
	secs := int(math.Ceil(float64(m.queueDepth.Load()) * p50 / 1000))
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return secs
}

// observeStage feeds one pipeline-stage duration into its per-stage
// bucketed latency histogram (`relief_serve_stage_latency_ms{stage=...}`),
// registering the stage's series on first use. The registry is not itself
// thread-safe, so registration and observation stay under mu.
func (m *serviceMetrics) observeStage(stage string, d time.Duration) {
	m.mu.Lock()
	h, ok := m.stages[stage]
	if !ok {
		h = m.reg.BucketHistogram(
			metrics.Label("relief_serve_stage_latency_ms", "stage", stage),
			"Wall-clock latency of one serving pipeline stage, labelled by stage (admission, cache, disk, forward, breaker, run, spill, stream), in milliseconds.",
			stageBounds)
		m.stages[stage] = h
	}
	h.Observe(float64(d) / float64(time.Millisecond))
	m.mu.Unlock()
}

func (m *serviceMetrics) writePrometheus(w io.Writer) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.reg.WritePrometheus(w)
}
