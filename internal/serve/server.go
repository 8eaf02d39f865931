package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"relief/internal/exp"
	"relief/internal/metrics"
	"relief/internal/svctrace"
	"relief/internal/trace"
)

// Config sizes the service. Zero values select defaults.
type Config struct {
	// Workers is the simulation worker-pool size (default GOMAXPROCS).
	Workers int
	// QueueCap bounds the admission queue; a full queue rejects new work
	// with 429 + Retry-After (default 64).
	QueueCap int
	// CacheCap is the LRU result-cache capacity in entries (default 128).
	CacheCap int
	// Timeout bounds each simulation's wall time (default 60s). A request
	// may shorten (never extend) it via timeout_ms.
	Timeout time.Duration
	// Runner overrides the simulation executor (nil = run the real
	// kernel). Tests substitute stub runners to exercise the serving and
	// distribution layers without simulating.
	Runner func(ctx context.Context, req Request) (*Result, error)
	// PeerTransport overrides the HTTP transport used for peer forwards in
	// cluster mode (nil = http.DefaultTransport). Tests inject faulty
	// transports through it.
	PeerTransport http.RoundTripper
	// BreakerThreshold is the number of consecutive peer failures that
	// opens a peer's circuit breaker (default 3).
	BreakerThreshold int
	// Logger receives the service's structured records (access logs,
	// breaker transitions). nil discards them — library users and tests
	// stay quiet by default.
	Logger *slog.Logger
	// TraceCap bounds the finished-trace store backing GET /trace/{id}
	// (default svctrace.DefaultStoreCap).
	TraceCap int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	}
	if c.CacheCap <= 0 {
		c.CacheCap = 128
	}
	if c.Timeout <= 0 {
		c.Timeout = 60 * time.Second
	}
	return c
}

// Result is the service's answer to one simulation request.
type Result struct {
	// Digest is the request's canonical content address.
	Digest string `json:"digest"`
	// MakespanMS is the simulated makespan in milliseconds.
	MakespanMS float64 `json:"makespan_ms"`
	// Text is the human-readable summary, byte-identical to relief-sim's
	// stdout for the same scenario.
	Text string `json:"text"`
	// Metrics is the relief-metrics/1 JSON document (requests with
	// "metrics": true only) — the same schema the CLIs export.
	Metrics json.RawMessage `json:"metrics,omitempty"`
	// Cell is the scenario's sweep-cell summary (exp.Cell): the same record
	// a single-process exp.Sweep dumps for this scenario, carried so sweep
	// coordinators can merge per-cell results from many replicas into a
	// document byte-identical to a single-node sweep.
	Cell *exp.Cell `json:"cell,omitempty"`
}

// response is the HTTP envelope around a Result. Source says where the
// answer came from: "run" (simulated here), "cache" (local result cache)
// or "disk" (spill directory). Forwarded requests relay the owner's
// envelope verbatim, so their source reflects the owner.
type response struct {
	Cached bool   `json:"cached"`
	Source string `json:"source,omitempty"`
	// TraceID names the request's distributed trace — GET /trace/{id} on
	// the replica that served it returns the span document. Forwarded
	// requests relay the owner's envelope, whose trace ID is the same
	// (propagated via X-Relief-Trace), so the ID is valid on both sides.
	TraceID string `json:"trace_id,omitempty"`
	*Result
}

type errorResponse struct {
	Error string `json:"error"`
}

// flight is one in-flight simulation, shared by every request with the
// same digest (singleflight). waiters is guarded by Server.mu; when the
// last waiter disconnects before completion the flight is cancelled, which
// interrupts the simulation kernel mid-run.
type flight struct {
	key     string
	request Request
	ctx     context.Context
	cancel  context.CancelFunc
	done    chan struct{}
	res     *Result
	err     error
	waiters int

	// Wall-clock trace timing, written by submit (enqueueAt) and the
	// worker (startAt, runDur, spillAt, spillDur) before done closes;
	// waiters read after done and copy the admission/run/spill spans into
	// their own traces. spillAt stays zero without a spill directory. rec
	// captures the kernel's simulated-time events when the creating
	// request asked for them ("trace": true).
	enqueueAt time.Time
	startAt   time.Time
	runDur    time.Duration
	spillAt   time.Time
	spillDur  time.Duration
	rec       *trace.Recorder
}

// Server is the simulation service. Create with New, expose via Handler
// (or Serve), stop with Drain.
type Server struct {
	cfg    Config
	mux    *http.ServeMux
	svc    *serviceMetrics
	log    *slog.Logger
	traces *svctrace.Store

	// runner executes one simulation; tests stub it to observe scheduling
	// behavior without paying for real runs.
	runner func(ctx context.Context, req Request) (*Result, error)

	mu       sync.Mutex
	cache    *cache             //relief:guardedby mu
	disk     *diskCache         //relief:guardedby mu — nil = memory-only; published by EnableDiskCache
	flights  map[string]*flight //relief:guardedby mu
	cluster  *cluster           //relief:guardedby mu — nil = single-node; published by ConfigureCluster
	draining bool               //relief:guardedby mu

	// drainCh is closed when draining starts, unblocking sweep cells
	// waiting for queue space (blocking admission) so Drain cannot hang
	// behind an unadmitted backlog.
	drainCh chan struct{}

	jobs    chan *flight
	workers sync.WaitGroup

	http *http.Server
}

// New builds the service and starts its worker pool.
func New(cfg Config) *Server {
	s := &Server{
		cfg:     cfg.withDefaults(),
		cache:   newCache(cfg.withDefaults().CacheCap),
		flights: make(map[string]*flight),
		drainCh: make(chan struct{}),
		runner:  runSimulation,
		traces:  svctrace.NewStore(cfg.TraceCap),
		log:     cfg.Logger,
	}
	if s.cfg.Runner != nil {
		s.runner = s.cfg.Runner
	}
	if s.log == nil {
		s.log = svctrace.Discard()
	}
	s.jobs = make(chan *flight, s.cfg.QueueCap)
	s.svc = newServiceMetrics(func() int {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.cache.len()
	})
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /run", s.handleRun)
	s.mux.HandleFunc("POST /sweep", s.handleSweep)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /result/{digest}", s.handleResult)
	s.mux.HandleFunc("GET /owner/{digest}", s.handleOwner)
	s.mux.HandleFunc("GET /trace/{id}", s.handleTrace)
	for i := 0; i < s.cfg.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// EnableDiskCache attaches a durable write-through spill directory to the
// result cache: every completed result is persisted (atomic rename,
// checksummed), memory-LRU evictions delete their spill files, and a
// memory miss falls through to a verified disk load — so a crashed or
// upgraded replica restarted with the same directory warm-starts its
// share of the keyspace instead of re-simulating it. The directory is
// bounded to CacheCap entries. Returns the number of spill files restored
// from a previous process. Call before the server takes traffic.
func (s *Server) EnableDiskCache(dir string) (int, error) {
	d, restored, err := openDiskCache(dir, s.cfg.CacheCap)
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	s.disk = d
	s.mu.Unlock()
	s.svc.registerDisk(d)
	return restored, nil
}

// storeResult caches one completed result and mirrors it write-through to
// the spill directory, deleting the files of any evicted entries. It
// returns when the spill started and how long it took, both zero without
// a spill directory; the duration also feeds the spill stage histogram.
func (s *Server) storeResult(key string, res *Result) (time.Time, time.Duration) {
	s.mu.Lock()
	evicted := s.cache.add(key, res)
	d := s.disk
	s.mu.Unlock()
	if d == nil {
		return time.Time{}, 0
	}
	start := time.Now()
	d.store(key, res, evicted...)
	dur := time.Since(start)
	s.svc.observeStage(stageSpill, dur)
	return start, dur
}

// cachedResult answers key from the memory LRU or, on a miss, from the
// spill directory (read-through: a verified disk load is promoted into
// the LRU). The returned source is srcCache or srcDisk. The lookup records
// cache/disk spans on tr (nil = untraced) and feeds the per-stage latency
// histograms.
func (s *Server) cachedResult(tr *svctrace.Trace, key string) (*Result, string, bool) {
	sp := tr.StartSpan(stageCache)
	sp.Set("digest", key)
	s.mu.Lock()
	res, ok := s.cache.get(key)
	d := s.disk
	s.mu.Unlock()
	if ok {
		sp.Event("source", "mem")
	}
	s.endSpan(stageCache, sp)
	if ok {
		return res, srcCache, true
	}
	if d == nil {
		return nil, "", false
	}
	dsp := tr.StartSpan(stageDisk)
	dsp.Set("digest", key)
	res, ok = d.load(key)
	if ok {
		dsp.Event("source", "disk")
	}
	s.endSpan(stageDisk, dsp)
	if !ok {
		return nil, "", false
	}
	s.mu.Lock()
	evicted := s.cache.add(key, res)
	s.mu.Unlock()
	d.remove(evicted...)
	return res, srcDisk, true
}

// endSpan closes a span and feeds its stage's latency histogram. Nil spans
// (untraced callers) produce no sample.
func (s *Server) endSpan(stage string, sp *svctrace.Span) time.Duration {
	d := sp.End()
	if sp != nil {
		s.svc.observeStage(stage, d)
	}
	return d
}

// Serve accepts connections on l until Drain is called.
func (s *Server) Serve(l net.Listener) error {
	s.http = &http.Server{Handler: s.mux}
	return s.http.Serve(l)
}

// Drain gracefully stops the service: new requests are refused with 503,
// in-flight requests (and the simulations they wait on) are given until
// ctx expires to finish, then remaining simulations are cancelled through
// their contexts. The worker pool has fully exited when Drain returns.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	if already {
		return nil
	}
	close(s.drainCh) // releases sweep cells blocked on queue admission
	var err error
	if s.http != nil {
		// Waits for in-flight handlers, which wait on their flights.
		err = s.http.Shutdown(ctx)
	}
	// All handlers have returned (or were never served through s.http), so
	// nothing can submit to the queue anymore.
	close(s.jobs)
	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.mu.Lock()
		for _, fl := range s.flights {
			fl.cancel()
		}
		s.mu.Unlock()
		<-done // cancellation interrupts the kernel within a few thousand events
		if err == nil {
			err = ctx.Err()
		}
	}
	return err
}

func (s *Server) worker() {
	defer s.workers.Done()
	for fl := range s.jobs {
		s.svc.queueDepth.Add(-1)
		s.svc.running.Add(1)
		start := time.Now()
		// Stage timing is recorded once per execution here (not per
		// waiter): admission covers enqueue to pickup, run the kernel.
		fl.startAt = start
		s.svc.observeStage(stageAdmission, start.Sub(fl.enqueueAt))
		ctx := fl.ctx
		if fl.rec != nil {
			ctx = withRecorder(ctx, fl.rec)
		}
		res, err := s.runner(ctx, fl.request)
		fl.runDur = time.Since(start)
		s.svc.observeStage(stageRun, fl.runDur)
		if res != nil {
			res.Digest = fl.key
		}
		if err == nil {
			fl.spillAt, fl.spillDur = s.storeResult(fl.key, res)
		}
		s.mu.Lock()
		delete(s.flights, fl.key)
		s.mu.Unlock()
		if err != nil {
			s.svc.errors.Add(1)
		}
		fl.res, fl.err = res, err
		close(fl.done)
		fl.cancel()
		s.svc.running.Add(-1)
		s.svc.observeLatency(time.Since(start))
	}
}

// setRetryAfter stamps a backpressure response (429/503) with the live
// drain-time estimate (see serviceMetrics.retryAfterSeconds).
func (s *Server) setRetryAfter(w http.ResponseWriter) {
	w.Header().Set("Retry-After", strconv.Itoa(s.svc.retryAfterSeconds()))
}

// Answer sources reported in the response envelope.
const (
	srcRun     = "run"     // simulated on this replica
	srcCache   = "cache"   // this replica's in-memory result cache
	srcDisk    = "disk"    // this replica's spill directory (warm restart)
	srcForward = "forward" // answered by the digest's ring owner (cached or simulated there)
)

// Sentinel errors for the admission path.
var (
	errDraining = errors.New("serve: draining")
	errBusy     = errors.New("serve: admission queue full")
)

// answer is one resolved request: the result and its source, plus — for a
// forwarded answer — the owner's raw envelope and base URL, which /run
// relays verbatim.
type answer struct {
	res   *Result
	src   string
	relay []byte
	owner string
}

// handleRun answers one simulation request through resolve. Every request
// runs under a trace (joined from X-Relief-Trace or freshly minted) whose
// spans record each rung of the ladder.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	tr := s.beginTrace(w, r)
	defer s.finishTrace(tr, "/run")
	var req Request
	err := decodeStrict(http.MaxBytesReader(w, r.Body, 1<<20), &req)
	if err != nil {
		err = fmt.Errorf("decoding request: %w", err)
	} else {
		err = req.Normalize()
	}
	if err != nil {
		tr.SetResult("", "", http.StatusBadRequest)
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	key := req.Digest()
	s.svc.requests.Add(1)

	ans, err := s.resolve(r.Context(), tr, req, key, r.Header.Get(forwardHeader) != "", false)
	switch {
	case err != nil && r.Context().Err() != nil:
		// Client gone: nothing left to send.
		tr.SetResult(key, "", 499) // nginx's "client closed request"
	case err != nil:
		status := errStatus(err)
		if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
			s.setRetryAfter(w)
		}
		tr.SetResult(key, "", status)
		s.writeError(w, status, err)
	case ans.relay != nil:
		// The relayed envelope already carries the shared trace ID: the
		// owner served this request under the ID we forwarded.
		tr.SetResult(key, srcForward, http.StatusOK)
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set(servedByHeader, ans.owner)
		w.WriteHeader(http.StatusOK)
		if _, err := w.Write(ans.relay); err != nil {
			// Client gone mid-relay; nothing left to send.
			return
		}
	default:
		tr.SetResult(key, ans.src, http.StatusOK)
		s.writeJSON(w, http.StatusOK, response{
			Cached: ans.src != srcRun, Source: ans.src, TraceID: tr.ID(), Result: ans.res,
		})
	}
}

// resolve answers one normalized request through the decision ladder that
// /run and every /sweep cell share: local cache (memory, then spill), the
// drain gate, the ring owner (cluster mode, unless the request was already
// forwarded once), then local simulation through the singleflight queue.
// A draining replica still answers from its cache and refuses everything
// else with errDraining. block selects admission on a full queue (see
// submit). Spans for every rung land on tr (nil = untraced).
func (s *Server) resolve(ctx context.Context, tr *svctrace.Trace, req Request, key string, forwarded, block bool) (answer, error) {
	// Cache first, even while draining: handing out a finished result costs
	// nothing and spares the fleet a re-simulation.
	if res, src, ok := s.cachedResult(tr, key); ok {
		s.svc.hits.Add(1)
		return answer{res: res, src: src}, nil
	}
	s.mu.Lock()
	draining, cl := s.draining, s.cluster
	s.mu.Unlock()
	if draining {
		return answer{}, errDraining
	}

	// Cluster mode: a digest owned elsewhere is answered by its owner, from
	// its cache or by simulating there, so a result computed anywhere in the
	// fleet is never re-simulated. An unreachable or misbehaving owner (or
	// one behind an open circuit breaker) degrades to local execution below.
	if cl != nil && !forwarded {
		if owner := cl.ring.owner(key); owner != cl.self {
			if res, relay := s.routeToOwner(tr, cl, owner, key, req); res != nil {
				return answer{res: res, src: srcForward, relay: relay, owner: owner}, nil
			}
		}
	}

	res, fl, err := s.submit(ctx, req, key, block)
	switch {
	case err != nil:
		return answer{}, err
	case res != nil: // cache hit raced in between the first rung and submit
		s.svc.hits.Add(1)
		return answer{res: res, src: srcCache}, nil
	}
	select {
	case <-fl.done:
		attachFlightSpans(tr, fl)
		if fl.err != nil {
			return answer{}, fl.err
		}
		return answer{res: fl.res, src: srcRun}, nil
	case <-ctx.Done():
		// Caller gone: release our claim; the last departing waiter cancels
		// the simulation so an abandoned run stops mid-flight.
		s.abandon(fl)
		return answer{}, ctx.Err()
	}
}

// submit returns the cached result for key, or the (joined or newly
// enqueued) flight computing it. block selects the full-queue behavior:
// interactive requests are rejected immediately (errBusy → 429), sweep
// cells wait for queue space — the bounded queue throttles them instead of
// failing the sweep. The caller owns one waiter slot of a returned flight.
func (s *Server) submit(ctx context.Context, req Request, key string, block bool) (*Result, *flight, error) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, nil, errDraining
	}
	if res, ok := s.cache.get(key); ok {
		s.mu.Unlock()
		return res, nil, nil
	}
	if fl, ok := s.flights[key]; ok {
		fl.waiters++
		s.svc.joins.Add(1)
		s.mu.Unlock()
		return nil, fl, nil
	}
	timeout := s.cfg.Timeout
	if req.TimeoutMS > 0 {
		if t := time.Duration(req.TimeoutMS) * time.Millisecond; t < timeout {
			timeout = t
		}
	}
	fctx, cancel := context.WithTimeout(context.Background(), timeout)
	fl := &flight{
		key: key, request: req, ctx: fctx, cancel: cancel,
		done: make(chan struct{}), waiters: 1,
		enqueueAt: time.Now(),
	}
	if req.Trace {
		// Capture the kernel's simulated-time events for the combined
		// service+simulator timeline. Like TimeoutMS, the trace flag is a
		// delivery knob excluded from the digest: joiners share whatever
		// the flight's creator asked for.
		fl.rec = trace.NewRecorder()
		fl.rec.SetMaxEvents(maxKernelEvents)
	}
	if !block {
		select {
		case s.jobs <- fl:
			s.flights[key] = fl
			s.svc.queueDepth.Add(1)
			s.svc.misses.Add(1)
			s.mu.Unlock()
			return nil, fl, nil
		default:
			s.mu.Unlock()
			cancel()
			s.svc.rejected.Add(1)
			return nil, nil, errBusy
		}
	}
	// Blocking admission: register the flight first so identical cells
	// join it, then wait for queue space outside the lock.
	s.flights[key] = fl
	s.svc.queueDepth.Add(1)
	s.svc.misses.Add(1)
	s.mu.Unlock()
	select {
	case s.jobs <- fl:
		return nil, fl, nil
	case <-ctx.Done():
		s.unsubmit(fl)
		return nil, nil, ctx.Err()
	case <-s.drainCh:
		s.unsubmit(fl)
		return nil, nil, errDraining
	}
}

// unsubmit retracts a registered flight that never reached the queue,
// failing its joiners.
func (s *Server) unsubmit(fl *flight) {
	s.mu.Lock()
	delete(s.flights, fl.key)
	s.mu.Unlock()
	s.svc.queueDepth.Add(-1)
	fl.err = errDraining
	close(fl.done)
	fl.cancel()
}

// abandon releases one waiter slot; the last departing waiter cancels the
// simulation so an abandoned run stops mid-flight.
func (s *Server) abandon(fl *flight) {
	s.mu.Lock()
	fl.waiters--
	last := fl.waiters == 0
	s.mu.Unlock()
	if last {
		fl.cancel()
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if err := s.svc.writePrometheus(w); err != nil {
		// Headers are gone; nothing useful left to send.
		return
	}
}

// handleHealthz is the liveness probe: the process is up and the mux is
// answering. It stays 200 through drain — the process is still alive and
// finishing work; use /readyz to take a draining replica out of rotation.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	fmt.Fprintln(w, "ok")
}

// handleReadyz is the readiness probe: load balancers and ring peers stop
// routing to a replica once it reports 503 (draining). In cluster mode the
// body carries one detail line per peer with its circuit-breaker state;
// the first line stays exactly "ok"/"draining" so existing probes that
// match the whole first line keep working.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	cl := s.cluster
	s.mu.Unlock()
	if draining {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
	if cl != nil {
		for _, p := range cl.peers {
			if h := cl.health[p]; h != nil {
				fmt.Fprintf(w, "peer %s breaker=%s\n", p, breakerStateName(h.stateG.Load()))
			}
		}
	}
}

// handleResult is a client cache lookup: it answers with the cached Result
// for a digest or 404, never triggering a simulation. Like /run's cache
// rung it keeps serving through drain.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	tr := s.beginTrace(w, r)
	defer s.finishTrace(tr, "/result")
	key := r.PathValue("digest")
	res, src, ok := s.cachedResult(tr, key)
	if !ok {
		tr.SetResult(key, "", http.StatusNotFound)
		s.writeError(w, http.StatusNotFound, errors.New("serve: result not cached"))
		return
	}
	tr.SetResult(key, src, http.StatusOK)
	s.writeJSON(w, http.StatusOK, res)
}

// ownerResponse is the GET /owner/{digest} document.
type ownerResponse struct {
	Digest string `json:"digest"`
	// Owner is the ring owner's base URL ("" on a single-node server,
	// which owns everything itself).
	Owner string `json:"owner"`
	// Self reports whether this replica is the owner.
	Self bool `json:"self"`
}

// handleOwner reports which fleet member the ring places a digest on, for
// clients, debugging, and the CI cluster smoke.
func (s *Server) handleOwner(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("digest")
	s.mu.Lock()
	cl := s.cluster
	s.mu.Unlock()
	out := ownerResponse{Digest: key, Self: true}
	if cl != nil {
		out.Owner = cl.ring.owner(key)
		out.Self = out.Owner == cl.self
	}
	s.writeJSON(w, http.StatusOK, out)
}

// errStatus maps a simulation or admission error onto an HTTP status:
// timeouts are 504, abandonment/drain cancellations 503, a full admission
// queue 429, anything else a plain 500.
func errStatus(err error) int {
	switch {
	case errors.Is(err, errBusy):
		return http.StatusTooManyRequests
	case errors.Is(err, errDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(v); err != nil {
		// The status line is already written; the client sees a truncated
		// body and retries.
		return
	}
}

func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	s.writeJSON(w, status, errorResponse{Error: err.Error()})
}

// runSimulation executes one request against the experiment harness. The
// context is threaded into the simulation kernel: cancellation interrupts
// the event loop and the run returns an error, never partial statistics.
func runSimulation(ctx context.Context, req Request) (*Result, error) {
	sc, err := req.Scenario()
	if err != nil {
		return nil, err
	}
	var reg *metrics.Registry
	if req.Metrics {
		reg = metrics.NewRegistry()
		sc.Metrics = reg
	}
	// A traced request records the kernel's simulated-time events through
	// the standard recorder; the events join the wall-clock service spans
	// in the trace document. Recording never perturbs the simulation
	// (nil-safe recorder, no extra kernel events), so digests stay
	// bit-identical.
	sc.Trace = recorderFrom(ctx)
	res, err := exp.RunContext(ctx, sc)
	if err != nil {
		return nil, err
	}
	var text bytes.Buffer
	if err := exp.WriteSummary(&text, sc, res.Stats); err != nil {
		return nil, err
	}
	cell := exp.NewCell(exp.ScenarioKey(sc), res)
	out := &Result{
		MakespanMS: res.Stats.Makespan.Milliseconds(),
		Text:       text.String(),
		Cell:       &cell,
	}
	if reg != nil {
		var mb bytes.Buffer
		if err := reg.WriteJSON(&mb); err != nil {
			return nil, err
		}
		out.Metrics = json.RawMessage(bytes.TrimSpace(mb.Bytes()))
	}
	return out, nil
}
