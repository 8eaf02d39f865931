package serve

import (
	"context"
	"errors"
	"net/http"
	"time"

	"relief/internal/svctrace"
	"relief/internal/trace"
)

// errTraceUnknown answers GET /trace/{id} for IDs the bounded store no
// longer (or never) held.
var errTraceUnknown = errors.New("serve: unknown trace id")

// Span taxonomy: the serving pipeline stages recorded on every request
// trace (docs/OBSERVABILITY.md, "Service tracing"). All wall clock — the
// simulated clock never appears in a span.
const (
	stageAdmission = "admission" // enqueue to worker pickup
	stageCache     = "cache"     // in-memory LRU lookup
	stageDisk      = "disk"      // spill-directory read
	stageForward   = "forward"   // request forwarded to ring owner
	stageBreaker   = "breaker"   // open-breaker fast-fail (no network)
	stageRun       = "run"       // local kernel execution
	stageSpill     = "spill"     // spill-directory write and eviction unlinks
	stageStream    = "stream"    // sweep NDJSON delivery
)

// stageBounds are the per-stage latency histogram bucket upper bounds in
// milliseconds: sub-millisecond cache traffic up through multi-second
// kernel runs.
var stageBounds = []float64{0.1, 0.5, 1, 5, 10, 50, 100, 500, 1000, 5000, 10000, 30000}

// recCtxKey carries a kernel event recorder into runSimulation for
// requests with "trace": true. It rides the context because the runner is
// the Config.Runner seam, whose signature carries no trace.
type recCtxKey struct{}

func withRecorder(ctx context.Context, rec *trace.Recorder) context.Context {
	if rec == nil {
		return ctx
	}
	return context.WithValue(ctx, recCtxKey{}, rec)
}

func recorderFrom(ctx context.Context) *trace.Recorder {
	rec, _ := ctx.Value(recCtxKey{}).(*trace.Recorder)
	return rec
}

// maxKernelEvents caps the kernel events captured per traced request, so a
// "trace": true request on a heavy scenario cannot balloon the trace store.
const maxKernelEvents = 20000

// beginTrace starts (or joins) the request's trace: a valid X-Relief-Trace
// header ID is adopted — that is the propagation contract that stitches
// forward and sweep legs on different replicas into one distributed
// trace — anything else gets a freshly minted ID. The ID is echoed on the
// response so clients always learn it.
func (s *Server) beginTrace(w http.ResponseWriter, r *http.Request) *svctrace.Trace {
	id := r.Header.Get(svctrace.Header)
	if !svctrace.ValidID(id) {
		id = svctrace.NewID()
	}
	w.Header().Set(svctrace.Header, id)
	tr := svctrace.New(id)
	return tr
}

// finishTrace seals a trace, retains it for GET /trace/{id}, and emits the
// structured access record.
func (s *Server) finishTrace(tr *svctrace.Trace, path string) {
	if tr == nil {
		return
	}
	d := tr.Finish()
	s.traces.Add(tr)
	doc := tr.Document()
	s.log.Info("request",
		"path", path,
		"trace_id", tr.ID(),
		"digest", doc.Digest,
		"source", doc.Source,
		"status", doc.Status,
		"dur_ms", float64(d)/float64(time.Millisecond),
	)
}

// attachFlightSpans copies the shared flight's timing onto one waiter's
// trace: the admission wait (enqueue to worker pickup), the kernel run
// and, with a spill directory, the result's spill. Joined waiters each
// get their own copy — the spans describe the one execution they all
// waited on. Kernel events captured for a "trace": true request ride
// along.
func attachFlightSpans(tr *svctrace.Trace, fl *flight) {
	if tr == nil || fl.startAt.IsZero() {
		return
	}
	tr.AddSpan(stageAdmission, fl.enqueueAt, fl.startAt.Sub(fl.enqueueAt), "digest", fl.key)
	tr.AddSpan(stageRun, fl.startAt, fl.runDur, "digest", fl.key)
	if !fl.spillAt.IsZero() {
		tr.AddSpan(stageSpill, fl.spillAt, fl.spillDur, "digest", fl.key)
	}
	if fl.rec != nil {
		tr.AttachKernel(fl.rec.Events())
	}
}

// handleTrace serves GET /trace/{id}: the relief-svctrace/1 document for a
// finished (or still-open sweep) trace, or — with ?format=chrome — the
// combined service+kernel timeline as Chrome trace-event JSON, rendered
// through the same writer as the simulator's own traces.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	tr := s.traces.Get(id)
	if tr == nil {
		s.writeError(w, http.StatusNotFound, errTraceUnknown)
		return
	}
	doc := tr.Document()
	if r.URL.Query().Get("format") == "chrome" {
		w.Header().Set("Content-Type", "application/json")
		if err := trace.WriteChromeEvents(w, doc.Events()); err != nil {
			// Status line already out; client sees a truncated body.
			return
		}
		return
	}
	s.writeJSON(w, http.StatusOK, doc)
}
