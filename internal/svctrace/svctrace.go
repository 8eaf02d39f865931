// Package svctrace is request-scoped distributed tracing for the serving
// fleet: every inbound request gets a trace ID that rides the
// X-Relief-Trace header across owner forwards and sweep fan-out, and every
// pipeline stage (admission wait, cache lookup, disk read, breaker
// fast-fail, forward, local kernel run, NDJSON streaming) records a
// wall-clock span against it.
//
// This is the same per-stage latency attribution the simulator applies to
// accelerator jobs (internal/metrics), turned on the serving stack itself —
// but on the wall clock, never the simulated clock. The two instruments
// stay strictly separated: svctrace must never be imported by a simulation
// package (the svcimport lint rule enforces it), so golden digests cannot
// pick up wall-clock noise. The join point is export-only: a finished
// trace's Document can embed the kernel's simulated-time events, and
// Doc.Events renders both span sets through internal/trace's Chrome writer
// into one timeline keyed by the trace ID.
package svctrace

import (
	"crypto/rand"
	"encoding/hex"
	"sort"
	"sync"
	"time"

	"relief/internal/sim"
	"relief/internal/trace"
)

// Schema identifies the GET /trace/{id} JSON document.
const Schema = "relief-svctrace/1"

// Header is the trace-propagation header. A request carrying a valid ID
// joins that trace; anything else gets a freshly minted ID.
const Header = "X-Relief-Trace"

// idBytes is the trace-ID entropy; IDs are its 2x hex chars.
const idBytes = 16

// NewID mints a trace ID: 32 lowercase hex characters. IDs come from the
// OS entropy pool — the serving layer lives on the wall clock, outside the
// simulator's determinism boundary. Deterministic callers (tests, CI
// smokes) supply their own ID through the X-Relief-Trace header instead.
func NewID() string {
	var b [idBytes]byte
	// crypto/rand.Read never fails on supported platforms.
	_, _ = rand.Read(b[:])
	return hex.EncodeToString(b[:])
}

// ValidID reports whether s has the canonical trace-ID format (32 lowercase
// hex characters), which also makes it safe to embed in headers, URLs, and
// log lines verbatim.
func ValidID(s string) bool {
	if len(s) != idBytes*2 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// attr is one ordered key/value pair on a span.
type attr struct{ key, val string }

// SpanEvent is one timestamped point annotation inside a span (cache
// source, breaker state, outcome classification).
type SpanEvent struct {
	Name  string
	Value string
	At    time.Time
}

// Span is one recorded pipeline stage. Create with Trace.StartSpan, close
// with End; all methods are no-ops on a nil receiver, so call sites need no
// tracing-enabled branches.
type Span struct {
	t     *Trace
	stage string
	start time.Time
	end   time.Time
	errs  string
	attrs []attr
	evs   []SpanEvent
}

// Stage returns the span's stage name.
func (s *Span) Stage() string {
	if s == nil {
		return ""
	}
	return s.stage
}

// Set attaches (or overwrites) one attribute.
func (s *Span) Set(key, val string) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].key == key {
			s.attrs[i].val = val
			return
		}
	}
	s.attrs = append(s.attrs, attr{key, val})
}

// Event records a timestamped point annotation.
func (s *Span) Event(name, value string) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	s.evs = append(s.evs, SpanEvent{Name: name, Value: value, At: time.Now()})
	s.t.mu.Unlock()
}

// Fail marks the span as failed.
func (s *Span) Fail(err error) {
	if s == nil || err == nil {
		return
	}
	s.t.mu.Lock()
	s.errs = err.Error()
	s.t.mu.Unlock()
}

// End closes the span and returns its duration. Ending twice keeps the
// first end time.
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	return s.end.Sub(s.start)
}

// Trace accumulates the spans of one request (or one sweep, whose cells all
// record into the coordinator request's trace). Safe for concurrent use;
// all methods are no-ops on a nil receiver.
type Trace struct {
	mu     sync.Mutex
	id     string        // immutable after New
	start  time.Time     //relief:guardedby mu
	end    time.Time     //relief:guardedby mu
	digest string        //relief:guardedby mu
	source string        //relief:guardedby mu
	status int           //relief:guardedby mu
	spans  []*Span       //relief:guardedby mu
	kernel []trace.Event //relief:guardedby mu
}

// New starts a trace. The caller supplies the ID (minted or propagated).
// The span list starts with room for one request's stages (a cold /run
// records cache, disk, admission, run and spill), so a request's spans
// cost one slice, not a growth per append.
func New(id string) *Trace {
	return &Trace{id: id, start: time.Now(), spans: make([]*Span, 0, 6)}
}

// ID returns the trace ID ("" on nil).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// StartSpan opens a stage span at the current wall time.
func (t *Trace) StartSpan(stage string) *Span {
	if t == nil {
		return nil
	}
	s := &Span{t: t, stage: stage, start: time.Now()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// AddSpan records a completed stage with explicit timing — used for spans
// measured elsewhere (the worker measures admission wait and kernel time on
// the shared flight; each waiter copies them into its own trace).
func (t *Trace) AddSpan(stage string, start time.Time, d time.Duration, kvs ...string) {
	if t == nil || start.IsZero() {
		return
	}
	s := &Span{t: t, stage: stage, start: start, end: start.Add(d)}
	for i := 0; i+1 < len(kvs); i += 2 {
		s.attrs = append(s.attrs, attr{kvs[i], kvs[i+1]})
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// SetResult labels the trace with the request's canonical digest, answer
// source, and HTTP status.
func (t *Trace) SetResult(digest, source string, status int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.digest, t.source, t.status = digest, source, status
	t.mu.Unlock()
}

// AttachKernel stores the simulated-time events of the kernel run this
// request executed, for the combined service+simulator timeline export.
func (t *Trace) AttachKernel(events []trace.Event) {
	if t == nil || len(events) == 0 {
		return
	}
	t.mu.Lock()
	t.kernel = append(t.kernel, events...)
	t.mu.Unlock()
}

// Finish seals the trace at the current wall time (idempotent).
func (t *Trace) Finish() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.end.IsZero() {
		t.end = time.Now()
	}
	return t.end.Sub(t.start)
}

// EventDoc is one span annotation in the JSON document.
type EventDoc struct {
	Name  string  `json:"name"`
	Value string  `json:"value"`
	AtUS  float64 `json:"at_us"` // offset from trace start, microseconds
}

// SpanDoc is one stage span in the JSON document. Times are wall-clock
// offsets from the trace start in microseconds, so span durations can be
// summed and compared against the request's measured wall time.
type SpanDoc struct {
	Stage   string            `json:"stage"`
	StartUS float64           `json:"start_us"`
	DurUS   float64           `json:"dur_us"`
	Attrs   map[string]string `json:"attrs,omitempty"`
	Events  []EventDoc        `json:"events,omitempty"`
	Error   string            `json:"error,omitempty"`
}

// KernelEventDoc is one simulated-time kernel event carried in the
// document (requests with "trace": true that ran the kernel locally).
// Times are simulated microseconds.
type KernelEventDoc struct {
	Kind    string            `json:"kind"`
	Name    string            `json:"name"`
	Lane    string            `json:"lane"`
	StartUS float64           `json:"start_us"`
	DurUS   float64           `json:"dur_us"`
	Meta    map[string]string `json:"meta,omitempty"`
}

// Doc is the relief-svctrace/1 document served by GET /trace/{id}.
type Doc struct {
	Schema       string           `json:"schema"`
	TraceID      string           `json:"trace_id"`
	Digest       string           `json:"digest,omitempty"`
	Source       string           `json:"source,omitempty"`
	Status       int              `json:"status,omitempty"`
	StartUnixUS  int64            `json:"start_unix_us"`
	TotalUS      float64          `json:"total_us"`
	Spans        []SpanDoc        `json:"spans"`
	KernelEvents []KernelEventDoc `json:"kernel_events,omitempty"`
}

// us converts a wall duration to microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// Document renders the trace. Open spans are closed at the trace end (or
// now, for an unfinished trace); spans are sorted by start offset.
func (t *Trace) Document() Doc {
	if t == nil {
		return Doc{Schema: Schema}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	end := t.end
	if end.IsZero() {
		end = time.Now()
	}
	doc := Doc{
		Schema:      Schema,
		TraceID:     t.id,
		Digest:      t.digest,
		Source:      t.source,
		Status:      t.status,
		StartUnixUS: t.start.UnixMicro(),
		TotalUS:     us(end.Sub(t.start)),
		Spans:       make([]SpanDoc, 0, len(t.spans)),
	}
	for _, s := range t.spans {
		se := s.end
		if se.IsZero() {
			se = end
		}
		sd := SpanDoc{
			Stage:   s.stage,
			StartUS: us(s.start.Sub(t.start)),
			DurUS:   us(se.Sub(s.start)),
			Error:   s.errs,
		}
		if len(s.attrs) > 0 {
			sd.Attrs = make(map[string]string, len(s.attrs))
			for _, a := range s.attrs {
				sd.Attrs[a.key] = a.val
			}
		}
		for _, e := range s.evs {
			sd.Events = append(sd.Events, EventDoc{Name: e.Name, Value: e.Value, AtUS: us(e.At.Sub(t.start))})
		}
		doc.Spans = append(doc.Spans, sd)
	}
	sort.SliceStable(doc.Spans, func(i, j int) bool { return doc.Spans[i].StartUS < doc.Spans[j].StartUS })
	for _, e := range t.kernel {
		doc.KernelEvents = append(doc.KernelEvents, KernelEventDoc{
			Kind:    e.Kind.String(),
			Name:    e.Name,
			Lane:    e.Lane,
			StartUS: e.Start.Microseconds(),
			DurUS:   (e.End - e.Start).Microseconds(),
			Meta:    e.Meta,
		})
	}
	return doc
}

// ServiceLane is the timeline row service spans render on.
const ServiceLane = "service"

// usToSim converts a microsecond offset to simulated-clock units
// (picoseconds) for the shared Chrome writer. The writer only divides back
// to microseconds, so wall offsets and simulated timestamps share one axis.
func usToSim(usv float64) sim.Time { return sim.Time(usv * float64(sim.Microsecond)) }

// Events converts the document into internal/trace events: service spans on
// the ServiceLane row, embedded kernel events on their original lanes, every
// event tagged with the trace ID — one timeline, renderable by
// trace.WriteChromeEvents / WriteTextEvents alongside (or instead of) a
// recorder's own events.
func (d Doc) Events() []trace.Event {
	var out []trace.Event
	for _, s := range d.Spans {
		meta := map[string]string{"trace_id": d.TraceID}
		for k, v := range s.Attrs {
			meta[k] = v
		}
		for _, e := range s.Events {
			meta[e.Name] = e.Value
		}
		if s.Error != "" {
			meta["error"] = s.Error
		}
		out = append(out, trace.Event{
			Kind:  trace.Service,
			Name:  s.Stage,
			Lane:  ServiceLane,
			Start: usToSim(s.StartUS),
			End:   usToSim(s.StartUS + s.DurUS),
			Meta:  meta,
		})
	}
	for _, e := range d.KernelEvents {
		kinds, err := trace.ParseKinds(e.Kind)
		kind := trace.Service
		if err == nil && len(kinds) == 1 {
			kind = kinds[0]
		}
		meta := map[string]string{"trace_id": d.TraceID}
		for k, v := range e.Meta {
			meta[k] = v
		}
		out = append(out, trace.Event{
			Kind:  kind,
			Name:  e.Name,
			Lane:  e.Lane,
			Start: usToSim(e.StartUS),
			End:   usToSim(e.StartUS + e.DurUS),
			Meta:  meta,
		})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Store keeps the most recent finished traces for GET /trace/{id}, bounded
// FIFO. All methods are safe for concurrent use and no-ops on a nil
// receiver.
type Store struct {
	mu    sync.Mutex
	cap   int
	m     map[string]*Trace //relief:guardedby mu
	order []string          //relief:guardedby mu
}

// DefaultStoreCap bounds the store when no capacity is configured.
const DefaultStoreCap = 256

// NewStore returns a store holding up to cap traces (cap <= 0 selects
// DefaultStoreCap).
func NewStore(cap int) *Store {
	if cap <= 0 {
		cap = DefaultStoreCap
	}
	return &Store{cap: cap, m: make(map[string]*Trace)}
}

// Add retains a trace, evicting the oldest past capacity. Re-adding an ID
// replaces the stored trace without double-counting it.
func (s *Store) Add(t *Trace) {
	if s == nil || t == nil || t.ID() == "" {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.m[t.ID()]; !ok {
		s.order = append(s.order, t.ID())
		for len(s.order) > s.cap {
			delete(s.m, s.order[0])
			s.order = s.order[1:]
		}
	}
	s.m[t.ID()] = t
}

// Get returns the stored trace for id, or nil.
func (s *Store) Get(id string) *Trace {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m[id]
}

// Len reports the number of stored traces.
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}
