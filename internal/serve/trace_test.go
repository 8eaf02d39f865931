package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"relief/internal/svctrace"
)

// newTS serves s on a test listener and returns its base URL.
func newTS(t *testing.T, s *Server) string {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// postTraced posts body to url/run with an explicit X-Relief-Trace header.
func postTraced(t *testing.T, url, body, traceID string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/run", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(svctrace.Header, traceID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// getTraceDoc fetches and decodes GET /trace/{id}.
func getTraceDoc(t *testing.T, url, id string) svctrace.Doc {
	t.Helper()
	resp, err := http.Get(url + "/trace/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /trace/%s: status=%d body=%s", id, resp.StatusCode, b)
	}
	var doc svctrace.Doc
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("decode trace doc %s: %v", b, err)
	}
	return doc
}

// findSpan returns the first span with the given stage, or nil.
func findSpan(doc svctrace.Doc, stage string) *svctrace.SpanDoc {
	for i := range doc.Spans {
		if doc.Spans[i].Stage == stage {
			return &doc.Spans[i]
		}
	}
	return nil
}

// spanEvent returns the value of the named event on a span, or "".
func spanEvent(sp *svctrace.SpanDoc, name string) string {
	if sp == nil {
		return ""
	}
	for _, e := range sp.Events {
		if e.Name == name {
			return e.Value
		}
	}
	return ""
}

// envTraceID decodes the trace_id field of a /run response envelope.
func envTraceID(t *testing.T, b []byte) string {
	t.Helper()
	var env struct {
		TraceID string `json:"trace_id"`
	}
	if err := json.Unmarshal(b, &env); err != nil {
		t.Fatalf("decode envelope %s: %v", b, err)
	}
	return env.TraceID
}

// TestTraceEnvelopeAndDoc: every /run response carries a minted trace ID in
// both the X-Relief-Trace header and the envelope, and GET /trace/{id}
// returns the pipeline's span document with durations bounded by the
// request's measured wall time.
func TestTraceEnvelopeAndDoc(t *testing.T) {
	var execs atomic.Int32
	s := New(Config{Workers: 2, Runner: countingStub(&execs)})
	ts := newTS(t, s)

	t0 := time.Now()
	resp, b := post(t, ts, `{"mix":"CGL"}`)
	wall := time.Since(t0)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status=%d body=%s", resp.StatusCode, b)
	}
	id := resp.Header.Get(svctrace.Header)
	if !svctrace.ValidID(id) {
		t.Fatalf("response header %s = %q, want a valid trace ID", svctrace.Header, id)
	}
	if got := envTraceID(t, b); got != id {
		t.Errorf("envelope trace_id = %q, header = %q", got, id)
	}

	doc := getTraceDoc(t, ts, id)
	if doc.Schema != svctrace.Schema || doc.TraceID != id {
		t.Fatalf("doc schema=%q trace_id=%q, want %q/%q", doc.Schema, doc.TraceID, svctrace.Schema, id)
	}
	if doc.Source != srcRun || doc.Status != http.StatusOK {
		t.Errorf("doc source=%q status=%d, want %q/200", doc.Source, doc.Status, srcRun)
	}
	for _, stage := range []string{stageCache, stageAdmission, stageRun} {
		if findSpan(doc, stage) == nil {
			t.Errorf("doc has no %q span (spans: %+v)", stage, doc.Spans)
		}
	}
	// The stages are sequential for a plain /run, so both every span and
	// their sum stay inside the request's measured wall clock.
	var sum float64
	for _, sp := range doc.Spans {
		if sp.StartUS < 0 || sp.StartUS+sp.DurUS > doc.TotalUS+1 {
			t.Errorf("span %s [%f, +%f] escapes total %f", sp.Stage, sp.StartUS, sp.DurUS, doc.TotalUS)
		}
		sum += sp.DurUS
	}
	wallUS := float64(wall) / float64(time.Microsecond)
	if sum > wallUS {
		t.Errorf("span durations sum to %.0fus, more than the request's %.0fus wall time", sum, wallUS)
	}
	if doc.TotalUS > wallUS {
		t.Errorf("doc total %.0fus exceeds measured wall time %.0fus", doc.TotalUS, wallUS)
	}
}

// TestTraceCacheHitEvent: a repeat request is answered from the memory
// cache and its trace's cache span says so ("source"="mem" event).
func TestTraceCacheHitEvent(t *testing.T) {
	var execs atomic.Int32
	s := New(Config{Workers: 2, Runner: countingStub(&execs)})
	ts := newTS(t, s)

	post(t, ts, `{"mix":"CGL"}`)
	resp, b := post(t, ts, `{"mix":"CGL"}`)
	if src, _ := decodeEnvelope(t, b); src != srcCache {
		t.Fatalf("second request source = %q body=%s", src, b)
	}
	doc := getTraceDoc(t, ts, resp.Header.Get(svctrace.Header))
	sp := findSpan(doc, stageCache)
	if got := spanEvent(sp, "source"); got != "mem" {
		t.Errorf("cache span source event = %q, want mem (span: %+v)", got, sp)
	}
	if doc.Source != srcCache {
		t.Errorf("doc source = %q, want %q", doc.Source, srcCache)
	}
}

// TestTraceDiskHitEvent: after a restart (fresh server over the same spill
// directory) the trace shows the cache miss falling through to a disk hit.
func TestTraceDiskHitEvent(t *testing.T) {
	dir := t.TempDir()
	var execs1, execs2 atomic.Int32
	_, ts1 := newDiskServer(t, dir, 8, &execs1)
	post(t, ts1.URL, `{"mix":"CGL"}`)

	_, ts2 := newDiskServer(t, dir, 8, &execs2)
	resp, b := post(t, ts2.URL, `{"mix":"CGL"}`)
	if src, _ := decodeEnvelope(t, b); src != srcDisk {
		t.Fatalf("post-restart source = %q body=%s", src, b)
	}
	doc := getTraceDoc(t, ts2.URL, resp.Header.Get(svctrace.Header))
	if got := spanEvent(findSpan(doc, stageDisk), "source"); got != "disk" {
		t.Errorf("disk span source event = %q, want disk (doc: %+v)", got, doc.Spans)
	}
	if execs2.Load() != 0 {
		t.Errorf("restarted server simulated %d times, want 0", execs2.Load())
	}
}

// TestSpillStage: with a spill directory, a cold /run's spill (eviction
// unlinks and the result's write) is one sample of the spill stage
// histogram and a spill span in the request's trace; without one there is
// neither.
func TestSpillStage(t *testing.T) {
	const series = `relief_serve_stage_latency_ms_count{stage="spill"}`
	var execs atomic.Int32
	_, disk := newDiskServer(t, t.TempDir(), 8, &execs)
	resp, b := post(t, disk.URL, `{"mix":"CGL"}`)
	if src, _ := decodeEnvelope(t, b); resp.StatusCode != http.StatusOK || src != srcRun {
		t.Fatalf("cold run: status=%d source=%q body=%s", resp.StatusCode, src, b)
	}
	if got := metricValue(t, disk.URL, series); got != 1 {
		t.Errorf("%s = %v, want 1", series, got)
	}
	doc := getTraceDoc(t, disk.URL, resp.Header.Get(svctrace.Header))
	sp := findSpan(doc, stageSpill)
	if sp == nil {
		t.Fatalf("no %q span (spans: %+v)", stageSpill, doc.Spans)
	}
	if run := findSpan(doc, stageRun); run == nil || sp.StartUS < run.StartUS+run.DurUS {
		t.Errorf("spill span %+v does not follow the run span %+v", sp, run)
	}

	memOnly := newTS(t, New(Config{Workers: 2, Runner: countingStub(&execs)}))
	resp, b = post(t, memOnly, `{"mix":"CGL"}`)
	if src, _ := decodeEnvelope(t, b); resp.StatusCode != http.StatusOK || src != srcRun {
		t.Fatalf("memory-only cold run: status=%d source=%q body=%s", resp.StatusCode, src, b)
	}
	mresp, err := http.Get(memOnly + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	mb, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(mb), `stage="spill"`) {
		t.Error("memory-only server exports a spill stage series")
	}
	if sp := findSpan(getTraceDoc(t, memOnly, resp.Header.Get(svctrace.Header)), stageSpill); sp != nil {
		t.Errorf("memory-only server traced a spill span: %+v", sp)
	}
}

// TestTracePropagatesAcrossForward: a request hitting the non-owner under a
// client-supplied trace ID is forwarded under the same ID, so both replicas
// retain a /trace/{id} document — the entry side with the forward span, the
// owner side with the execution.
func TestTracePropagatesAcrossForward(t *testing.T) {
	s1, _, url1, url2, _, _ := twoReplicaFleet(t)

	const body = `{"mix":"CGL"}`
	_, owner := digestOwner(t, s1, body)
	entryURL, ownerURL := url1, url2
	if owner == url1 {
		entryURL, ownerURL = url2, url1
	}

	id := strings.Repeat("ab", 16)
	resp, b := postTraced(t, entryURL, body, id)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("non-owner request: status=%d body=%s", resp.StatusCode, b)
	}
	// A successful forward relays the owner's envelope verbatim, so the
	// relay is visible in the Served-By header, and the envelope's
	// trace_id — stamped by the owner — proves the ID crossed the wire.
	if got := resp.Header.Get(servedByHeader); got != ownerURL {
		t.Fatalf("%s = %q, want %q (body=%s)", servedByHeader, got, ownerURL, b)
	}
	if got := resp.Header.Get(svctrace.Header); got != id {
		t.Errorf("echoed trace ID = %q, want the supplied %q", got, id)
	}
	if got := envTraceID(t, b); got != id {
		t.Errorf("relayed envelope trace_id = %q, want %q", got, id)
	}

	entry := getTraceDoc(t, entryURL, id)
	if entry.Source != srcForward {
		t.Errorf("entry doc source = %q, want %q", entry.Source, srcForward)
	}
	fsp := findSpan(entry, stageForward)
	if fsp == nil {
		t.Fatalf("entry doc has no forward span (spans: %+v)", entry.Spans)
	}
	if got := spanEvent(fsp, "outcome"); got != "ok" {
		t.Errorf("forward span outcome = %q, want ok", got)
	}
	if fsp.Attrs["peer"] != ownerURL {
		t.Errorf("forward span peer = %q, want %q", fsp.Attrs["peer"], ownerURL)
	}
	if sp := findSpan(entry, "probe"); sp != nil {
		t.Errorf("entry doc has a probe span; the forward is the only peer leg (spans: %+v)", entry.Spans)
	}

	// The owner executed the forwarded leg under the same distributed ID.
	ownerDoc := getTraceDoc(t, ownerURL, id)
	if ownerDoc.TraceID != id || ownerDoc.Source != srcRun {
		t.Errorf("owner doc trace_id=%q source=%q, want %q/%q", ownerDoc.TraceID, ownerDoc.Source, id, srcRun)
	}
	if findSpan(ownerDoc, stageRun) == nil {
		t.Errorf("owner doc has no run span (spans: %+v)", ownerDoc.Spans)
	}
}

// TestTraceInvalidHeaderReplaced: a header value that is not a valid trace
// ID (header injection, wrong length, upper case) is discarded for a fresh
// server-minted ID.
func TestTraceInvalidHeaderReplaced(t *testing.T) {
	var execs atomic.Int32
	s := New(Config{Workers: 2, Runner: countingStub(&execs)})
	ts := newTS(t, s)

	bad := "NOT-A-TRACE-ID"
	resp, _ := postTraced(t, ts, `{"mix":"CGL"}`, bad)
	got := resp.Header.Get(svctrace.Header)
	if got == bad || !svctrace.ValidID(got) {
		t.Errorf("echoed ID %q, want a fresh valid ID", got)
	}
}

// TestTraceKernelEventsAndChromeFormat: "trace": true on a real (unstubbed)
// run captures simulated-time kernel events into the service trace, and
// ?format=chrome renders service and kernel lanes in one Chrome timeline.
func TestTraceKernelEventsAndChromeFormat(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := newTS(t, s)

	resp, b := post(t, ts, `{"mix":"CGL","trace":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status=%d body=%s", resp.StatusCode, b)
	}
	id := resp.Header.Get(svctrace.Header)
	doc := getTraceDoc(t, ts, id)
	if len(doc.KernelEvents) == 0 {
		t.Fatal("trace:true run captured no kernel events")
	}

	cresp, err := http.Get(ts + "/trace/" + id + "?format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	defer cresp.Body.Close()
	cb, _ := io.ReadAll(cresp.Body)
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("chrome format: status=%d", cresp.StatusCode)
	}
	for _, want := range []string{`"service"`, `"compute"`, id} {
		if !strings.Contains(string(cb), want) {
			t.Errorf("chrome trace missing %s", want)
		}
	}

	// The delivery knob is digest-excluded: traced and untraced forms of
	// the same scenario are one cache entry.
	resp2, b2 := post(t, ts, `{"mix":"CGL"}`)
	if src, _ := decodeEnvelope(t, b2); src != srcCache {
		t.Errorf("untraced repeat source = %q, want %q", src, srcCache)
	}
	_ = resp2
}

// TestTraceUnknownID: unknown and malformed IDs get a 404, not a panic or
// an empty document.
func TestTraceUnknownID(t *testing.T) {
	var execs atomic.Int32
	s := New(Config{Workers: 1, Runner: countingStub(&execs)})
	ts := newTS(t, s)
	for _, id := range []string{strings.Repeat("0", 32), "zzz"} {
		resp, err := http.Get(ts + "/trace/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET /trace/%s status = %d, want 404", id, resp.StatusCode)
		}
	}
}

// TestTraceStoreBounded: the retained-trace store evicts oldest-first at
// its configured cap.
func TestTraceStoreBounded(t *testing.T) {
	var execs atomic.Int32
	s := New(Config{Workers: 1, Runner: countingStub(&execs), TraceCap: 2})
	ts := newTS(t, s)

	ids := make([]string, 3)
	for i, mix := range []string{"C", "G", "L"} {
		resp, _ := post(t, ts, `{"mix":"`+mix+`"}`)
		ids[i] = resp.Header.Get(svctrace.Header)
	}
	resp, err := http.Get(ts + "/trace/" + ids[0])
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("oldest trace still present with cap 2: status=%d", resp.StatusCode)
	}
	for _, id := range ids[1:] {
		getTraceDoc(t, ts, id) // fatals on non-200
	}
}
