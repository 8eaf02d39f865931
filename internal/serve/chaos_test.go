package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"relief/internal/exp"
)

// ChaosPlan is a seeded fault specification for peer traffic: the serving
// layer's counterpart of internal/fault's Plan. It drives a faulty
// http.RoundTripper that injects latency, connection drops, 5xx bursts,
// and one-way partitions into a replica's *outbound* peer calls, so the
// cluster's resilience promises (no client-visible failures under peer
// death, bounded duplicated work, byte-identical merged sweeps) can be
// tested reproducibly.
//
// Draws are gated on their rate being non-zero, so a zero-rate plan
// consumes no randomness and a partition-only plan injects exactly the
// configured partition and nothing else. The zero value injects nothing.
type ChaosPlan struct {
	// Seed initialises the injection PRNG (0 means seed 1, matching the
	// fault-injection CLI default).
	Seed int64
	// LatencyRate is the per-request probability of an added delay of
	// Latency (default 50ms when the rate is set).
	LatencyRate float64
	LatencyMS   int64
	// DropRate is the per-request probability that the connection drops
	// before any response arrives (transport error).
	DropRate float64
	// ErrorRate is the per-request probability of a synthesized 503 —
	// the peer is reachable but failing.
	ErrorRate float64
	// Partition lists peer hosts ("host:port") whose outbound requests
	// always fail. The partition is one-way: only this replica's view of
	// those peers is cut; their requests to us still arrive.
	Partition []string
}

// NewChaosTransport wraps next (nil = http.DefaultTransport) with the
// plan's fault injection. Pass the result as Config.PeerTransport to
// subject all peer forwards to it.
func NewChaosTransport(plan ChaosPlan, next http.RoundTripper) http.RoundTripper {
	if next == nil {
		next = http.DefaultTransport
	}
	seed := plan.Seed
	if seed == 0 {
		seed = 1
	}
	part := make(map[string]bool, len(plan.Partition))
	for _, h := range plan.Partition {
		part[strings.TrimSpace(h)] = true
	}
	return &chaosTransport{
		plan:      plan,
		next:      next,
		partition: part,
		rng:       rand.New(rand.NewSource(seed)),
	}
}

type chaosTransport struct {
	plan      ChaosPlan
	next      http.RoundTripper
	partition map[string]bool

	mu  sync.Mutex
	rng *rand.Rand
}

// RoundTrip injects the plan's faults ahead of the real transport. For a
// fixed seed, a sequential request series replays the exact same fault
// sequence; concurrent callers still see a reproducible fault *mix*
// (the draw stream is fixed, only its assignment to requests races).
func (t *chaosTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if t.partition[req.URL.Host] {
		closeRequestBody(req)
		return nil, fmt.Errorf("serve: chaos partition: %s unreachable", req.URL.Host)
	}
	var delay time.Duration
	var drop, fail bool
	t.mu.Lock()
	if t.plan.LatencyRate > 0 && t.rng.Float64() < t.plan.LatencyRate {
		delay = time.Duration(t.plan.LatencyMS) * time.Millisecond
		if delay <= 0 {
			delay = 50 * time.Millisecond
		}
	}
	if t.plan.DropRate > 0 && t.rng.Float64() < t.plan.DropRate {
		drop = true
	}
	if !drop && t.plan.ErrorRate > 0 && t.rng.Float64() < t.plan.ErrorRate {
		fail = true
	}
	t.mu.Unlock()
	if delay > 0 {
		select {
		case <-req.Context().Done():
			closeRequestBody(req)
			return nil, req.Context().Err()
		case <-time.After(delay):
		}
	}
	if drop {
		closeRequestBody(req)
		return nil, fmt.Errorf("serve: chaos drop: connection to %s lost", req.URL.Host)
	}
	if fail {
		closeRequestBody(req)
		return &http.Response{
			Status:        "503 Service Unavailable",
			StatusCode:    http.StatusServiceUnavailable,
			Proto:         "HTTP/1.1",
			ProtoMajor:    1,
			ProtoMinor:    1,
			Header:        http.Header{"Content-Type": []string{"text/plain"}},
			Body:          io.NopCloser(strings.NewReader("chaos: injected 503\n")),
			ContentLength: -1,
			Request:       req,
		}, nil
	}
	return t.next.RoundTrip(req)
}

// closeRequestBody honors the RoundTripper contract: the transport owns
// the request body and must close it even when no bytes were sent.
func closeRequestBody(req *http.Request) {
	if req.Body != nil {
		req.Body.Close()
	}
}

// recordingTransport notes every request that made it through the chaos
// layer and answers 200.
type recordingTransport struct{ passed atomic.Int32 }

func (rt *recordingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rt.passed.Add(1)
	closeRequestBody(req)
	return &http.Response{
		StatusCode: http.StatusOK,
		Proto:      "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header:  http.Header{},
		Body:    io.NopCloser(strings.NewReader("ok")),
		Request: req,
	}, nil
}

// chaosOutcomes replays n sequential requests through a fresh transport
// built from plan and classifies each: "pass", "drop", or "503".
func chaosOutcomes(t *testing.T, plan ChaosPlan, n int) []string {
	t.Helper()
	tr := NewChaosTransport(plan, &recordingTransport{})
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		req, err := http.NewRequest(http.MethodGet, "http://peer.test:1/result/x", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := tr.RoundTrip(req)
		switch {
		case err != nil:
			out = append(out, "drop")
		case resp.StatusCode == http.StatusServiceUnavailable:
			resp.Body.Close()
			out = append(out, "503")
		default:
			resp.Body.Close()
			out = append(out, "pass")
		}
	}
	return out
}

// TestChaosTransportDeterministic: the same seed replays the same fault
// sequence; a different seed produces a different one.
func TestChaosTransportDeterministic(t *testing.T) {
	plan := ChaosPlan{Seed: 7, DropRate: 0.3, ErrorRate: 0.3}
	a := chaosOutcomes(t, plan, 200)
	b := chaosOutcomes(t, plan, 200)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d: outcome %q vs %q under the same seed", i, a[i], b[i])
		}
	}
	counts := map[string]int{}
	for _, o := range a {
		counts[o]++
	}
	if counts["drop"] == 0 || counts["503"] == 0 || counts["pass"] == 0 {
		t.Fatalf("degenerate fault mix over 200 draws: %v", counts)
	}
	plan.Seed = 8
	c := chaosOutcomes(t, plan, 200)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical fault sequences")
	}
}

// TestChaosPartitionOneWay: a partitioned host always fails; other hosts
// pass untouched, and with all rates zero the partition consumes no
// randomness at all (the zero-rate plan stays inert for them).
func TestChaosPartitionOneWay(t *testing.T) {
	next := &recordingTransport{}
	tr := NewChaosTransport(ChaosPlan{Partition: []string{"dead.test:1"}}, next)
	for i := 0; i < 10; i++ {
		req, _ := http.NewRequest(http.MethodGet, "http://dead.test:1/result/x", nil)
		if _, err := tr.RoundTrip(req); err == nil {
			t.Fatal("partitioned host served a request")
		}
		req, _ = http.NewRequest(http.MethodGet, "http://alive.test:1/result/x", nil)
		resp, err := tr.RoundTrip(req)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("unpartitioned host affected: resp=%v err=%v", resp, err)
		}
		resp.Body.Close()
	}
	if got := next.passed.Load(); got != 10 {
		t.Errorf("%d requests passed through, want 10", got)
	}
}

// cellStub is a runner whose result carries a deterministic sweep cell, so
// merged sweep documents can be compared byte-for-byte across topologies.
func cellStub(execs *atomic.Int32) func(context.Context, Request) (*Result, error) {
	return func(ctx context.Context, req Request) (*Result, error) {
		execs.Add(1)
		cell := exp.Cell{
			Scenario:   "mix=" + req.Mix + " policy=" + req.Policy,
			MakespanMS: float64(len(req.Mix)) * 10,
		}
		return &Result{
			MakespanMS: cell.MakespanMS,
			Text:       "stub:" + req.Mix,
			Cell:       &cell,
		}, nil
	}
}

// chaosFleet builds n peered replicas whose outbound peer traffic all runs
// through seeded chaos transports (one per replica, distinct seeds).
func chaosFleet(t *testing.T, n int, plan ChaosPlan) (servers []*Server, tss []*httptest.Server, urls []string, execs *atomic.Int32) {
	t.Helper()
	execs = new(atomic.Int32)
	for i := 0; i < n; i++ {
		p := plan
		p.Seed = plan.Seed + int64(i)
		s := New(Config{
			Workers:          2,
			Runner:           cellStub(execs),
			PeerTransport:    NewChaosTransport(p, nil),
			BreakerThreshold: 2,
		})
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		servers = append(servers, s)
		tss = append(tss, ts)
		urls = append(urls, ts.URL)
	}
	for i, s := range servers {
		s.ConfigureCluster(urls[i], urls)
	}
	return servers, tss, urls, execs
}

const chaosSweepSpec = `{"mixes":["C","D","G","H","L","CD","CG","CH","CL","DG","DH","DL","GH","GL","HL","CGL"],"policies":["RELIEF","LAX"]}`

// sweepDoc POSTs a merged sweep and returns the raw document bytes.
func sweepDoc(t *testing.T, url, spec string) []byte {
	t.Helper()
	resp, err := http.Post(url+"/sweep", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d: %s", resp.StatusCode, b)
	}
	return b
}

// TestSweepUnderChaosByteIdentical: a merged sweep through a 3-replica
// fleet whose peer links drop, 503, and lag must (a) succeed with no
// client-visible error, (b) produce a document byte-identical to a solo
// server's, and (c) duplicate only boundedly much work — at most one extra
// execution per cell (forward landed on the owner but the reply was lost,
// so the coordinator also ran it locally).
func TestSweepUnderChaosByteIdentical(t *testing.T) {
	var soloExecs atomic.Int32
	solo := New(Config{Workers: 2, Runner: cellStub(&soloExecs)})
	soloTS := httptest.NewServer(solo.Handler())
	defer soloTS.Close()
	want := sweepDoc(t, soloTS.URL, chaosSweepSpec)
	cells := int(soloExecs.Load())
	if cells != 32 {
		t.Fatalf("solo sweep executed %d cells, want 32", cells)
	}

	_, _, urls, execs := chaosFleet(t, 3, ChaosPlan{
		Seed:        42,
		DropRate:    0.2,
		ErrorRate:   0.2,
		LatencyRate: 0.3,
		LatencyMS:   5,
	})
	got := sweepDoc(t, urls[0], chaosSweepSpec)
	if string(got) != string(want) {
		t.Errorf("chaos fleet sweep diverges from solo (%d vs %d bytes)", len(got), len(want))
	}
	if n := int(execs.Load()); n > 2*cells {
		t.Errorf("fleet executed %d simulations for %d cells — duplicated work unbounded", n, cells)
	}
}

// TestPeerDeathMidSweepNoClientFailures: with one of three replicas killed
// outright, a streamed sweep through a survivor completes every cell with
// zero error lines, and the dead peer's breaker is open by the end.
func TestPeerDeathMidSweepNoClientFailures(t *testing.T) {
	servers, tss, urls, _ := chaosFleet(t, 3, ChaosPlan{}) // no injected chaos: real death below
	const spec = `{"mixes":["C","D","G","H","L","CD","CG","CH","CL","DG","DH","DL","GH","GL","HL","CGL"],"stream":true}`
	// Kill a replica that owns enough of the sweep's cells to trip its
	// breaker (threshold 2): the ring follows the listeners' random ports,
	// so a fixed choice could own fewer. Closing its listener refuses all
	// future connections.
	var sp SweepSpec
	if err := json.Unmarshal([]byte(spec), &sp); err != nil {
		t.Fatal(err)
	}
	cells, err := sp.expand()
	if err != nil {
		t.Fatal(err)
	}
	owned := map[string]int{}
	for _, c := range cells {
		owned[servers[0].cluster.ring.owner(c.Digest)]++
	}
	dead := 2
	if owned[urls[dead]] < 2 {
		dead = 1
	}
	if owned[urls[dead]] < 2 {
		t.Fatalf("no peer owns two of the sweep's cells: %v", owned)
	}
	deadURL := urls[dead]
	tss[dead].Close()

	resp, err := http.Post(urls[0]+"/sweep", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	var cellLines, errLines int
	var trailer sweepTrailer
	for sc.Scan() {
		line := sc.Bytes()
		var probe map[string]json.RawMessage
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("bad NDJSON line %s: %v", line, err)
		}
		switch {
		case probe["schema"] != nil: // header
		case probe["done"] != nil:
			if err := json.Unmarshal(line, &trailer); err != nil {
				t.Fatal(err)
			}
		default:
			cellLines++
			var l sweepLine
			if err := json.Unmarshal(line, &l); err != nil {
				t.Fatal(err)
			}
			if l.Error != "" {
				errLines++
				t.Errorf("cell %d failed client-visibly: %s", l.Index, l.Error)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if cellLines != 16 || !trailer.Done || trailer.OK != 16 || trailer.Errors != 0 {
		t.Fatalf("stream: %d cell lines, trailer %+v; want 16 cells, done, 0 errors", cellLines, trailer)
	}

	// The dead peer's breaker opened on the coordinating replica (threshold
	// 2; at least two cells hash onto the dead peer).
	h := servers[0].cluster.health[deadURL]
	if h == nil {
		t.Fatal("no health tracker for dead peer")
	}
	if st := h.stateG.Load(); st != breakerOpen && st != breakerHalfOpen {
		t.Errorf("dead peer breaker = %s, want open (or half-open)", breakerStateName(st))
	}

	// With the breaker open, a fresh scenario owned by the dead peer is
	// served locally after one fast-fail — no connection attempt at all.
	var fresh Request
	found := false
	for i := int64(1); i <= 500 && !found; i++ {
		req := Request{Mix: "CGL", FaultRate: 0.01, FaultSeed: i}
		if err := req.Normalize(); err != nil {
			t.Fatal(err)
		}
		if servers[0].cluster.ring.owner(req.Digest()) == deadURL {
			fresh, found = req, true
		}
	}
	if !found {
		t.Fatal("no candidate scenario hashed onto the dead peer")
	}
	body, err := json.Marshal(fresh)
	if err != nil {
		t.Fatal(err)
	}
	resp2, b := post(t, urls[0], string(body))
	if src, _ := decodeEnvelope(t, b); resp2.StatusCode != http.StatusOK || src != srcRun {
		t.Fatalf("breaker-open request: status=%d source=%q body=%s", resp2.StatusCode, src, b)
	}
	if ff := servers[0].svc.peer(deadURL).fastFails.Load(); ff == 0 {
		t.Error("open breaker did not fast-fail — the request paid a full connection error")
	}
}
