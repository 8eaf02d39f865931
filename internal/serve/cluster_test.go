package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
)

// countingStub returns a stub runner that counts executions.
func countingStub(execs *atomic.Int32) func(context.Context, Request) (*Result, error) {
	return func(ctx context.Context, req Request) (*Result, error) {
		execs.Add(1)
		return &Result{Text: "stub:" + req.Mix}, nil
	}
}

// decodeEnvelope decodes a /run response envelope including its source.
func decodeEnvelope(t *testing.T, b []byte) (source string, res Result) {
	t.Helper()
	var env struct {
		Cached bool   `json:"cached"`
		Source string `json:"source"`
		Result
	}
	if err := json.Unmarshal(b, &env); err != nil {
		t.Fatalf("decode envelope %s: %v", b, err)
	}
	return env.Source, env.Result
}

// twoReplicaFleet builds two peered in-process replicas with counting stub
// runners and returns them with their base URLs and exec counters.
func twoReplicaFleet(t *testing.T) (s1, s2 *Server, url1, url2 string, execs1, execs2 *atomic.Int32) {
	t.Helper()
	execs1, execs2 = new(atomic.Int32), new(atomic.Int32)
	s1 = New(Config{Workers: 2, Runner: countingStub(execs1)})
	s2 = New(Config{Workers: 2, Runner: countingStub(execs2)})
	ts1 := httptest.NewServer(s1.Handler())
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(ts1.Close)
	t.Cleanup(ts2.Close)
	s1.ConfigureCluster(ts1.URL, []string{ts2.URL})
	s2.ConfigureCluster(ts2.URL, []string{ts1.URL})
	return s1, s2, ts1.URL, ts2.URL, execs1, execs2
}

// digestOwner computes the body's digest and which fleet member owns it.
func digestOwner(t *testing.T, s *Server, body string) (digest, owner string) {
	t.Helper()
	var req Request
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	digest = req.Digest()
	return digest, s.cluster.ring.owner(digest)
}

// TestTwoReplicaCachePeering: a result cached on the digest's owner is
// served to a request hitting the other replica by one forward that the
// owner answers from its cache — the relayed envelope says "cached": true,
// "source": "cache", no second simulation anywhere in the fleet, and the
// forwarding replica's per-peer counter reflects it.
func TestTwoReplicaCachePeering(t *testing.T) {
	s1, s2, url1, url2, execs1, execs2 := twoReplicaFleet(t)

	const body = `{"mix":"CGL"}`
	_, owner := digestOwner(t, s1, body)
	ownerURL, otherURL := url1, url2
	otherServer := s2
	if owner == url2 {
		ownerURL, otherURL = url2, url1
		otherServer = s1
	}

	// Warm the owner: it owns the digest, so it simulates locally.
	resp, b := post(t, ownerURL, body)
	if src, _ := decodeEnvelope(t, b); resp.StatusCode != http.StatusOK || src != srcRun {
		t.Fatalf("warming the owner: status=%d source=%q body=%s", resp.StatusCode, src, b)
	}

	// The same scenario through the other replica must come from the
	// owner's cache, not a second simulation.
	resp, b = post(t, otherURL, body)
	src, res := decodeEnvelope(t, b)
	if resp.StatusCode != http.StatusOK || src != srcCache {
		t.Fatalf("non-owner request: status=%d source=%q body=%s", resp.StatusCode, src, b)
	}
	if cached, _ := decodeResponse(t, b); !cached {
		t.Errorf("relayed envelope not marked cached: %s", b)
	}
	if got := resp.Header.Get(servedByHeader); got != ownerURL {
		t.Errorf("%s = %q, want %q", servedByHeader, got, ownerURL)
	}
	if res.Text != "stub:CGL" {
		t.Errorf("relayed result text = %q", res.Text)
	}
	if got := execs1.Load() + execs2.Load(); got != 1 {
		t.Errorf("fleet executed %d simulations, want 1", got)
	}
	if n := otherServer.svc.peer(ownerURL).forwarded.Load(); n != 1 {
		t.Errorf("forwarded counter = %d, want 1", n)
	}

	// The labelled counter shows up on /metrics.
	mresp, err := http.Get(otherURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	mb, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{
		`relief_serve_forwarded_total{peer="` + ownerURL + `"} 1`,
		`relief_serve_peer_breaker_state{peer="` + ownerURL + `"} 0`,
		`relief_serve_peer_breaker_opens_total{peer="` + ownerURL + `"} 0`,
		`relief_serve_peer_retries_total{peer="` + ownerURL + `"} 0`,
		`relief_serve_peer_fast_fails_total{peer="` + ownerURL + `"} 0`,
	} {
		if !strings.Contains(string(mb), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestForwardToOwnerComputesOnce: on a cold fleet, a request landing on a
// non-owner is forwarded to the owner, which runs it there, and a later
// identical request is forwarded again and answered from the owner's
// cache. One simulation total, owned side.
func TestForwardToOwnerComputesOnce(t *testing.T) {
	s1, _, url1, url2, execs1, execs2 := twoReplicaFleet(t)

	const body = `{"mix":"CDH"}`
	_, owner := digestOwner(t, s1, body)
	otherURL := url2
	ownerExecs, otherExecs := execs1, execs2
	if owner == url2 {
		otherURL = url1
		ownerExecs, otherExecs = execs2, execs1
	}

	resp, b := post(t, otherURL, body)
	src, _ := decodeEnvelope(t, b)
	if resp.StatusCode != http.StatusOK || src != srcRun {
		t.Fatalf("cold forward: status=%d source=%q body=%s (the relayed envelope carries the owner's source)",
			resp.StatusCode, src, b)
	}
	if got := resp.Header.Get(servedByHeader); got != owner {
		t.Errorf("%s = %q, want %q", servedByHeader, got, owner)
	}
	if ownerExecs.Load() != 1 || otherExecs.Load() != 0 {
		t.Fatalf("execs owner=%d other=%d, want 1/0 (forwarded work runs on the owner)",
			ownerExecs.Load(), otherExecs.Load())
	}

	// Round two: the owner's cache answers the forward.
	resp, b = post(t, otherURL, body)
	if src, _ := decodeEnvelope(t, b); resp.StatusCode != http.StatusOK || src != srcCache {
		t.Fatalf("warm forward: status=%d source=%q body=%s", resp.StatusCode, src, b)
	}
	if got := resp.Header.Get(servedByHeader); got != owner {
		t.Errorf("warm %s = %q, want %q", servedByHeader, got, owner)
	}
	if got := ownerExecs.Load() + otherExecs.Load(); got != 1 {
		t.Errorf("fleet executed %d simulations, want 1", got)
	}
}

// countingTransport counts every peer HTTP request that passes through it.
type countingTransport struct{ n atomic.Int32 }

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	c.n.Add(1)
	return http.DefaultTransport.RoundTrip(req)
}

// TestNonOwnedRunOnePeerRequest: a non-owned /run costs exactly one peer
// round trip whether the owner has the result cached or not — the owner's
// /run checks its cache before admission, so no separate lookup precedes
// the forward.
func TestNonOwnedRunOnePeerRequest(t *testing.T) {
	s1, s2, url1, url2, execs1, execs2 := twoReplicaFleet(t)
	var peerReqs countingTransport
	s1.cluster.client.Transport = &peerReqs
	s2.cluster.client.Transport = &peerReqs

	const body = `{"mix":"CGL"}`
	_, owner := digestOwner(t, s1, body)
	otherURL := url2
	if owner == url2 {
		otherURL = url1
	}
	for i, want := range []string{srcRun, srcCache} { // cold, then warm
		before := peerReqs.n.Load()
		resp, b := post(t, otherURL, body)
		if src, _ := decodeEnvelope(t, b); resp.StatusCode != http.StatusOK || src != want {
			t.Fatalf("request %d: status=%d source=%q, want %q", i, resp.StatusCode, src, want)
		}
		if got := peerReqs.n.Load() - before; got != 1 {
			t.Errorf("request %d (%s) made %d peer requests, want exactly 1", i, want, got)
		}
	}
	if got := execs1.Load() + execs2.Load(); got != 1 {
		t.Errorf("fleet executed %d simulations, want 1", got)
	}
}

// peerOwnedBody returns a /run body whose digest the ring places on peer
// (about half of all digests in a two-member fleet).
func peerOwnedBody(t *testing.T, s *Server, peer string) string {
	t.Helper()
	for _, mix := range []string{
		`{"mix":"C"}`, `{"mix":"D"}`, `{"mix":"G"}`, `{"mix":"H"}`, `{"mix":"L"}`,
		`{"mix":"CD"}`, `{"mix":"CG"}`, `{"mix":"CH"}`, `{"mix":"CL"}`, `{"mix":"DG"}`,
		`{"mix":"DH"}`, `{"mix":"DL"}`, `{"mix":"GH"}`, `{"mix":"GL"}`, `{"mix":"HL"}`,
	} {
		if _, owner := digestOwner(t, s, mix); owner == peer {
			return mix
		}
	}
	t.Fatalf("no candidate scenario hashed onto peer %s", peer)
	return ""
}

// TestPeerDownFallsBackLocally: when a digest's owner is unreachable, the
// request must still succeed — the forward fails and the replica simulates
// locally. A dead peer costs duplicated work, never an error.
func TestPeerDownFallsBackLocally(t *testing.T) {
	const deadPeer = "http://127.0.0.1:9" // discard port: connections refuse fast
	var execs atomic.Int32
	s := New(Config{Workers: 1, Runner: countingStub(&execs)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.ConfigureCluster(ts.URL, []string{deadPeer})

	body := peerOwnedBody(t, s, deadPeer)
	resp, b := post(t, ts.URL, body)
	src, _ := decodeEnvelope(t, b)
	if resp.StatusCode != http.StatusOK || src != srcRun {
		t.Fatalf("peer-down request: status=%d source=%q body=%s", resp.StatusCode, src, b)
	}
	if execs.Load() != 1 {
		t.Errorf("local fallback executed %d simulations, want 1", execs.Load())
	}
	// The forward's transport failure feeds the owner's breaker.
	pc := s.svc.peer(deadPeer)
	if pc.forwarded.Load() != 0 || pc.forwardErrors.Load() != 1 {
		t.Errorf("dead peer counters: forwarded=%d forward_errors=%d, want 0/1",
			pc.forwarded.Load(), pc.forwardErrors.Load())
	}
	if h := s.cluster.health[deadPeer]; h == nil {
		t.Error("dead peer has no health tracker")
	} else {
		h.mu.Lock()
		fails := h.fails
		h.mu.Unlock()
		if fails == 0 {
			t.Error("forward failure did not feed the dead peer's breaker")
		}
	}

	// A second request hits the local cache and never touches the peer.
	resp, b = post(t, ts.URL, body)
	if src, _ := decodeEnvelope(t, b); resp.StatusCode != http.StatusOK || src != srcCache {
		t.Fatalf("repeat request: status=%d source=%q", resp.StatusCode, src)
	}
	if pc.forwardErrors.Load() != 1 {
		t.Errorf("cached repeat contacted the dead peer again (forward_errors=%d)", pc.forwardErrors.Load())
	}
}

// TestForwardedRequestNeverReforwards: a request already forwarded once is
// executed locally even by a replica that does not own its digest, so ring
// disagreement cannot loop requests around the fleet.
func TestForwardedRequestNeverReforwards(t *testing.T) {
	s1, _, url1, url2, execs1, execs2 := twoReplicaFleet(t)

	const body = `{"mix":"GL"}`
	_, owner := digestOwner(t, s1, body)
	// Send to the NON-owner with the forwarded marker set: it must run the
	// simulation itself rather than bounce it onward.
	target := url1
	targetExecs, otherExecs := execs1, execs2
	if owner == url1 {
		target = url2
		targetExecs, otherExecs = execs2, execs1
	}
	req, err := http.NewRequest(http.MethodPost, target+"/run", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(forwardHeader, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if src, _ := decodeEnvelope(t, b); resp.StatusCode != http.StatusOK || src != srcRun {
		t.Fatalf("forwarded request: status=%d source=%q body=%s", resp.StatusCode, src, b)
	}
	if targetExecs.Load() != 1 || otherExecs.Load() != 0 {
		t.Errorf("execs target=%d other=%d, want 1/0 (no re-forwarding)", targetExecs.Load(), otherExecs.Load())
	}
}

// TestGarbledOwnerFallsBackLocally: an owner that answers 200 with a body
// that is not a result envelope (a misconfigured proxy's HTML page) is a
// failed forward — the replica simulates locally and answers with its own
// envelope, and the failure feeds the owner's breaker and forward-error
// counter. The client never sees the garbage.
func TestGarbledOwnerFallsBackLocally(t *testing.T) {
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		io.WriteString(w, "<html>proxy error</html>")
	}))
	defer peer.Close()
	var execs atomic.Int32
	s := New(Config{Workers: 1, Runner: countingStub(&execs)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.ConfigureCluster(ts.URL, []string{peer.URL})

	resp, b := post(t, ts.URL, peerOwnedBody(t, s, peer.URL))
	src, _ := decodeEnvelope(t, b)
	if resp.StatusCode != http.StatusOK || src != srcRun {
		t.Fatalf("garbled-owner request: status=%d source=%q body=%s", resp.StatusCode, src, b)
	}
	if got := resp.Header.Get(servedByHeader); got != "" {
		t.Errorf("%s = %q on a locally simulated answer", servedByHeader, got)
	}
	if execs.Load() != 1 {
		t.Errorf("local fallback executed %d simulations, want 1", execs.Load())
	}
	pc := s.svc.peer(peer.URL)
	if pc.forwarded.Load() != 0 || pc.forwardErrors.Load() != 1 {
		t.Errorf("garbled peer counters: forwarded=%d forward_errors=%d, want 0/1",
			pc.forwarded.Load(), pc.forwardErrors.Load())
	}
	h := s.cluster.health[peer.URL]
	h.mu.Lock()
	fails := h.fails
	h.mu.Unlock()
	if fails != 1 {
		t.Errorf("breaker failure streak = %d, want 1", fails)
	}
}

// TestDrainingCellAnswersOnlyFromCache: /run and sweep cells share one
// drain rule — a draining replica answers from its cache and refuses
// everything else with errDraining, without forwarding to the owner.
func TestDrainingCellAnswersOnlyFromCache(t *testing.T) {
	var peerReqs atomic.Int32
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		peerReqs.Add(1)
		http.Error(w, "unexpected peer request", http.StatusInternalServerError)
	}))
	defer peer.Close()
	var execs atomic.Int32
	s := New(Config{Workers: 1, Runner: countingStub(&execs)})
	s.ConfigureCluster("http://self.invalid", []string{peer.URL})

	cellReq := func(body string) (Request, string) {
		var req Request
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		if err := req.Normalize(); err != nil {
			t.Fatal(err)
		}
		return req, req.Digest()
	}
	cold, coldKey := cellReq(peerOwnedBody(t, s, peer.URL))
	warm, warmKey := cellReq(`{"mix":"CDL"}`)
	s.storeResult(warmKey, &Result{Digest: warmKey, Text: "cached"})
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	if _, err := s.resolve(context.Background(), nil, cold, coldKey, false, true); !errors.Is(err, errDraining) {
		t.Errorf("uncached cell while draining: err = %v, want errDraining", err)
	}
	if n := peerReqs.Load(); n != 0 {
		t.Errorf("draining replica made %d peer requests, want 0", n)
	}
	ans, err := s.resolve(context.Background(), nil, warm, warmKey, false, true)
	if err != nil || ans.src != srcCache || ans.res.Text != "cached" {
		t.Errorf("cached cell while draining: src=%q err=%v, want a cache answer", ans.src, err)
	}
	if execs.Load() != 0 {
		t.Errorf("draining replica executed %d simulations, want 0", execs.Load())
	}
}
