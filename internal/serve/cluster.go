package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"relief/internal/svctrace"
)

// forwardHeader marks a request already forwarded once by a peer; the
// receiver executes it locally instead of re-forwarding, so a stale or
// disagreeing ring view can never loop a request around the fleet.
const forwardHeader = "X-Relief-Forwarded"

// servedByHeader names the peer whose response was relayed to the client.
const servedByHeader = "X-Relief-Served-By"

// peerOutcome classifies one exchange with a peer for circuit-breaker
// accounting: a usable answer, a healthy refusal (a full queue's 429 —
// the peer is alive), or a failure (transport error, timeout, 5xx).
type peerOutcome int

const (
	peerOK peerOutcome = iota
	peerMiss
	peerFail
)

// String names an outcome for span events and log records.
func (o peerOutcome) String() string {
	switch o {
	case peerOK:
		return "ok"
	case peerMiss:
		return "miss"
	default:
		return "fail"
	}
}

// cluster is one replica's view of the fleet: its own advertised base URL,
// its peers, the consistent-hash ring that places every digest on exactly
// one owner, and a per-peer health tracker. Immutable after
// ConfigureCluster publishes it (the peerHealth values have their own
// internal locking).
type cluster struct {
	self   string
	peers  []string // sorted, self excluded
	ring   *ring
	client *http.Client // shared by all forwards; per-attempt ctx deadlines bound each call
	fwdTTL time.Duration
	health map[string]*peerHealth // per-peer circuit breakers, keyed by base URL
}

// ConfigureCluster puts the server in cluster mode: self is this replica's
// advertised base URL (e.g. "http://10.0.0.2:8080"), peers the other
// replicas'. Every digest is owned by exactly one fleet member (consistent
// hashing over the full member set, identical on every replica); non-owned
// requests are forwarded to the owner, which answers from its cache or
// simulates, so each popular scenario is simulated once fleet-wide. Call
// before the server starts taking traffic. Trailing slashes are normalized
// away and self is dropped from the peer list, so every replica can be
// handed the same fleet list.
func (s *Server) ConfigureCluster(self string, peers []string) {
	self = strings.TrimRight(strings.TrimSpace(self), "/")
	seen := map[string]bool{self: true}
	var ps []string
	for _, p := range peers {
		p = strings.TrimRight(strings.TrimSpace(p), "/")
		if p == "" || seen[p] {
			continue
		}
		seen[p] = true
		ps = append(ps, p)
	}
	sort.Strings(ps)
	tr := s.cfg.PeerTransport
	if tr == nil {
		tr = http.DefaultTransport
	}
	bc := breakerConfig{threshold: s.cfg.BreakerThreshold}
	health := make(map[string]*peerHealth, len(ps))
	for _, p := range ps {
		h := newPeerHealth(p, bc, time.Now)
		peer := p
		h.notify = func(from, to int32) {
			s.log.Warn("breaker state change",
				"peer", peer,
				"from", breakerStateName(from),
				"to", breakerStateName(to))
		}
		health[p] = h
	}
	c := &cluster{
		self:   self,
		peers:  ps,
		ring:   newRing(append(append([]string{}, ps...), self)),
		client: &http.Client{Transport: tr},
		fwdTTL: s.cfg.Timeout + 15*time.Second,
		health: health,
	}
	s.svc.registerPeers(ps, health)
	s.mu.Lock()
	s.cluster = c
	s.mu.Unlock()
}

// forward re-posts the normalized request to its owner with a per-attempt
// deadline (the simulation budget plus margin) and returns the owner's
// decoded result with its raw envelope for relaying. A transport error, a
// 5xx, or a 200 whose body is not a result envelope is a failure; any
// other refusal (a full queue's 429) is healthy — in every non-OK case the
// caller degrades to local execution, so a peer going down costs
// duplicated work, never a failed request.
func (c *cluster) forward(owner string, req Request, traceID string) (*Result, []byte, peerOutcome) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, nil, peerMiss // our bug, not the peer's: no breaker penalty
	}
	ctx, cancel := context.WithTimeout(context.Background(), c.fwdTTL)
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, owner+"/run", bytes.NewReader(body))
	if err != nil {
		return nil, nil, peerMiss
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(forwardHeader, "1")
	if traceID != "" {
		hreq.Header.Set(svctrace.Header, traceID)
	}
	resp, err := c.client.Do(hreq)
	if err != nil {
		return nil, nil, peerFail
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusOK:
		b, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
		if err != nil {
			return nil, nil, peerFail
		}
		var env response
		if err := json.Unmarshal(b, &env); err != nil || env.Result == nil {
			return nil, nil, peerFail
		}
		return env.Result, b, peerOK
	case resp.StatusCode >= 500:
		return nil, nil, peerFail
	default:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, nil, peerMiss
	}
}

// routeToOwner runs the peer leg of the decision ladder for a digest owned
// elsewhere: breaker gate, then owner forward. It returns the owner's
// result and raw envelope, or a nil result — the caller falls back to
// local execution. The owner's /run answers from its cache before
// admission, so one forward covers both a fleet-cached result and a cold
// one. An open breaker skips the network entirely.
func (s *Server) routeToOwner(tr *svctrace.Trace, cl *cluster, owner, key string, req Request) (*Result, []byte) {
	pc := s.svc.peer(owner)
	h := cl.health[owner]
	if h != nil && !h.allow() {
		sp := tr.StartSpan(stageBreaker)
		sp.Set("peer", owner)
		sp.Set("digest", key)
		sp.Event("state", breakerStateName(h.stateG.Load()))
		s.endSpan(stageBreaker, sp)
		pc.fastFails.Add(1)
		return nil, nil
	}
	sp := tr.StartSpan(stageForward)
	sp.Set("peer", owner)
	sp.Set("digest", key)
	res, relay, o := cl.forward(owner, req, tr.ID())
	if h != nil {
		if o == peerFail {
			h.failure()
		} else {
			h.success()
		}
	}
	sp.Event("outcome", o.String())
	s.endSpan(stageForward, sp)
	if o != peerOK {
		pc.forwardErrors.Add(1)
		return nil, nil
	}
	pc.forwarded.Add(1)
	return res, relay
}

// maxResponseBytes bounds relayed peer responses (metrics documents for
// heavy scenarios run to a few hundred KiB).
const maxResponseBytes = 16 << 20
