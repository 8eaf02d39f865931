package serve

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"relief/internal/exp"
)

// digestOf decodes raw JSON, normalizes, and digests — the handler's exact
// path to a cache key.
func digestOf(t *testing.T, raw string) string {
	t.Helper()
	var req Request
	if err := json.Unmarshal([]byte(raw), &req); err != nil {
		t.Fatalf("decode %s: %v", raw, err)
	}
	if err := req.Normalize(); err != nil {
		t.Fatalf("normalize %s: %v", raw, err)
	}
	return req.Digest()
}

// equivalentRequests spell one scenario several ways: the first entry is
// the base spelling, and every other must digest identically.
var equivalentRequests = []string{
	`{"mix":"CGL","policy":"LAX","metrics":true,"fault_rate":0.01}`,
	`{"fault_rate":0.01,"metrics":true,"policy":"LAX","mix":"CGL"}`,
	`{"metrics": true, "mix": "CGL", "fault_rate": 1e-2, "policy": "LAX"}`,
	// Defaults spelled out must not change the key.
	`{"mix":"CGL","policy":"LAX","metrics":true,"fault_rate":0.01,
	  "topology":"bus","bw":"max","fault_seed":1,"continuous":false}`,
	// timeout_ms is a delivery knob, excluded from the digest.
	`{"mix":"CGL","policy":"LAX","metrics":true,"fault_rate":0.01,"timeout_ms":5000}`,
}

// TestDigestFieldOrderIndependent: the digest is a function of the
// scenario, not of JSON spelling — reordered fields, whitespace, and
// explicitly-spelled defaults all hash identically.
func TestDigestFieldOrderIndependent(t *testing.T) {
	base := digestOf(t, equivalentRequests[0])
	for _, raw := range equivalentRequests[1:] {
		if d := digestOf(t, raw); d != base {
			t.Errorf("digest of %s = %s, want %s", raw, d, base)
		}
	}
}

// distinctRequests are pairwise different scenarios.
var distinctRequests = []string{
	`{"mix":"CGL"}`,
	`{"mix":"CLG"}`, // submission order is part of the scenario
	`{"mix":"CGL","policy":"LAX"}`,
	`{"mix":"CGL","continuous":true}`,
	`{"mix":"CGL","topology":"xbar"}`,
	`{"mix":"CGL","bw":"ewma"}`,
	`{"mix":"CGL","predict_dm":true}`,
	`{"mix":"CGL","no_forwarding":true}`,
	`{"mix":"CGL","detailed_dram":true}`,
	`{"mix":"CGL","detailed_dram":true,"dram_fcfs":true}`,
	`{"mix":"CGL","fault_rate":0.01}`,
	`{"mix":"CGL","fault_rate":0.01,"fault_seed":2}`,
	`{"mix":"CGL","metrics":true}`,
}

// TestDigestSeparatesScenarios: any semantically different request must
// get a different content address.
func TestDigestSeparatesScenarios(t *testing.T) {
	seen := map[string]string{}
	for _, raw := range distinctRequests {
		d := digestOf(t, raw)
		if prev, dup := seen[d]; dup {
			t.Errorf("digest collision: %s and %s both hash to %s", prev, raw, d)
		}
		seen[d] = raw
	}
}

// TestDigestUsesExpScenarioKey: the serve digest hashes exactly the bytes
// exp.Sweep memoizes on (exp.AppendScenarioKey), plus a version prefix and
// the metrics bit. One canonicalization, two layers: two requests share a
// serve cache entry if and only if an exp sweep would share their result —
// which is what makes forwarded cache hits and sweep merges safe.
func TestDigestUsesExpScenarioKey(t *testing.T) {
	for _, raw := range []string{
		`{"mix":"CGL"}`,
		`{"mix":"CDH","policy":"LAX","topology":"xbar","bw":"ewma"}`,
		`{"mix":"GL","continuous":true,"detailed_dram":true,"dram_fcfs":true}`,
		`{"mix":"C","fault_rate":0.01,"fault_seed":7,"predict_dm":true,"no_forwarding":true}`,
	} {
		var a, b Request
		for _, req := range []*Request{&a, &b} {
			if err := json.Unmarshal([]byte(raw), req); err != nil {
				t.Fatal(err)
			}
			if err := req.Normalize(); err != nil {
				t.Fatal(err)
			}
		}
		scA, err := a.Scenario()
		if err != nil {
			t.Fatal(err)
		}
		scB, err := b.Scenario()
		if err != nil {
			t.Fatal(err)
		}
		// Same scenario key <=> same digest, in both directions.
		if exp.ScenarioKey(scA) != exp.ScenarioKey(scB) || a.Digest() != b.Digest() {
			t.Errorf("%s: identical requests disagree (key or digest)", raw)
		}
	}

	// Requests whose exp scenario keys differ must digest differently, and
	// requests mapping to the same scenario key must share a digest even
	// when spelled differently.
	spellings := map[string][]string{
		"same": {
			`{"mix":"CGL","fault_seed":3}`, // seed is inert at rate 0...
			`{"mix":"CGL","fault_seed":9}`,
		},
		"diff": {
			`{"mix":"CGL","fault_rate":0.01,"fault_seed":3}`, // ...and significant above it
			`{"mix":"CGL","fault_rate":0.01,"fault_seed":9}`,
		},
	}
	keyOf := func(raw string) (string, string) {
		var req Request
		if err := json.Unmarshal([]byte(raw), &req); err != nil {
			t.Fatal(err)
		}
		if err := req.Normalize(); err != nil {
			t.Fatal(err)
		}
		sc, err := req.Scenario()
		if err != nil {
			t.Fatal(err)
		}
		return exp.ScenarioKey(sc), req.Digest()
	}
	for name, pair := range spellings {
		k0, d0 := keyOf(pair[0])
		k1, d1 := keyOf(pair[1])
		if (k0 == k1) != (name == "same") || (d0 == d1) != (name == "same") {
			t.Errorf("%s pair: scenario-key equality %v, digest equality %v", name, k0 == k1, d0 == d1)
		}
		if (k0 == k1) != (d0 == d1) {
			t.Errorf("%s pair: digest and scenario key disagree — canonicalization has diverged", name)
		}
	}

	// The digest is versioned so a future key-schema change cannot silently
	// alias old cache entries.
	var req Request
	if err := json.Unmarshal([]byte(`{"mix":"C"}`), &req); err != nil {
		t.Fatal(err)
	}
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	if d := req.Digest(); len(d) != 64 || strings.ContainsAny(d, "ABCDEF") {
		t.Errorf("digest %q is not lowercase hex sha256", d)
	}
}

// TestDigestIgnoresSeedWithoutFaults: the injection seed is meaningless at
// rate zero, so it must not fragment the cache.
func TestDigestIgnoresSeedWithoutFaults(t *testing.T) {
	a := digestOf(t, `{"mix":"C"}`)
	b := digestOf(t, `{"mix":"C","fault_seed":99}`)
	if a != b {
		t.Error("fault_seed changed the digest of a fault-free request")
	}
}

// invalidRequests decode but fail Normalize.
var invalidRequests = []string{
	`{}`,                           // no mix
	`{"mix":"Z"}`,                  // unknown symbol
	`{"mix":"CGLD"}`,               // too many apps
	`{"mix":"C","policy":"BOGUS"}`, // unknown policy
	`{"mix":"C","topology":"mesh"}`,
	`{"mix":"C","bw":"oracle"}`,
	`{"mix":"C","fault_rate":1.5}`,
	`{"mix":"C","fault_rate":-0.1}`,
	`{"mix":"C","timeout_ms":-1}`,
}

func TestNormalizeRejectsInvalid(t *testing.T) {
	for _, raw := range invalidRequests {
		var req Request
		if err := json.Unmarshal([]byte(raw), &req); err != nil {
			t.Fatalf("decode %s: %v", raw, err)
		}
		if err := req.Normalize(); err == nil {
			t.Errorf("Normalize accepted %s", raw)
		}
	}
}

// TestRequestPeriodicNormalize pins the periodic request knobs: negatives
// rejected, horizon meaningless (and zeroed) without a period, and the
// period/horizon pair reaching the scenario and its digest.
func TestRequestPeriodicNormalize(t *testing.T) {
	bad := Request{Mix: "C", PeriodMS: -1}
	if err := bad.Normalize(); err == nil {
		t.Error("negative period accepted")
	}
	bad = Request{Mix: "C", PeriodMS: 5, HorizonMS: -1}
	if err := bad.Normalize(); err == nil {
		t.Error("negative horizon accepted")
	}

	orphan := Request{Mix: "C", HorizonMS: 20}
	if err := orphan.Normalize(); err != nil {
		t.Fatal(err)
	}
	plain := Request{Mix: "C"}
	if err := plain.Normalize(); err != nil {
		t.Fatal(err)
	}
	if orphan.Digest() != plain.Digest() {
		t.Error("horizon without period should normalize away (digest mismatch)")
	}

	periodic := Request{Mix: "C", PeriodMS: 5, HorizonMS: 20}
	if err := periodic.Normalize(); err != nil {
		t.Fatal(err)
	}
	if periodic.Digest() == plain.Digest() {
		t.Error("periodic request digests identically to the aperiodic one")
	}
	sc, err := periodic.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if sc.Period != msToTime(5) || sc.Horizon != msToTime(20) {
		t.Errorf("scenario period/horizon = %v/%v", sc.Period, sc.Horizon)
	}
}

// FuzzRequest drives arbitrary /run bodies through the handler's decode,
// Normalize, and Digest. Normalize must be idempotent, and the normalized
// request must survive the JSON round trip a forward to the digest's owner
// makes: the owner's decode and Normalize land on the same digest.
func FuzzRequest(f *testing.F) {
	for _, seeds := range [][]string{equivalentRequests, distinctRequests, invalidRequests} {
		for _, raw := range seeds {
			f.Add([]byte(raw))
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req Request
		if err := decodeStrict(bytes.NewReader(body), &req); err != nil {
			return
		}
		if err := req.Normalize(); err != nil {
			return
		}
		key := req.Digest()
		if err := req.Normalize(); err != nil {
			t.Fatalf("second Normalize of %s: %v", body, err)
		}
		if d := req.Digest(); d != key {
			t.Fatalf("Normalize not idempotent for %s: digest %s then %s", body, key, d)
		}
		wire, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("marshal normalized %+v: %v", req, err)
		}
		var back Request
		if err := decodeStrict(bytes.NewReader(wire), &back); err != nil {
			t.Fatalf("decode of marshalled %s: %v", wire, err)
		}
		if d := back.Digest(); d != key {
			t.Fatalf("round trip changed the digest of %s: %s then %s (wire %s)", body, key, d, wire)
		}
		if err := back.Normalize(); err != nil {
			t.Fatalf("Normalize of round-tripped %s: %v", wire, err)
		}
		if d := back.Digest(); d != key {
			t.Fatalf("owner-side digest of %s = %s, want %s", wire, d, key)
		}
	})
}

func TestLRUCache(t *testing.T) {
	c := newCache(2)
	ra, rb, rc := &Result{Text: "a"}, &Result{Text: "b"}, &Result{Text: "c"}
	c.add("a", ra)
	c.add("b", rb)
	if _, ok := c.get("a"); !ok { // touches a: b becomes LRU
		t.Fatal("a missing")
	}
	c.add("c", rc) // evicts b
	if _, ok := c.get("b"); ok {
		t.Error("b survived eviction")
	}
	if got, ok := c.get("a"); !ok || got != ra {
		t.Error("a evicted or wrong value")
	}
	if got, ok := c.get("c"); !ok || got != rc {
		t.Error("c missing")
	}
	if c.len() != 2 {
		t.Errorf("len = %d, want 2", c.len())
	}
	// Re-adding an existing key updates in place, no growth.
	c.add("a", rb)
	if got, _ := c.get("a"); got != rb || c.len() != 2 {
		t.Error("in-place update failed")
	}
}
