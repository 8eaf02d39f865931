package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"relief/internal/exp"
)

func postSweep(t *testing.T, url, spec string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/sweep", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatalf("POST /sweep: %v", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, b
}

// TestSweepExpansion: the grid is the cross product of the axes, each cell
// normalized, with digest-identical cells deduplicated.
func TestSweepExpansion(t *testing.T) {
	spec := SweepSpec{
		Mixes:    []string{"CGL", "CGL", "CDH"}, // duplicate mix collapses
		Policies: []string{"FCFS", "RELIEF"},
	}
	cells, err := spec.expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("expanded %d cells, want 4 (2 mixes × 2 policies)", len(cells))
	}
	seen := map[string]bool{}
	for _, c := range cells {
		if seen[c.Digest] {
			t.Errorf("duplicate digest %s survived expansion", c.Digest)
		}
		seen[c.Digest] = true
		if c.Request.Policy != "FCFS" && c.Request.Policy != "RELIEF" {
			t.Errorf("unexpected policy %q", c.Request.Policy)
		}
	}

	// Contention levels expand to the canonical mix sets: low = 5 single
	// apps, and the continuous level marks its cells continuous.
	lvl := SweepSpec{Contention: []string{"low", "continuous"}}
	cells, err = lvl.expand()
	if err != nil {
		t.Fatal(err)
	}
	var continuous int
	for _, c := range cells {
		if c.Request.Continuous {
			continuous++
		}
	}
	if len(cells) != 15 || continuous != 10 {
		t.Errorf("low+continuous expanded to %d cells (%d continuous), want 15 with 10 continuous",
			len(cells), continuous)
	}
}

// invalidSweepSpecs are /sweep bodies that must be 400s, not half-run
// sweeps: empty grids, unknown contention levels, bad mixes, unknown spec
// fields, and raw grids past maxSweepCells even when dedup would shrink
// them.
var invalidSweepSpecs = map[string]string{
	"empty grid":         `{}`,
	"unknown contention": `{"contention":["extreme"]}`,
	"bad mix":            `{"mixes":["QQ"]}`,
	"unknown field":      `{"mixez":["C"]}`,
	// 10^6 raw points that dedup to one cell: rejected before enumeration.
	"oversized raw grid": `{"mixes":[` + strings.Repeat(`"C",`, 999) + `"C"],"policies":[` +
		strings.Repeat(`"RELIEF",`, 999) + `"RELIEF"]}`,
}

func TestSweepValidation(t *testing.T) {
	s := New(Config{Workers: 1, Runner: countingStub(new(atomic.Int32))})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for name, spec := range invalidSweepSpecs {
		resp, b := postSweep(t, ts.URL, spec)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", name, resp.StatusCode, b)
		}
	}
}

// FuzzSweepSpec drives arbitrary /sweep bodies through the handler's decode
// and expand, without simulating. An accepted spec yields 1..maxSweepCells
// cells with unique digests, each already normalized: normalizing it again
// keeps its digest.
func FuzzSweepSpec(f *testing.F) {
	f.Add([]byte(`{"mixes":["CGL","CGL","CDH"],"policies":["FCFS","RELIEF"]}`))
	f.Add([]byte(`{"contention":["low","continuous"]}`))
	for _, spec := range invalidSweepSpecs {
		f.Add([]byte(spec))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec SweepSpec
		if err := decodeStrict(bytes.NewReader(body), &spec); err != nil {
			return
		}
		cells, err := spec.expand()
		if err != nil {
			return
		}
		if len(cells) < 1 || len(cells) > maxSweepCells {
			t.Fatalf("%s expanded to %d cells, want 1..%d", body, len(cells), maxSweepCells)
		}
		seen := make(map[string]bool, len(cells))
		for _, c := range cells {
			if seen[c.Digest] {
				t.Fatalf("%s: duplicate digest %s", body, c.Digest)
			}
			seen[c.Digest] = true
			req := c.Request
			if err := req.Normalize(); err != nil {
				t.Fatalf("%s: re-normalizing cell %+v: %v", body, c.Request, err)
			}
			if d := req.Digest(); d != c.Digest {
				t.Fatalf("%s: re-normalizing cell %+v moved its digest %s to %s", body, c.Request, c.Digest, d)
			}
		}
	})
}

// TestSweepStreamFraming: stream mode emits a schema header, one line per
// cell, and a done trailer; every expanded cell appears exactly once.
func TestSweepStreamFraming(t *testing.T) {
	var execs atomic.Int32
	s := New(Config{Workers: 2, Runner: countingStub(&execs)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, b := postSweep(t, ts.URL, `{"mixes":["C","D","G"],"policies":["FCFS","RELIEF"],"stream":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	if len(lines) != 8 { // header + 6 cells + trailer
		t.Fatalf("stream has %d lines, want 8:\n%s", len(lines), b)
	}
	var header sweepHeader
	if err := json.Unmarshal(lines[0], &header); err != nil || header.Schema != SweepSchema || header.Cells != 6 {
		t.Fatalf("bad header %s (err %v)", lines[0], err)
	}
	indices := map[int]bool{}
	for _, ln := range lines[1 : len(lines)-1] {
		var cell sweepLine
		if err := json.Unmarshal(ln, &cell); err != nil {
			t.Fatalf("bad cell line %s: %v", ln, err)
		}
		if cell.Error != "" || cell.Result == nil || cell.Source != srcRun {
			t.Errorf("cell %d: error=%q source=%q", cell.Index, cell.Error, cell.Source)
		}
		if indices[cell.Index] {
			t.Errorf("cell index %d streamed twice", cell.Index)
		}
		indices[cell.Index] = true
	}
	var trailer sweepTrailer
	if err := json.Unmarshal(lines[len(lines)-1], &trailer); err != nil || !trailer.Done || trailer.OK != 6 || trailer.Errors != 0 {
		t.Fatalf("bad trailer %s (err %v)", lines[len(lines)-1], err)
	}
	if execs.Load() != 6 {
		t.Errorf("executed %d cells, want 6", execs.Load())
	}
}

// TestSweepMergedMatchesExpSweep is the tentpole golden test: the merged
// document POST /sweep returns must be byte-identical to exp.Sweep's
// DumpJSON over the same scenarios — the serving layer adds distribution,
// never a different answer.
func TestSweepMergedMatchesExpSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations; skipped in -short")
	}
	s := New(Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const spec = `{"mixes":["C","D"],"policies":["FCFS","RELIEF"],"metrics":false}`
	resp, got := postSweep(t, ts.URL, spec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}

	var sp SweepSpec
	if err := json.Unmarshal([]byte(spec), &sp); err != nil {
		t.Fatal(err)
	}
	cells, err := sp.expand()
	if err != nil {
		t.Fatal(err)
	}
	ref := exp.NewSweep()
	for _, c := range cells {
		sc, err := c.Request.Scenario()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ref.Get(sc); err != nil {
			t.Fatal(err)
		}
	}
	var want bytes.Buffer
	if err := ref.DumpJSON(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("merged sweep diverges from exp.Sweep.DumpJSON:\n--- serve ---\n%s\n--- exp ---\n%s", got, want.Bytes())
	}
}

// TestSweepPeriodicHorizons drives the full POST /sweep path with a horizon
// axis: the merged document must carry one cell per horizon, and each cell's
// summary must be byte-identical to an interactive /run of the same request
// on a separate server.
func TestSweepPeriodicHorizons(t *testing.T) {
	s := New(Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/sweep", "application/json",
		strings.NewReader(`{"mixes":["CG"],"period_ms":5,"horizons_ms":[15,20]}`))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: status=%d body=%s", resp.StatusCode, body)
	}
	var cells []exp.Cell
	if err := json.Unmarshal(body, &cells); err != nil {
		t.Fatalf("merged sweep document: %v", err)
	}
	if len(cells) != 2 {
		t.Fatalf("sweep produced %d cells, want 2 (one per horizon)", len(cells))
	}

	// Reference: a separate server that never saw the sweep answers /run.
	cold := New(Config{Workers: 2})
	tsCold := httptest.NewServer(cold.Handler())
	defer tsCold.Close()
	for _, horizon := range []int{15, 20} {
		reqBody := fmt.Sprintf(`{"mix":"CG","period_ms":5,"horizon_ms":%d}`, horizon)
		resp, b := post(t, tsCold.URL, reqBody)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cold run: status=%d body=%s", resp.StatusCode, b)
		}
		_, coldRes := decodeEnvelope(t, b)

		resp, b = post(t, ts.URL, reqBody)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sweep-server run: status=%d body=%s", resp.StatusCode, b)
		}
		src, sweepRes := decodeEnvelope(t, b)
		if src != srcCache {
			t.Errorf("horizon %d: post-sweep /run source %q, want cache (sweep populated it)", horizon, src)
		}
		if sweepRes.Text != coldRes.Text {
			t.Errorf("horizon %d: sweep cell text diverged from /run:\nsweep:\n%s\nrun:\n%s",
				horizon, sweepRes.Text, coldRes.Text)
		}
	}
}

// TestClusterSweepMergedIdentical: the same grid swept through a two-replica
// fleet produces a byte-identical document to a solo server — distribution
// must not change a single byte of the science.
func TestClusterSweepMergedIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations; skipped in -short")
	}
	const spec = `{"mixes":["C","G"],"policies":["FCFS","RELIEF"]}`

	solo := New(Config{Workers: 2})
	tsSolo := httptest.NewServer(solo.Handler())
	defer tsSolo.Close()
	respSolo, wantDoc := postSweep(t, tsSolo.URL, spec)
	if respSolo.StatusCode != http.StatusOK {
		t.Fatalf("solo sweep: status %d: %s", respSolo.StatusCode, wantDoc)
	}

	s1 := New(Config{Workers: 2})
	s2 := New(Config{Workers: 2})
	ts1 := httptest.NewServer(s1.Handler())
	ts2 := httptest.NewServer(s2.Handler())
	defer ts1.Close()
	defer ts2.Close()
	s1.ConfigureCluster(ts1.URL, []string{ts2.URL})
	s2.ConfigureCluster(ts2.URL, []string{ts1.URL})

	respFleet, gotDoc := postSweep(t, ts1.URL, spec)
	if respFleet.StatusCode != http.StatusOK {
		t.Fatalf("fleet sweep: status %d: %s", respFleet.StatusCode, gotDoc)
	}
	if !bytes.Equal(gotDoc, wantDoc) {
		t.Errorf("fleet merge diverges from solo merge:\n--- fleet ---\n%s\n--- solo ---\n%s", gotDoc, wantDoc)
	}
}

// TestClusterSweepDistributesCells: a sweep through one coordinator places
// work on both replicas by ring ownership, and no cell runs twice.
func TestClusterSweepDistributesCells(t *testing.T) {
	s1, _, url1, url2, execs1, execs2 := twoReplicaFleet(t)

	// The ring follows the listeners' random ports, so one fixed grid can
	// land wholly on one replica. Sweep the first 10-cell grid of which
	// each replica owns at least one cell.
	spec := ""
	for _, policies := range []string{`"FCFS","RELIEF"`, `"LAX","GEDF-N"`, `"LL","HetSched"`, `"GEDF-D","RELIEF-LAX"`} {
		cand := `{"contention":["low"],"policies":[` + policies + `]}`
		var sp SweepSpec
		if err := json.Unmarshal([]byte(cand), &sp); err != nil {
			t.Fatal(err)
		}
		cells, err := sp.expand()
		if err != nil {
			t.Fatal(err)
		}
		owned := map[string]int{}
		for _, c := range cells {
			owned[s1.cluster.ring.owner(c.Digest)]++
		}
		if owned[url1] > 0 && owned[url2] > 0 {
			spec = cand
			break
		}
	}
	if spec == "" {
		t.Fatal("every candidate grid lands on one replica")
	}

	resp, b := postSweep(t, url1, spec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	e1, e2 := execs1.Load(), execs2.Load()
	if e1+e2 != 10 {
		t.Errorf("fleet executed %d cells, want exactly 10 (each cell once)", e1+e2)
	}
	if e1 == 0 || e2 == 0 {
		t.Errorf("cells did not distribute: replica execs %d/%d", e1, e2)
	}
}
