package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"

	"relief/internal/exp"
	"relief/internal/workload"
)

// SweepSchema identifies the streamed sweep's NDJSON framing.
const SweepSchema = "relief-sweep/1"

// maxSweepCells bounds one sweep's grid so a typo'd spec cannot enqueue an
// unbounded amount of work.
const maxSweepCells = 4096

var errSweepTooLarge = fmt.Errorf("serve: sweep grid exceeds %d cells", maxSweepCells)

// SweepSpec is the POST /sweep grid: the cross product of the axis fields
// (mixes/contention levels × policies × topologies × bandwidth predictors),
// with the scalar knobs applied to every cell — the same vocabulary as
// internal/exp's sweep grids and relief-sim's flags. Cells deduplicate by
// content digest, each runs as if POSTed to /run individually (same cache,
// singleflight, and — in cluster mode — ring placement and peering), and
// the merged document is byte-identical to a single-process exp.Sweep dump
// of the same scenarios.
type SweepSpec struct {
	// Mixes lists explicit application mixes (e.g. "CGL"), run at the
	// contention implied by their size (Continuous below lifts them to the
	// continuous horizon).
	Mixes []string `json:"mixes,omitempty"`
	// Contention expands standard study levels ("low", "medium", "high",
	// "continuous") to their canonical mix sets (workload.Mixes).
	Contention []string `json:"contention,omitempty"`
	// Policies is the policy axis (default [RELIEF]).
	Policies []string `json:"policies,omitempty"`
	// Topologies is the interconnect axis (default [bus]).
	Topologies []string `json:"topologies,omitempty"`
	// BW is the bandwidth-predictor axis (default [max]).
	BW []string `json:"bw,omitempty"`
	// HorizonsMS is the periodic-horizon axis in milliseconds (default the
	// 50 ms horizon; requires PeriodMS). Each horizon is its own cell, run
	// cold like a /run of the same request (docs/CHECKPOINT.md).
	HorizonsMS []float64 `json:"horizons_ms,omitempty"`

	// Scalar knobs, applied to every cell (see the /run request fields).
	Continuous   bool    `json:"continuous,omitempty"`
	PredictDM    bool    `json:"predict_dm,omitempty"`
	NoForwarding bool    `json:"no_forwarding,omitempty"`
	DetailedDRAM bool    `json:"detailed_dram,omitempty"`
	DRAMFCFS     bool    `json:"dram_fcfs,omitempty"`
	FaultRate    float64 `json:"fault_rate,omitempty"`
	FaultSeed    int64   `json:"fault_seed,omitempty"`
	PeriodMS     float64 `json:"period_ms,omitempty"`
	Metrics      bool    `json:"metrics,omitempty"`
	TimeoutMS    int64   `json:"timeout_ms,omitempty"`

	// Stream selects NDJSON streaming: a header line, one line per cell as
	// it lands (completion order), and a done trailer. The default is a
	// single merged JSON document.
	Stream bool `json:"stream,omitempty"`
	// Parallel bounds concurrently in-flight cells (0 = 2 × workers ×
	// fleet size, capped at 32).
	Parallel int `json:"parallel,omitempty"`
}

// sweepCell is one expanded, normalized grid point.
type sweepCell struct {
	Request Request
	Digest  string
}

// expand enumerates, normalizes, and digest-deduplicates the grid.
func (sp SweepSpec) expand() ([]sweepCell, error) {
	policies := sp.Policies
	if len(policies) == 0 {
		policies = []string{"RELIEF"}
	}
	topologies := sp.Topologies
	if len(topologies) == 0 {
		topologies = []string{""}
	}
	bws := sp.BW
	if len(bws) == 0 {
		bws = []string{""}
	}
	horizons := sp.HorizonsMS
	if len(horizons) == 0 {
		horizons = []float64{0}
	} else if sp.PeriodMS <= 0 {
		return nil, fmt.Errorf("serve: horizons_ms requires period_ms")
	}
	type mixPoint struct {
		mix        string
		continuous bool
	}
	var mixes []mixPoint
	for _, lvl := range sp.Contention {
		var c workload.Contention
		switch strings.ToLower(lvl) {
		case "low":
			c = workload.Low
		case "medium":
			c = workload.Medium
		case "high":
			c = workload.High
		case "continuous":
			c = workload.Continuous
		default:
			return nil, fmt.Errorf("serve: unknown contention level %q (want low, medium, high, or continuous)", lvl)
		}
		for _, mix := range workload.Mixes(c) {
			mixes = append(mixes, mixPoint{mix: exp.MixLabel(mix), continuous: c == workload.Continuous})
		}
		if len(mixes) > maxSweepCells {
			return nil, errSweepTooLarge
		}
	}
	for _, m := range sp.Mixes {
		mixes = append(mixes, mixPoint{mix: m, continuous: sp.Continuous})
	}
	if len(mixes) == 0 {
		return nil, fmt.Errorf("serve: empty sweep grid (no mixes or contention levels)")
	}
	// Bound the raw grid before enumerating it: dedup only shrinks it, but
	// every raw point costs a normalize and a digest, and a 1 MiB body of
	// repeated axis values would otherwise spell ~10^10 of them. Dividing
	// instead of multiplying keeps the product from overflowing.
	points := 1
	for _, n := range []int{len(mixes), len(policies), len(topologies), len(bws), len(horizons)} {
		if n > maxSweepCells/points {
			return nil, errSweepTooLarge
		}
		points *= n
	}

	seen := make(map[string]bool)
	var cells []sweepCell
	for _, m := range mixes {
		for _, policy := range policies {
			for _, topo := range topologies {
				for _, bw := range bws {
					for _, h := range horizons {
						req := Request{
							Mix: m.mix, Policy: policy, Continuous: m.continuous,
							Topology: topo, BW: bw,
							PredictDM: sp.PredictDM, NoForwarding: sp.NoForwarding,
							DetailedDRAM: sp.DetailedDRAM, DRAMFCFS: sp.DRAMFCFS,
							FaultRate: sp.FaultRate, FaultSeed: sp.FaultSeed,
							PeriodMS: sp.PeriodMS, HorizonMS: h,
							Metrics: sp.Metrics, TimeoutMS: sp.TimeoutMS,
						}
						if err := req.Normalize(); err != nil {
							return nil, err
						}
						d := req.Digest()
						if seen[d] {
							continue
						}
						seen[d] = true
						cells = append(cells, sweepCell{Request: req, Digest: d})
					}
				}
			}
		}
	}
	return cells, nil
}

// sweepHeader is the first NDJSON line of a streamed sweep.
type sweepHeader struct {
	Schema string `json:"schema"`
	Cells  int    `json:"cells"`
}

// sweepLine reports one completed cell (streamed in completion order).
type sweepLine struct {
	Index  int     `json:"index"`
	Digest string  `json:"digest"`
	Source string  `json:"source,omitempty"`
	Error  string  `json:"error,omitempty"`
	Result *Result `json:"result,omitempty"`
}

// sweepTrailer ends the stream.
type sweepTrailer struct {
	Done   bool `json:"done"`
	OK     int  `json:"ok"`
	Errors int  `json:"errors"`
}

// handleSweep expands a grid spec and answers every cell through resolve,
// the /run decision ladder (cache → drain gate → owner forward → local
// simulation) with blocking admission, so in cluster mode the grid fans
// out across the fleet by ring ownership and each scenario is computed
// once fleet-wide. Responses either stream per-cell NDJSON or return one
// merged document identical to a single-process sweep dump.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	tr := s.beginTrace(w, r)
	defer s.finishTrace(tr, "/sweep")
	fail := func(status int, err error) {
		tr.SetResult("", "", status)
		s.writeError(w, status, err)
	}
	var spec SweepSpec
	if err := decodeStrict(http.MaxBytesReader(w, r.Body, 1<<20), &spec); err != nil {
		fail(http.StatusBadRequest, fmt.Errorf("decoding sweep spec: %w", err))
		return
	}
	cells, err := spec.expand()
	if err != nil {
		fail(http.StatusBadRequest, err)
		return
	}
	s.mu.Lock()
	draining := s.draining
	cl := s.cluster
	s.mu.Unlock()
	if draining {
		s.setRetryAfter(w)
		fail(http.StatusServiceUnavailable, errDraining)
		return
	}

	fleet := 1
	if cl != nil {
		fleet += len(cl.peers)
	}
	parallel := spec.Parallel
	if parallel <= 0 {
		parallel = 2 * s.cfg.Workers * fleet
	}
	if parallel > 32 {
		parallel = 32
	}
	if parallel > len(cells) {
		parallel = len(cells)
	}

	type outcome struct {
		index  int
		digest string
		answer
		err error
	}
	// Every cell records its spans (cache/disk/breaker/forward/admission/
	// run, digest-attributed) into the sweep's one trace, so a slow sweep can
	// be decomposed cell by cell from GET /trace/{id}.
	outCh := make(chan outcome)
	sem := make(chan struct{}, parallel)
	go func() {
		var wg sync.WaitGroup
		for i, c := range cells {
			wg.Add(1)
			sem <- struct{}{}
			go func(i int, c sweepCell) {
				defer wg.Done()
				defer func() { <-sem }()
				ans, err := s.resolve(r.Context(), tr, c.Request, c.Digest, false, true)
				outCh <- outcome{index: i, digest: c.Digest, answer: ans, err: err}
			}(i, c)
		}
		wg.Wait()
		close(outCh)
	}()

	if spec.Stream {
		ssp := tr.StartSpan(stageStream)
		defer func() { s.endSpan(stageStream, ssp) }()
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w) // compact: one JSON value per line
		flusher, _ := w.(http.Flusher)
		flush := func() {
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err := enc.Encode(sweepHeader{Schema: SweepSchema, Cells: len(cells)}); err != nil {
			return // client gone; resolve drains via the request context
		}
		flush()
		var ok, failed int
		for o := range outCh {
			line := sweepLine{Index: o.index, Digest: o.digest, Source: o.src}
			if o.err != nil {
				line.Error = o.err.Error()
				failed++
			} else {
				line.Result = o.res
				ok++
			}
			if err := enc.Encode(line); err != nil {
				// Client gone: keep draining outCh so the workers finish.
				continue
			}
			flush()
		}
		if err := enc.Encode(sweepTrailer{Done: true, OK: ok, Errors: failed}); err != nil {
			return
		}
		flush()
		tr.SetResult("", "", http.StatusOK)
		return
	}

	// Merged mode: wait for every cell, then emit the sweep document —
	// sorted by scenario key, byte-identical to exp.Sweep.DumpJSON over the
	// same scenarios regardless of which replica computed each cell.
	var merged []exp.Cell
	var firstErr error
	for o := range outCh {
		switch {
		case o.err != nil:
			if firstErr == nil {
				firstErr = fmt.Errorf("cell %d (%.12s): %w", o.index, o.digest, o.err)
			}
		case o.res != nil && o.res.Cell != nil:
			merged = append(merged, *o.res.Cell)
		}
	}
	if firstErr != nil {
		fail(errStatus(firstErr), firstErr)
		return
	}
	tr.SetResult("", "", http.StatusOK)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if err := exp.WriteCells(w, merged); err != nil {
		// The status line is already written; the client sees a truncated
		// body and retries.
		return
	}
}
