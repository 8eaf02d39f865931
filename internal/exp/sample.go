package exp

// Steady-state interval sampling (docs/CHECKPOINT.md): long periodic
// workloads spend most of their horizon repeating a warmed steady state, so
// instead of simulating O(horizon) we detect steady state from the metrics
// probe time series, checkpoint the warmed simulation, simulate K
// representative one-period windows from the checkpoint, and extrapolate
// whole-run statistics with a reported error bound (a Student-t 95%
// confidence half-width over the per-window rates). PAPERS.md's interval-
// sampling literature motivates the methodology; tests validate the bound
// against full runs.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"relief/internal/ckpt"
	"relief/internal/metrics"
	"relief/internal/sim"
	"relief/internal/stats"
)

// EstimateSchema versions the sampled-estimate document.
const EstimateSchema = "relief-estimate/1"

// EstStat is one extrapolated statistic: the whole-run estimate and its
// relative 95% confidence half-width (0 = exact, e.g. a deterministic
// workload's zero-variance windows or a full-run fallback).
type EstStat struct {
	Estimate   float64 `json:"estimate"`
	ErrorBound float64 `json:"error_bound"`
}

// Estimate is the interval-sampled whole-run projection for one scenario.
type Estimate struct {
	Schema string `json:"schema"`
	Key    string `json:"key"`
	// Sampled is false when the sampler fell back to a full run (the
	// workload never quiesced or never reached steady state): the values
	// are then exact and the bounds zero.
	Sampled bool `json:"sampled"`
	// Fallback names why a full run replaced sampling: FallbackNeverSteady
	// or FallbackSteadyTooLate. It is empty when Sampled is true.
	Fallback  string `json:"fallback,omitempty"`
	Windows   int    `json:"windows"`
	WindowPs  int64  `json:"window_ps"`
	WarmPs    int64  `json:"warm_ps"`
	HorizonPs int64  `json:"horizon_ps"`

	NodesDone        EstStat `json:"nodes_done"`
	NodesMetDeadline EstStat `json:"nodes_met_deadline"`
	DRAMBytes        EstStat `json:"dram_bytes"`
}

// Reasons the sampler fell back to a full run (Estimate.Fallback).
const (
	// FallbackNeverSteady: the warm run never reached a steady state it
	// could checkpoint at a quiescent release.
	FallbackNeverSteady = "never_steady"
	// FallbackSteadyTooLate: steady state arrived with fewer than two
	// windows left before the horizon.
	FallbackSteadyTooLate = "steady_too_late"
)

// steadyRuns is how many consecutive positive per-period completion deltas
// the detector examines, and steadySpread the relative spread it tolerates
// among them: deterministic workloads settle to exactly equal deltas, while
// mildly stochastic ones (e.g. injected task slowdowns pushing the odd
// completion across a period boundary) jitter slightly — those still sample
// fine, and their window variance surfaces honestly in the error bound.
const (
	steadyRuns   = 3
	steadySpread = 0.125
)

// steady reports whether the tail of a cumulative completion series has
// settled: the last steadyRuns per-period deltas are positive with relative
// spread at most steadySpread.
func steady(vals []float64) bool {
	if len(vals) < steadyRuns+1 {
		return false
	}
	min, max, sum := math.Inf(1), math.Inf(-1), 0.0
	for i := 0; i < steadyRuns; i++ {
		d := vals[len(vals)-1-i] - vals[len(vals)-2-i]
		if d <= 0 {
			return false
		}
		min = math.Min(min, d)
		max = math.Max(max, d)
		sum += d
	}
	mean := sum / steadyRuns
	return (max-min)/mean <= steadySpread
}

// tval95 is the two-sided 95% Student-t critical value for small degrees of
// freedom (df = windows-1); beyond the table the normal 1.96 is close
// enough.
func tval95(df int) float64 {
	table := []float64{0, 12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228}
	if df >= 1 && df < len(table) {
		return table[df]
	}
	return 1.96
}

// runToSteadyCheckpoint warms the scenario with a per-period metrics probe,
// watches the relief_nodes_done_total series for steady state, and captures
// a checkpoint at the first quiescent release after detection.
func runToSteadyCheckpoint(ctx context.Context, sc Scenario) ([]byte, error) {
	det := sc
	det.Metrics = metrics.NewRegistry()
	det.MetricsInterval = det.Period
	return warmCheckpoint(ctx, det, func(s *Sim) {
		// The detector is a weak observer chained after the probe at each
		// period tick (probes are scheduled first, so the same-tick sample
		// precedes the read). Arming the checkpoint mid-run is safe: capture
		// still waits for the next quiescent release. A workload that never
		// settles is never armed, and the capture reports that.
		var watch func()
		watch = func() {
			if _, vals := det.Metrics.Series("relief_nodes_done_total"); steady(vals) {
				s.Manager.ArmCheckpoint(s.Kernel.Now())
				return
			}
			s.Kernel.ScheduleWeak(det.Period, watch)
		}
		s.Kernel.ScheduleWeak(det.Period, watch)
	})
}

type sampleSnap struct{ nodes, met, dram float64 }

func snapStats(st *stats.Stats) sampleSnap {
	return sampleSnap{
		nodes: float64(st.NodesDone),
		met:   float64(st.NodesMetDeadline),
		dram:  float64(st.DRAMReadBytes + st.DRAMWriteBytes),
	}
}

// RunSampled estimates the scenario's whole-run statistics by simulating at
// most `windows` one-period windows from a steady-state checkpoint and
// extrapolating, instead of simulating the full horizon. When the workload
// cannot be sampled (it never quiesces or never settles), it falls back to
// a full run and returns exact values with Sampled=false. The scenario's
// Trace is ignored: tracing cannot cross the checkpoint the windows start
// from.
func RunSampled(ctx context.Context, sc Scenario, windows int) (*Estimate, error) {
	if sc.Period <= 0 {
		return nil, fmt.Errorf("exp: interval sampling requires a periodic scenario (Period > 0)")
	}
	sc.Trace = nil
	if windows < 2 {
		windows = 2
	}
	horizon := sc.EffectiveHorizon()
	est := &Estimate{
		Schema:    EstimateSchema,
		Key:       ScenarioKey(sc),
		WindowPs:  int64(sc.Period),
		HorizonPs: int64(horizon),
	}

	envData, err := runToSteadyCheckpoint(ctx, sc)
	if err != nil {
		if ctx.Err() != nil {
			return nil, err
		}
		return fullRunEstimate(ctx, sc, est, FallbackNeverSteady)
	}
	env, err := ckpt.Open(envData)
	if err != nil {
		return nil, err
	}
	warm := sim.Time(env.CapturedPs)
	est.WarmPs = int64(warm)
	if avail := int((horizon - warm) / sc.Period); windows > avail {
		windows = avail
	}
	if windows < 2 {
		// Steady state arrived too close to the horizon to leave sampling
		// windows; the full run is cheaper than it looked.
		return fullRunEstimate(ctx, sc, est, FallbackSteadyTooLate)
	}

	cfg, err := sc.managerConfig()
	if err != nil {
		return nil, err
	}
	s, err := RestoreSim(cfg, env)
	if err != nil {
		return nil, err
	}
	dags, err := submitMix(s.Manager, sc)
	defer s.freeDAGs(dags)
	if err != nil {
		return nil, err
	}
	prev := snapStats(s.Stats)
	var dn, dm, dd []float64
	for i := 1; i <= windows; i++ {
		end := warm + sim.Time(i)*sc.Period
		if _, err := s.Drive(ctx, func() sim.Time { return s.Kernel.RunUntil(end) }); err != nil {
			return nil, err
		}
		cur := snapStats(s.Stats)
		dn = append(dn, cur.nodes-prev.nodes)
		dm = append(dm, cur.met-prev.met)
		dd = append(dd, cur.dram-prev.dram)
		prev = cur
	}

	est.Sampled = true
	est.Windows = windows
	// Remaining horizon past the sampled windows, in window units. The last
	// partial window (when the horizon is not a period multiple) is covered
	// by the same rate.
	rem := float64(horizon-(warm+sim.Time(windows)*sc.Period)) / float64(sc.Period)
	est.NodesDone = extrapolate(prev.nodes, dn, rem)
	est.NodesMetDeadline = extrapolate(prev.met, dm, rem)
	est.DRAMBytes = extrapolate(prev.dram, dd, rem)
	return est, nil
}

// fullRunEstimate is the sampling fallback: an ordinary full run reported in
// estimate form with exact values and the reason it was needed.
func fullRunEstimate(ctx context.Context, sc Scenario, est *Estimate, reason string) (*Estimate, error) {
	full := sc
	full.Metrics = nil
	r, err := RunContext(ctx, full)
	if err != nil {
		return nil, err
	}
	s := snapStats(r.Stats)
	est.Sampled = false
	est.Fallback = reason
	est.Windows = 0
	est.NodesDone = EstStat{Estimate: s.nodes}
	est.NodesMetDeadline = EstStat{Estimate: s.met}
	est.DRAMBytes = EstStat{Estimate: s.dram}
	return est, nil
}

// extrapolate projects a statistic to the horizon: current value plus the
// mean per-window rate times the remaining windows, with a Student-t 95%
// relative confidence half-width on the projected tail.
func extrapolate(current float64, deltas []float64, remaining float64) EstStat {
	k := float64(len(deltas))
	var sum float64
	for _, d := range deltas {
		sum += d
	}
	mean := sum / k
	var ss float64
	for _, d := range deltas {
		ss += (d - mean) * (d - mean)
	}
	sd := math.Sqrt(ss / (k - 1))
	estv := current + mean*remaining
	half := tval95(len(deltas)-1) * sd / math.Sqrt(k) * remaining
	rel := 0.0
	if estv > 0 {
		rel = half / estv
	}
	return EstStat{Estimate: estv, ErrorBound: rel}
}

// WriteEstimate renders the estimate document as indented JSON (the same
// indentation discipline as the sweep cell dump, so documents diff cleanly).
func WriteEstimate(w io.Writer, est *Estimate) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(est)
}
