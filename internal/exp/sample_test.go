package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"testing"

	"relief/internal/fault"
	"relief/internal/sim"
)

// sampledScenario is the sampling test base: the periodic checkpoint
// scenario stretched to a horizon long enough that interval sampling
// actually skips most of the run.
func sampledScenario(t *testing.T, horizon sim.Time) Scenario {
	t.Helper()
	sc := periodicScenario(t)
	sc.Horizon = horizon
	return sc
}

// TestSampledExactForDeterministic: a deterministic periodic workload
// settles to exactly equal per-window deltas, so the extrapolation is exact
// (zero variance, zero bound) and matches the full run to the node.
func TestSampledExactForDeterministic(t *testing.T) {
	sc := sampledScenario(t, 100*sim.Millisecond)
	est, err := RunSampled(context.Background(), sc, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !est.Sampled {
		t.Fatal("deterministic periodic workload should sample, not fall back")
	}
	if est.Windows != 4 {
		t.Errorf("windows = %d, want 4", est.Windows)
	}
	full, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, e EstStat, want float64) {
		if e.Estimate != want {
			t.Errorf("%s estimate %.0f, want exactly %.0f", name, e.Estimate, want)
		}
		if e.ErrorBound != 0 {
			t.Errorf("%s bound %.4f, want 0 (zero-variance windows)", name, e.ErrorBound)
		}
	}
	check("nodes_done", est.NodesDone, float64(full.Stats.NodesDone))
	check("nodes_met_deadline", est.NodesMetDeadline, float64(full.Stats.NodesMetDeadline))
	check("dram_bytes", est.DRAMBytes, float64(full.Stats.DRAMReadBytes+full.Stats.DRAMWriteBytes))
}

// TestSampledErrorBoundValidated: for a stochastic workload (injected task
// slowdowns) the sampled estimate must land within 5% of the full run —
// the acceptance criterion — and report an honest nonzero bound.
func TestSampledErrorBoundValidated(t *testing.T) {
	sc := sampledScenario(t, 200*sim.Millisecond)
	sc.Faults = &fault.Plan{Seed: 42, Rates: fault.Rates{TaskSlow: 0.15, SlowFactor: 4}}
	est, err := RunSampled(context.Background(), sc, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !est.Sampled {
		t.Fatal("slow-task workload should sample, not fall back")
	}
	full, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, e EstStat, want float64) {
		relErr := math.Abs(e.Estimate-want) / want
		if relErr > 0.05 {
			t.Errorf("%s estimate %.0f vs full %.0f: %.2f%% error exceeds the 5%% criterion",
				name, e.Estimate, want, 100*relErr)
		}
		if e.ErrorBound <= 0 {
			t.Errorf("%s bound %.4f, want a nonzero bound for stochastic windows", name, e.ErrorBound)
		}
	}
	check("nodes_done", est.NodesDone, float64(full.Stats.NodesDone))
	check("nodes_met_deadline", est.NodesMetDeadline, float64(full.Stats.NodesMetDeadline))
	check("dram_bytes", est.DRAMBytes, float64(full.Stats.DRAMReadBytes+full.Stats.DRAMWriteBytes))
}

// TestSampledFallsBackWhenUnsteady: a workload the detector never declares
// steady (an abort-heavy fault profile scrambles per-period completions)
// degrades to a full run with exact values and zero bounds.
func TestSampledFallsBackWhenUnsteady(t *testing.T) {
	sc := sampledScenario(t, 50*sim.Millisecond)
	sc.Faults = fault.Profile(0.02, 7)
	est, err := RunSampled(context.Background(), sc, 4)
	if err != nil {
		t.Fatal(err)
	}
	if est.Sampled {
		t.Fatal("abort-heavy profile workload was sampled; the full-run fallback was not exercised")
	}
	if est.Fallback != FallbackNeverSteady {
		t.Errorf("fallback = %q, want %q", est.Fallback, FallbackNeverSteady)
	}
	full, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := est.NodesDone.Estimate, float64(full.Stats.NodesDone); got != want {
		t.Errorf("fallback nodes_done %.0f, want exact %.0f", got, want)
	}
	if est.NodesDone.ErrorBound != 0 || est.Windows != 0 {
		t.Errorf("fallback should report zero bound and zero windows, got bound=%v windows=%d",
			est.NodesDone.ErrorBound, est.Windows)
	}
}

// TestSampledFallsBackWhenSteadyTooLate: a deterministic workload that
// settles, but whose horizon ends within two periods of the steady
// capture, has no room for two windows and falls back to a full run for
// that reason.
func TestSampledFallsBackWhenSteadyTooLate(t *testing.T) {
	sc := sampledScenario(t, 100*sim.Millisecond)
	long, err := RunSampled(context.Background(), sc, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !long.Sampled || long.Fallback != "" {
		t.Fatalf("long horizon: sampled=%v fallback=%q, want sampled with no fallback", long.Sampled, long.Fallback)
	}
	sc.Horizon = sim.Time(long.WarmPs) + sc.Period + sc.Period/2
	est, err := RunSampled(context.Background(), sc, 4)
	if err != nil {
		t.Fatal(err)
	}
	if est.Sampled || est.Fallback != FallbackSteadyTooLate {
		t.Fatalf("horizon 1.5 periods past steady state: sampled=%v fallback=%q, want a %q fallback",
			est.Sampled, est.Fallback, FallbackSteadyTooLate)
	}
	if est.WarmPs != long.WarmPs {
		t.Errorf("steady capture at %d ps, want %d ps as with the long horizon", est.WarmPs, long.WarmPs)
	}
	full, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := est.NodesDone.Estimate, float64(full.Stats.NodesDone); got != want {
		t.Errorf("fallback nodes_done %.0f, want exact %.0f", got, want)
	}
}

// TestSampledRequiresPeriodic: sampling is a periodic-workload technique.
func TestSampledRequiresPeriodic(t *testing.T) {
	sc := periodicScenario(t)
	sc.Period = 0
	if _, err := RunSampled(context.Background(), sc, 4); err == nil {
		t.Error("aperiodic RunSampled should fail")
	}
}

// TestWriteEstimate pins the estimate document schema and rendering.
func TestWriteEstimate(t *testing.T) {
	sc := sampledScenario(t, 100*sim.Millisecond)
	est, err := RunSampled(context.Background(), sc, 4)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := WriteEstimate(&b, est); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(b.Bytes(), &decoded); err != nil {
		t.Fatalf("estimate document is not valid JSON: %v", err)
	}
	if decoded["schema"] != EstimateSchema {
		t.Errorf("schema = %v, want %q", decoded["schema"], EstimateSchema)
	}
	if decoded["key"] != ScenarioKey(sc) {
		t.Errorf("key = %v, want the scenario key", decoded["key"])
	}
}
