package exp

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"relief/internal/metrics"
	"relief/internal/workload"
)

// TestMetricsNeutrality verifies that attaching a registry changes nothing
// the paper's tables consume: probes read state only, so a metricised run
// must be bit-identical to a bare one.
func TestMetricsNeutrality(t *testing.T) {
	mix, err := MixBySyms("CGL")
	if err != nil {
		t.Fatal(err)
	}
	bare := Scenario{Mix: mix, Contention: workload.High, Policy: "RELIEF"}
	rBare, err := Run(bare)
	if err != nil {
		t.Fatal(err)
	}
	met := bare
	met.Metrics = metrics.NewRegistry()
	rMet, err := Run(met)
	if err != nil {
		t.Fatal(err)
	}
	if rMet.Scenario.Metrics.Samples() == 0 {
		t.Fatal("registry collected no probe samples")
	}
	// Compare through the golden digest line, with the scenario field reset
	// so only simulation results differ.
	rMet.Scenario = bare
	if a, b := scenarioDigestLine(bare, rBare), scenarioDigestLine(bare, rMet); a != b {
		t.Fatalf("metrics changed simulation results:\nbare: %s\nmet:  %s", a, b)
	}
}

// TestAttributionContrast checks the observability layer surfaces the
// paper's core effect: on a high-contention mix, the movement-blind FCFS
// baseline spends a visibly larger share of node latency stalled on DMA
// contention than RELIEF does.
func TestAttributionContrast(t *testing.T) {
	_, regs, err := AttributionStudy("CGL", []string{"FCFS", "RELIEF"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	fcfs := regs["FCFS"].Attribution().Total.StallShare()
	relief := regs["RELIEF"].Attribution().Total.StallShare()
	if fcfs <= relief {
		t.Fatalf("FCFS stall share %.2f%% <= RELIEF %.2f%%: attribution does not show the contention gap", fcfs, relief)
	}
	t.Logf("stall share: FCFS %.1f%%, RELIEF %.1f%%", fcfs, relief)
}

// TestAttributionStudyTable locks the table shape the CLI and report render.
func TestAttributionStudyTable(t *testing.T) {
	tab, regs, err := AttributionStudy("CG", PolicyNames[:2], 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 || len(regs) != 2 {
		t.Fatalf("rows=%d regs=%d, want 2/2", len(tab.Rows), len(regs))
	}
	if len(tab.Cols) != 8 {
		t.Fatalf("cols = %v", tab.Cols)
	}
	for _, row := range tab.Rows {
		if len(row) != len(tab.Cols) {
			t.Fatalf("ragged row %v", row)
		}
	}
	if _, _, err := AttributionStudy("CGX", PolicyNames[:1], 0); err == nil {
		t.Fatal("bad mix symbol accepted")
	}
}

// metricsJSONGoldenDigest locks the full relief-metrics/1 JSON summary of
// one fixed scenario: schema string, key order, metric names, histogram
// quantiles, probe sample count, and attribution values. Determinism of the
// export (stable key order, canonical float rendering) plus determinism of
// the simulation makes this digest stable across runs and platforms.
const metricsJSONGoldenDigest = "f78750e82ee6bc8cbcc2d32bbd47e6290e85013b5e7b89deeb77cca6c2ece332"

func TestMetricsJSONGoldenDigest(t *testing.T) {
	mix, err := MixBySyms("CGL")
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	if _, err := Run(Scenario{Mix: mix, Contention: workload.High, Policy: "RELIEF", Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	got := hex.EncodeToString(sum[:])
	if got != metricsJSONGoldenDigest {
		t.Fatalf("metrics JSON digest = %s, want %s\nIf the metric catalogue "+
			"deliberately changed, re-record the constant; an unexplained change "+
			"means the export or the simulation went non-deterministic.\nfirst bytes:\n%.600s",
			got, metricsJSONGoldenDigest, buf.String())
	}
}

// loopingMetricsGoldenDigests lock the relief-metrics/1 JSON summary of two
// looping runs, where every DAG iteration after the first is a clone: a
// continuous-contention CGL mix under RELIEF, and a periodic CG mix
// released every 5 ms until 20 ms. The probes sample scratchpad occupancy
// while finished iterations' outputs are still resident, which the
// single-shot golden above never sees.
var loopingMetricsGoldenDigests = map[string]string{
	"continuous": "2965f0dfafebd9c70ca369ef4b62a6ff0dfc0e2a9ded8677c73853f0524815f2",
	"periodic":   "3594d039d16ba20295ec78875c2924842ab63de2429969187daa33f17c1623a4",
}

// loopingMetricsScenarios returns the cells loopingMetricsGoldenDigests
// covers.
func loopingMetricsScenarios(t *testing.T) map[string]Scenario {
	t.Helper()
	cgl, err := MixBySyms("CGL")
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Scenario{
		"continuous": {Mix: cgl, Contention: workload.Continuous, Policy: "RELIEF"},
		"periodic":   periodicScenario(t),
	}
}

// metricsJSON runs sc with a fresh registry and returns its JSON summary.
func metricsJSON(t *testing.T, sc Scenario) []byte {
	t.Helper()
	reg := metrics.NewRegistry()
	sc.Metrics = reg
	if _, err := Run(sc); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestMetricsJSONGoldenLooping(t *testing.T) {
	for name, sc := range loopingMetricsScenarios(t) {
		t.Run(name, func(t *testing.T) {
			js := metricsJSON(t, sc)
			sum := sha256.Sum256(js)
			if got, want := hex.EncodeToString(sum[:]), loopingMetricsGoldenDigests[name]; got != want {
				t.Fatalf("%s metrics JSON digest = %s, want %s\nfirst bytes:\n%.600s", name, got, want, js)
			}
		})
	}
}
