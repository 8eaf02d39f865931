package exp

import (
	"strings"
	"testing"

	"relief/internal/workload"
)

// TestDRAMStudySubstitutionHolds: the bank-level DRAM model must not
// change the policy story — RELIEF's makespans stay within 10% of the
// calibrated simple model (the DESIGN.md substitution argument), on a
// couple of representative mixes.
func TestDRAMStudySubstitutionHolds(t *testing.T) {
	s := NewSweep()
	for _, mixName := range []string{"CGL", "CDH"} {
		mix, err := workload.ParseMix(mixName)
		if err != nil {
			t.Fatal(err)
		}
		simple, err := s.Get(Scenario{Mix: mix, Contention: workload.High, Policy: "RELIEF"})
		if err != nil {
			t.Fatal(err)
		}
		detailed, err := s.Get(Scenario{Mix: mix, Contention: workload.High, Policy: "RELIEF", Platform: PlatformSpec{DetailedDRAM: true}})
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(detailed.Stats.Makespan) / float64(simple.Stats.Makespan)
		if ratio < 0.9 || ratio > 1.1 {
			t.Errorf("%s: detailed/simple makespan = %.3f, want within 10%%", mixName, ratio)
		}
		if detailed.RowHitRate < 0.9 {
			t.Errorf("%s: row hit rate %.2f, streaming DMA should hit", mixName, detailed.RowHitRate)
		}
		if simple.RowHitRate != 0 {
			t.Error("simple model must not report a row hit rate")
		}
	}
}

// TestPeriodicStudyShape: the table renders with one row per mix and
// RELIEF keeps every periodic CGL frame on deadline while LAX starves.
func TestPeriodicStudyShape(t *testing.T) {
	tbl, err := PeriodicStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(tbl.Rows))
	}
	var cgl []string
	for _, r := range tbl.Rows {
		if r[0] == "CGL" {
			cgl = r
		}
	}
	if cgl == nil {
		t.Fatal("CGL row missing")
	}
	// Column order follows FairnessPolicyNames; find LAX and RELIEF.
	idx := func(name string) int {
		for i, c := range tbl.Cols {
			if c == name {
				return i
			}
		}
		t.Fatalf("column %s missing", name)
		return -1
	}
	lax := cgl[idx("LAX")]
	relief := cgl[idx("RELIEF")]
	if !strings.Contains(lax, "inf") && !strings.HasPrefix(lax, "0/") {
		// LAX should starve at least one app (inf slowdown) under the
		// periodic CGL load.
		t.Errorf("LAX periodic CGL cell %q shows no starvation", lax)
	}
	parts := strings.Split(relief, "/")
	if len(parts) != 3 || parts[0] != parts[1] {
		t.Errorf("RELIEF periodic CGL cell %q: expected all finished frames on deadline", relief)
	}
}

// TestTiledStudyShape: the tiled interconnect study runs and reports
// finite makespans for both topologies.
func TestTiledStudyShape(t *testing.T) {
	tbl, err := TiledStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range tbl.Rows {
		if r[1] == "0.00" || r[2] == "0.00" {
			t.Errorf("mix %s: zero makespan", r[0])
		}
	}
}

// TestAnalyticVsSimulatedNoForwarding cross-validates the whole pipeline:
// for each application alone with forwarding disabled, the sum of the
// node-level DMA wall time measured by the simulator must land near the
// Table II analytic memory total (bytes / effective bandwidth). Queueing
// makes the simulated sum slightly higher; DMA pipelining can make it
// slightly lower.
func TestAnalyticVsSimulatedNoForwarding(t *testing.T) {
	analytic, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	noFwd := map[string]float64{}
	for _, row := range analytic.Rows {
		noFwd[row[0]] = parseF(t, row[2])
	}
	for a := workload.App(0); a < workload.NumApps; a++ {
		res, err := Run(Scenario{
			Mix:        []workload.App{a},
			Contention: workload.Low,
			Policy:     "FCFS",
			Platform:   PlatformSpec{DisableForwarding: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		st := res.Stats
		// All traffic through DRAM: simulated bytes equal the analytic
		// baseline exactly.
		if st.DRAMReadBytes+st.DRAMWriteBytes != st.BaselineBytes {
			t.Fatalf("%v: traffic %d != baseline %d", a,
				st.DRAMReadBytes+st.DRAMWriteBytes, st.BaselineBytes)
		}
		simulatedUS := float64(st.BaselineBytes) / 6.4e9 * 1e6
		if rel := simulatedUS/noFwd[a.Name()] - 1; rel < -0.01 || rel > 0.01 {
			t.Errorf("%v: simulated traffic time %.1fus vs analytic %.1fus",
				a, simulatedUS, noFwd[a.Name()])
		}
	}
}

// scalingTable is the instance-scaling table as the hand-built platforms
// rendered it before the study ran through Sweep.
const scalingTable = `== Extension: instance scaling under RELIEF ==
mix  makespan(ms)  instances/kind  fwd%  col%  occupancy
---------------------------------------------------------
GL           6.47               1   0.0  64.1       0.42
GL           4.21               2   6.1  63.4       0.64
GL           3.49               4  16.8  59.5       0.78
CGL          7.41               1   2.8  62.7       0.84
CGL          5.08               2   9.3  61.7       1.23
CGL          4.22               4  18.2  59.3       1.48
CDH         24.33               1  62.5  16.7       1.04
CDH         16.88               2  70.8  20.8       1.50
CDH         16.36               4  79.2  20.8       1.55

`

// TestScalingStudyShape exercises the instance-scaling extension: nine
// distinct platforms cached in the sweep, and the table unchanged.
func TestScalingStudyShape(t *testing.T) {
	s := NewSweep()
	tbl, err := ScalingStudy(s)
	if err != nil {
		t.Fatal(err)
	}
	if n, _, _ := s.CostTotals(); n != 9 {
		t.Errorf("scaling study cached %d scenarios, want 9", n)
	}
	var b strings.Builder
	tbl.Render(&b)
	if b.String() != scalingTable {
		t.Errorf("scaling table changed:\n%s", b.String())
	}
	if len(tbl.Rows) == 0 || len(tbl.Rows[0]) != len(tbl.Cols) {
		t.Fatal("malformed scaling table")
	}
	// More instances never slow the GL mix down.
	var prev float64 = 1e18
	for _, r := range tbl.Rows {
		if r[0] != "GL" {
			continue
		}
		v := parseF(t, r[1])
		if v > prev*1.02 {
			t.Errorf("GL makespan grew with more instances: %v -> %v", prev, v)
		}
		prev = v
	}
}
