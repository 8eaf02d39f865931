package stats

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"relief/internal/sim"
)

func TestSlowdown(t *testing.T) {
	a := &AppStats{Deadline: 10 * sim.Millisecond}
	if !math.IsInf(a.Slowdown(), 1) {
		t.Fatal("no finished iterations must report infinite slowdown (starvation)")
	}
	a.Runtimes = []sim.Time{5 * sim.Millisecond}
	if got := a.Slowdown(); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("Slowdown = %v, want 0.5", got)
	}
	// Geometric mean over iterations: 0.5 and 2.0 -> 1.0.
	a.Runtimes = append(a.Runtimes, 20*sim.Millisecond)
	if got := a.Slowdown(); math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("geomean slowdown = %v, want 1.0", got)
	}
}

func TestRecordEdgeAndRates(t *testing.T) {
	s := New()
	a := s.App("canny", "C", 16*sim.Millisecond)
	s.RecordEdge(a, EdgeDRAM)
	s.RecordEdge(a, EdgeForward)
	s.RecordEdge(a, EdgeForward)
	s.RecordEdge(a, EdgeColocation)
	if s.Edges != 4 || s.Forwards != 2 || s.Colocations != 1 {
		t.Fatalf("edge counts wrong: %d/%d/%d", s.Edges, s.Forwards, s.Colocations)
	}
	fwd, col := s.ForwardsPerEdge()
	if fwd != 50 || col != 25 {
		t.Fatalf("ForwardsPerEdge = (%v, %v), want (50, 25)", fwd, col)
	}
	if a.Edges != 4 || a.Forwards != 2 {
		t.Fatal("per-app edge attribution wrong")
	}
	// Same app handle on second lookup.
	if s.App("canny", "C", 16*sim.Millisecond) != a {
		t.Fatal("App must be idempotent")
	}
}

func TestForwardsPerEdgeEmpty(t *testing.T) {
	s := New()
	if f, c := s.ForwardsPerEdge(); f != 0 || c != 0 {
		t.Fatal("empty stats must report zero rates")
	}
	if d, sp := s.DataMovement(); d != 0 || sp != 0 {
		t.Fatal("empty stats must report zero movement")
	}
	if s.NodeDeadlinePct() != 0 || s.DAGDeadlinePct() != 0 || s.Occupancy() != 0 {
		t.Fatal("empty stats must report zeros")
	}
}

func TestDataMovementAndEnergy(t *testing.T) {
	s := New()
	s.BaselineBytes = 1000
	s.DRAMReadBytes = 300
	s.DRAMWriteBytes = 200
	s.SpadXferBytes = 100
	s.SpadDMABytes = 700
	dram, spad := s.DataMovement()
	if dram != 50 || spad != 10 {
		t.Fatalf("DataMovement = (%v, %v), want (50, 10)", dram, spad)
	}
	de, se := s.MemoryEnergy()
	if math.Abs(de-500*EnergyDRAMPerByte) > 1e-18 || math.Abs(se-700*EnergySPADPerByte) > 1e-18 {
		t.Fatalf("MemoryEnergy = (%v, %v)", de, se)
	}
}

func TestOccupancy(t *testing.T) {
	s := New()
	s.ComputeBusy = 14 * sim.Millisecond
	s.Makespan = 10 * sim.Millisecond
	if got := s.Occupancy(); math.Abs(got-1.4) > 1e-9 {
		t.Fatalf("Occupancy = %v, want 1.4 (accelerator-level parallelism)", got)
	}
}

func TestDeadlinePcts(t *testing.T) {
	s := New()
	s.NodesDone = 8
	s.NodesMetDeadline = 6
	if s.NodeDeadlinePct() != 75 {
		t.Fatalf("NodeDeadlinePct = %v, want 75", s.NodeDeadlinePct())
	}
	a := s.App("gru", "G", 7*sim.Millisecond)
	a.Iterations = 4
	a.DeadlinesMet = 1
	b := s.App("lstm", "L", 7*sim.Millisecond)
	b.Iterations = 4
	b.DeadlinesMet = 3
	if s.DAGDeadlinePct() != 50 {
		t.Fatalf("DAGDeadlinePct = %v, want 50", s.DAGDeadlinePct())
	}
}

func TestSchedLatency(t *testing.T) {
	s := New()
	if avg, tail := s.SchedLatency(); avg != 0 || tail != 0 {
		t.Fatal("empty latency must be zero")
	}
	for _, c := range []sim.Time{100, 200, 600} {
		s.ObserveSched(c)
	}
	avg, tail := s.SchedLatency()
	if avg != 300 || tail != 600 {
		t.Fatalf("SchedLatency = (%v, %v), want (300, 600)", avg, tail)
	}
}

func TestSlowdownSpread(t *testing.T) {
	s := New()
	for i, rt := range []sim.Time{5, 10, 20} {
		a := s.App(string(rune('a'+i)), "X", 10)
		a.Runtimes = []sim.Time{rt}
	}
	min, med, max, variance := s.SlowdownSpread()
	if min != 0.5 || med != 1.0 || max != 2.0 {
		t.Fatalf("spread = (%v, %v, %v)", min, med, max)
	}
	if variance <= 0 {
		t.Fatal("variance must be positive for distinct slowdowns")
	}
}

func TestSlowdownSpreadStarvation(t *testing.T) {
	s := New()
	a := s.App("a", "A", 10)
	a.Runtimes = []sim.Time{10}
	s.App("b", "B", 10) // starved: no runtimes
	min, _, max, variance := s.SlowdownSpread()
	if min != 1.0 || !math.IsInf(max, 1) {
		t.Fatalf("spread with starvation = (%v, %v)", min, max)
	}
	if math.IsInf(variance, 1) || math.IsNaN(variance) {
		t.Fatal("variance must exclude infinite slowdowns")
	}
}

// TestStarvedAppAggregation is the regression test for the +Inf-slowdown
// bug: a zero-iteration (starved) application must be flagged explicitly
// and must not poison scenario-level aggregates — the cross-app geomean
// stays finite, the gem5 export never prints "%f" of +Inf, and a JSON
// document over the per-app slowdowns still marshals.
func TestStarvedAppAggregation(t *testing.T) {
	s := New()
	a := s.App("canny", "C", 10*sim.Millisecond)
	a.Runtimes = []sim.Time{20 * sim.Millisecond} // slowdown 2.0
	a.Iterations = 1
	starved := s.App("gru", "G", 7*sim.Millisecond) // zero iterations

	if !starved.Starved() || a.Starved() {
		t.Fatal("Starved flags wrong")
	}
	if _, ok := starved.FiniteSlowdown(); ok {
		t.Fatal("FiniteSlowdown must report false for a starved app")
	}
	if sl, ok := a.FiniteSlowdown(); !ok || math.Abs(sl-2.0) > 1e-9 {
		t.Fatalf("FiniteSlowdown = (%v, %v), want (2.0, true)", sl, ok)
	}

	geo, n := s.SlowdownGeomean()
	if n != 1 {
		t.Fatalf("starved count = %d, want 1", n)
	}
	if math.IsInf(geo, 1) || math.IsNaN(geo) || math.Abs(geo-2.0) > 1e-9 {
		t.Fatalf("geomean = %v, want the finite 2.0 (starved app excluded)", geo)
	}

	// All apps starved: geomean degrades to 0, never NaN/Inf.
	empty := New()
	empty.App("lstm", "L", 7*sim.Millisecond)
	if geo, n := empty.SlowdownGeomean(); geo != 0 || n != 1 {
		t.Fatalf("all-starved geomean = (%v, %d), want (0, 1)", geo, n)
	}

	// The gem5 export must flag the starved app and keep every value
	// parseable (gem5's marker for undefined is "nan", never "+Inf").
	var buf bytes.Buffer
	if err := s.WriteGem5Style(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, "Inf") || strings.Contains(out, "inf") {
		t.Fatalf("gem5 export leaked an infinity:\n%s", out)
	}
	for _, want := range []string{
		"system.app.gru.slowdown", "system.app.gru.starved",
		"system.apps_starved", "system.slowdown_geomean",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("gem5 export missing %q", want)
		}
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "gru.slowdown") && !strings.Contains(line, "nan") {
			t.Errorf("starved slowdown not flagged as nan: %q", line)
		}
		if strings.Contains(line, "gru.starved") {
			if f := strings.Fields(line); len(f) < 2 || f[1] != "1" {
				t.Errorf("starved flag not set: %q", line)
			}
		}
	}

	// JSON over the aggregation-safe accessors must marshal; raw +Inf would
	// make encoding/json fail with an UnsupportedValueError.
	doc := map[string]float64{}
	for name, app := range s.Apps {
		sl, ok := app.FiniteSlowdown()
		if !ok {
			sl = -1
		}
		doc[name] = sl
	}
	if _, err := json.Marshal(doc); err != nil {
		t.Fatalf("JSON export of clamped slowdowns failed: %v", err)
	}
	if _, err := json.Marshal(map[string]float64{"x": math.Inf(1)}); err == nil {
		t.Fatal("sanity: encoding/json should reject +Inf (the bug this guards)")
	}
}

func TestPredErr(t *testing.T) {
	var p PredErr
	p.ObserveCompute(110, 100) // +10%
	p.ObserveCompute(90, 100)  // -10%
	c, _, _ := p.MeanSigned()
	if math.Abs(c) > 1e-9 {
		t.Fatalf("mean signed compute error = %v, want 0", c)
	}
	if p.ComputeSumAbs != 0.2 {
		t.Fatalf("abs error sum = %v, want 0.2", p.ComputeSumAbs)
	}
	p.ObserveDMBytes(150, 100)
	_, dm, _ := p.MeanSigned()
	if math.Abs(dm-50) > 1e-9 {
		t.Fatalf("DM error = %v, want 50", dm)
	}
	p.ObserveMemTime(50, 100)
	_, _, mt := p.MeanSigned()
	if math.Abs(mt+50) > 1e-9 {
		t.Fatalf("mem time error = %v, want -50", mt)
	}
	p.ObserveBW(8e9, 4e9)
	if math.Abs(p.MeanSignedBW()-100) > 1e-9 {
		t.Fatalf("BW error = %v, want 100", p.MeanSignedBW())
	}
	// Zero actuals are skipped, not divided by.
	n := p.ComputeN
	p.ObserveCompute(10, 0)
	if p.ComputeN != n {
		t.Fatal("zero-actual sample must be skipped")
	}
}

// TestQuickSpreadOrdering: min <= median <= max for any set of runtimes.
func TestQuickSpreadOrdering(t *testing.T) {
	f := func(runtimes []uint16) bool {
		s := New()
		for i, rt := range runtimes {
			a := s.App(string(rune('a'+i%26))+string(rune('0'+i/26%10)), "X", 1000)
			a.Runtimes = []sim.Time{sim.Time(rt) + 1}
		}
		min, med, max, _ := s.SlowdownSpread()
		if len(s.Apps) == 0 {
			return min == 0 && med == 0 && max == 0
		}
		return min <= med && med <= max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteGem5Style(t *testing.T) {
	s := New()
	s.Makespan = 10 * sim.Millisecond
	s.ComputeBusy = 5 * sim.Millisecond
	s.Edges = 10
	s.Forwards = 4
	s.Colocations = 3
	s.BaselineBytes = 1000
	s.DRAMReadBytes = 200
	s.NodesDone = 20
	s.NodesMetDeadline = 18
	s.ObserveSched(100)
	s.ObserveSched(300)
	a := s.App("gru", "G", 7*sim.Millisecond)
	a.Iterations = 2
	a.DeadlinesMet = 1
	a.Runtimes = []sim.Time{7 * sim.Millisecond, 7 * sim.Millisecond}

	var buf bytes.Buffer
	if err := s.WriteGem5Style(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Begin Simulation Statistics",
		"End Simulation Statistics",
		"sim_ticks", "system.forwards", "system.app.gru.iterations",
		"# Forwards per edge (%)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("gem5 stats missing %q", want)
		}
	}
	// Every stat line is name / value / # description.
	for _, line := range strings.Split(out, "\n") {
		if line == "" || strings.HasPrefix(line, "----------") {
			continue
		}
		if !strings.Contains(line, "#") {
			t.Errorf("stat line without description: %q", line)
		}
		if fields := strings.Fields(line); len(fields) < 3 {
			t.Errorf("malformed stat line: %q", line)
		}
	}
}
