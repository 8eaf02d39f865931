package exp

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"relief/internal/ckpt"
	"relief/internal/fault"
	"relief/internal/graph"
	"relief/internal/metrics"
	"relief/internal/sim"
	"relief/internal/workload"
)

// recycleCase is one cell of the recycling differential test: a scenario
// run cold, or warmed to a checkpoint at warmAt and restored.
type recycleCase struct {
	name   string
	sc     Scenario
	warmAt sim.Time // 0: a cold run
}

// recycleCases returns every continuous mix under every policy, mixes that
// run one application twice, periodic cells that quiesce and cells whose
// iterations overlap, fault plans that retry, kill instances and abort
// DAGs, write-backs still queued when their DAG finishes, and checkpoint
// round trips.
func recycleCases(t *testing.T) []recycleCase {
	t.Helper()
	var cases []recycleCase
	add := func(sc Scenario, warmAt sim.Time) {
		syms := ""
		for _, a := range sc.Mix {
			syms += a.Sym()
		}
		name := fmt.Sprintf("%s/%s/%s/p=%v/h=%v/faults=%s/awb=%v/warm=%v", sc.Contention, syms, sc.Policy,
			sc.Period, sc.Horizon, sc.Faults.AppendKey(nil), sc.Platform.AlwaysWriteBack, warmAt)
		cases = append(cases, recycleCase{name, sc, warmAt})
	}
	for _, mix := range workload.Mixes(workload.Continuous) {
		for _, p := range FairnessPolicyNames {
			add(Scenario{Mix: mix, Contention: workload.Continuous, Policy: p}, 0)
		}
	}
	mix := func(syms string) []workload.App {
		m, err := workload.ParseMix(syms)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	// Two copies of one application share its free list, so one copy can
	// reuse a DAG the other retired a moment before.
	for _, syms := range []string{"CCG", "GGL", "LLD", "DDH"} {
		for _, p := range []string{"RELIEF", "FCFS", "LAX", "GEDF-D"} {
			add(Scenario{Mix: mix(syms), Contention: workload.Continuous, Policy: p}, 0)
		}
	}
	for _, syms := range []string{"CG", "CGL", "DGH", "CCG", "LLD"} {
		for _, period := range []sim.Time{sim.Millisecond, 2 * sim.Millisecond, 5 * sim.Millisecond} {
			for _, p := range []string{"RELIEF", "FCFS", "LAX"} {
				add(Scenario{Mix: mix(syms), Contention: workload.Contention(len(syms)), Policy: p,
					Period: period, Horizon: 20 * sim.Millisecond}, 0)
			}
		}
	}
	plans := []*fault.Plan{
		fault.Profile(0.05, 7),
		fault.Profile(0.2, 11),
		// Instance 0, the only ISP, dies: every DAG still needing it aborts.
		{Seed: 3, DieAt: map[int]sim.Time{0: 4 * sim.Millisecond}},
	}
	for _, plan := range plans {
		for _, p := range []string{"RELIEF", "GEDF-D"} {
			add(Scenario{Mix: mix("CGL"), Contention: workload.Continuous, Policy: p, Faults: plan}, 0)
			add(Scenario{Mix: mix("CGL"), Contention: 3, Policy: p, Faults: plan,
				Period: 2 * sim.Millisecond, Horizon: 20 * sim.Millisecond}, 0)
		}
	}
	for _, sc := range lateWritebackCells(t) {
		add(sc, 0)
	}
	for _, cell := range []struct {
		syms   string
		period sim.Time
	}{{"CG", 5 * sim.Millisecond}, {"CGL", 10 * sim.Millisecond}} {
		for _, plan := range []*fault.Plan{nil, fault.Profile(0.05, 5)} {
			sc := Scenario{Mix: mix(cell.syms), Contention: workload.Contention(len(cell.syms)), Policy: "RELIEF",
				Faults: plan, Period: cell.period, Horizon: 6 * cell.period}
			add(sc, 2*cell.period-sim.Millisecond)
		}
	}
	return cases
}

// lateWritebackCells returns continuous cells in which an intermediate's
// write-back can still be queued when its DAG's last leaf finishes: every
// intermediate is written back and some DMAs stall for a millisecond.
func lateWritebackCells(t *testing.T) []Scenario {
	t.Helper()
	var cells []Scenario
	for seed := int64(1); seed <= 4; seed++ {
		plan := &fault.Plan{Seed: seed, Rates: fault.Rates{DMAStall: 0.1, DMAStallTime: sim.Millisecond}}
		for _, syms := range []string{"CGL", "CDG", "CGH", "CCG"} {
			mix, err := workload.ParseMix(syms)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []string{"FCFS", "GEDF-D"} {
				cells = append(cells, Scenario{Mix: mix, Contention: workload.Continuous, Policy: p, Faults: plan,
					Platform: PlatformSpec{AlwaysWriteBack: true}})
			}
		}
	}
	return cells
}

// recycleFingerprint runs one case and renders everything the
// differential test compares: the digest line with every recovery
// counter, the kernel's event count, and the metrics JSON summary.
func recycleFingerprint(t *testing.T, c recycleCase) string {
	t.Helper()
	ctx := context.Background()
	sc := c.sc
	var res *Result
	var err error
	if c.warmAt > 0 {
		var env []byte
		if env, err = RunToCheckpoint(ctx, sc, c.warmAt); err != nil {
			t.Fatalf("%s: RunToCheckpoint: %v", c.name, err)
		}
		var opened *ckpt.Envelope
		if opened, err = ckpt.Open(env); err != nil {
			t.Fatalf("%s: ckpt.Open: %v", c.name, err)
		}
		res, err = RunFromCheckpoint(ctx, sc, opened)
	} else {
		sc.Metrics = metrics.NewRegistry()
		res, err = Run(sc)
	}
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	var js bytes.Buffer
	if sc.Metrics != nil {
		if err := sc.Metrics.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
	}
	return faultDigestLine(sc, res) + fmt.Sprintf("events=%d\n", res.Stats.EventsFired) + js.String()
}

// TestRecyclingChangesNoResult: reusing retired DAGs changes nothing a run
// reports. Every case runs with recycling off, where each clone is fresh,
// then again with it on, in one sequence, so DAGs retired by one run are
// also reused by the next. A partition or LastNode still pointing into a
// reused DAG, or a DAG reused while a DMA job still refers to it, shows up
// here as a different digest, event count or metric.
func TestRecyclingChangesNoResult(t *testing.T) {
	if testing.Short() {
		t.Skip("recycling differential grid in -short mode")
	}
	cases := recycleCases(t)
	prev := graph.SetRecycling(false)
	off := make([]string, len(cases))
	for i, c := range cases {
		off[i] = recycleFingerprint(t, c)
	}
	graph.SetRecycling(true)
	defer graph.SetRecycling(prev)
	for i, c := range cases {
		if on := recycleFingerprint(t, c); on != off[i] {
			t.Errorf("%s: recycling changed the run:\noff: %.400s\non:  %.400s", c.name, off[i], on)
		}
	}
}

// TestRecyclingAcrossSweepWorkers: sweep workers share every template's
// free list, so a DAG one worker's run retires, or frees when the run
// ends, may be reused by the other's at once. Two workers over the
// continuous cells, late write-backs included, and periodic cells whose
// horizon cuts iterations in flight give the same results as one worker
// with recycling off. Run it under -race: a DAG freed while a DMA job
// still refers to it is written by one worker after the other has taken it.
func TestRecyclingAcrossSweepWorkers(t *testing.T) {
	grid := lateWritebackCells(t)
	for _, sc := range MainGrid() {
		if sc.Contention == workload.Continuous {
			grid = append(grid, sc)
		}
	}
	for _, syms := range []string{"CGL", "CCG", "DGH"} {
		mix, err := workload.ParseMix(syms)
		if err != nil {
			t.Fatal(err)
		}
		for _, period := range []sim.Time{sim.Millisecond, 2 * sim.Millisecond} {
			for _, p := range []string{"RELIEF", "FCFS"} {
				grid = append(grid, Scenario{Mix: mix, Contention: workload.Contention(len(syms)), Policy: p,
					Period: period, Horizon: 20*sim.Millisecond + period/2})
			}
		}
	}
	digest := func(workers int) string {
		s := NewSweep()
		s.Warm(grid, workers)
		if err := s.Err(); err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		for _, sc := range grid {
			r, err := s.Get(sc)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "ev=%d %s", r.Stats.EventsFired, faultDigestLine(sc, r))
		}
		return b.String()
	}
	prev := graph.SetRecycling(false)
	want := digest(1)
	graph.SetRecycling(true)
	defer graph.SetRecycling(prev)
	if got := digest(2); got != want {
		t.Errorf("two recycling workers diverged from one worker without recycling:\ngot  %.400s\nwant %.400s", got, want)
	}
}

// TestRepeatedRunsCloneNothingCold: the end of a run frees every iteration
// still live, so running the same looping scenario again reuses them all.
// A second continuous CGL run and a periodic CGL run whose iterations
// overlap at the horizon each stay within an allocation bound measured
// when the end-of-run free landed (211 and 455); without it every run
// cold-clones the iterations the previous one left live, about eight
// allocations each (234 and 815). The periodic study's own runner
// (runPeriodic, one period per application's deadline) is held the same
// way: 261 allocations, 302 without its free.
func TestRepeatedRunsCloneNothingCold(t *testing.T) {
	mix, err := workload.ParseMix("CGL")
	if err != nil {
		t.Fatal(err)
	}
	scenario := func(sc Scenario) func() error {
		return func() error { _, err := Run(sc); return err }
	}
	for _, c := range []struct {
		name      string
		run       func() error
		maxAllocs float64
	}{
		{"continuous", scenario(Scenario{Mix: mix, Contention: workload.Continuous, Policy: "RELIEF"}), 222},
		{"periodic", scenario(Scenario{Mix: mix, Contention: 3, Policy: "RELIEF",
			Period: sim.Millisecond, Horizon: 20 * sim.Millisecond}), 480},
		{"periodic study", func() error { _, err := runPeriodic("RELIEF", mix); return err }, 285},
	} {
		allocs := testing.AllocsPerRun(100, func() {
			if err := c.run(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %v allocations per run", c.name, allocs)
		if allocs > c.maxAllocs {
			t.Errorf("%s: a repeated run made %v allocations, want at most %v", c.name, allocs, c.maxAllocs)
		}
	}
}
