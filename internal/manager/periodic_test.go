package manager

import (
	"fmt"
	"testing"

	"relief/internal/core"
	"relief/internal/sim"
	"relief/internal/stats"
	"relief/internal/trace"
	"relief/internal/workload"
)

func TestSubmitPeriodic(t *testing.T) {
	k := sim.NewKernel()
	st := stats.New()
	m := New(k, DefaultConfig(core.New()), st)
	period := 7 * sim.Millisecond
	horizon := 50 * sim.Millisecond
	if err := m.SubmitPeriodic(workload.MustBuild(workload.GRU), period, horizon); err != nil {
		t.Fatal(err)
	}
	m.RunContinuous(horizon)
	a := st.Apps["gru"]
	// ceil(50/7) = 8 releases; GRU alone runs ~3.3ms, so all but possibly
	// the last finish within the horizon.
	if a.Iterations < 7 {
		t.Fatalf("finished %d periodic iterations, want >= 7", a.Iterations)
	}
	if a.DeadlinesMet != a.Iterations {
		t.Errorf("uncontended periodic GRU missed deadlines: %d/%d", a.DeadlinesMet, a.Iterations)
	}
}

func TestSubmitPeriodicOverlap(t *testing.T) {
	// A period shorter than the app runtime queues instances; all frames
	// still finish (late) and releases stay on the period grid.
	k := sim.NewKernel()
	st := stats.New()
	cfg := DefaultConfig(core.New())
	rec := trace.NewRecorder()
	cfg.Trace = rec
	m := New(k, cfg, st)
	period := 2 * sim.Millisecond
	if err := m.SubmitPeriodic(workload.MustBuild(workload.GRU), period, 10*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	m.RunContinuous(60 * sim.Millisecond)
	releases := releasesOf(rec)
	if len(releases) != 5 {
		t.Fatalf("released %d instances, want 5", len(releases))
	}
	for i, e := range releases {
		if e.Start != sim.Time(i)*period {
			t.Errorf("instance %d released at %v, want %v", i, e.Start, sim.Time(i)*period)
		}
		if want := fmt.Sprintf("gru#%d", i); e.Name != want {
			t.Errorf("instance %d released as %s, want %s", i, e.Name, want)
		}
	}
	if a := st.Apps["gru"]; a.Iterations != 5 {
		t.Errorf("finished %d instances, want all 5", a.Iterations)
	}
}

// TestLoopIsPerDAG: SubmitLoop makes only the DAG it is given loop. A plain
// GRU released at 0 runs once even though another GRU loops from 25 ms: no
// GRU is released between the plain instance's finish and 25 ms.
func TestLoopIsPerDAG(t *testing.T) {
	k := sim.NewKernel()
	st := stats.New()
	cfg := DefaultConfig(core.New())
	rec := trace.NewRecorder()
	cfg.Trace = rec
	m := New(k, cfg, st)
	plain := workload.MustBuild(workload.GRU)
	if err := m.Submit(plain, 0); err != nil {
		t.Fatal(err)
	}
	loopAt := 25 * sim.Millisecond
	if err := m.SubmitLoop(workload.MustBuild(workload.GRU), loopAt); err != nil {
		t.Fatal(err)
	}
	m.RunContinuous(30 * sim.Millisecond)
	if !plain.Finished() || plain.FinishAt >= loopAt {
		t.Fatalf("plain GRU did not finish before %v (finished %v at %v)", loopAt, plain.Finished(), plain.FinishAt)
	}
	looped := 0
	for _, e := range releasesOf(rec) {
		switch {
		case e.Start > 0 && e.Start < loopAt:
			t.Errorf("%s released at %v, after the plain GRU finished at %v and before the loop starts at %v",
				e.Name, e.Start, plain.FinishAt, loopAt)
		case e.Start >= loopAt:
			looped++
		}
	}
	// GRU alone runs ~3.3 ms, so the loop finishes once and re-releases.
	if looped < 2 {
		t.Errorf("looping GRU released %d times in [%v, 30ms), want >= 2", looped, loopAt)
	}
}

// releasesOf returns the DAG release instants a recorder captured, in time
// order.
func releasesOf(rec *trace.Recorder) []trace.Event {
	var out []trace.Event
	for _, e := range rec.Events() {
		if e.Kind == trace.Release {
			out = append(out, e)
		}
	}
	return out
}

func TestSubmitPeriodicInvalidPeriod(t *testing.T) {
	m := New(sim.NewKernel(), DefaultConfig(core.New()), stats.New())
	if err := m.SubmitPeriodic(workload.MustBuild(workload.GRU), 0, sim.Millisecond); err == nil {
		t.Fatal("zero period accepted")
	}
}

// TestTraceRecordsRun: a traced simulation produces compute, DMA,
// writeback, schedule, and release events with coherent timestamps.
func TestTraceRecordsRun(t *testing.T) {
	k := sim.NewKernel()
	st := stats.New()
	cfg := DefaultConfig(core.New())
	rec := trace.NewRecorder()
	cfg.Trace = rec
	m := New(k, cfg, st)
	if err := m.Submit(workload.MustBuild(workload.Canny), 0); err != nil {
		t.Fatal(err)
	}
	m.Run()
	kinds := map[trace.Kind]int{}
	for _, e := range rec.Events() {
		kinds[e.Kind]++
		if e.End < e.Start {
			t.Fatalf("event %v ends before it starts", e)
		}
	}
	if kinds[trace.TaskCompute] != 13 {
		t.Errorf("compute events = %d, want 13 (one per node)", kinds[trace.TaskCompute])
	}
	if kinds[trace.TaskInput] != 13 {
		t.Errorf("input events = %d, want 13", kinds[trace.TaskInput])
	}
	if kinds[trace.Release] != 1 || kinds[trace.Schedule] == 0 || kinds[trace.Writeback] == 0 {
		t.Errorf("missing event kinds: %v", kinds)
	}
	if kinds[trace.Forward] == 0 {
		t.Errorf("canny should record forwards, got none")
	}
}

// TestDetailedDRAMRuns: the bank-level controller slots in and produces
// results close to the calibrated simple model.
func TestDetailedDRAMRuns(t *testing.T) {
	runWith := func(detailed bool) *stats.Stats {
		k := sim.NewKernel()
		st := stats.New()
		cfg := DefaultConfig(core.New())
		cfg.DetailedDRAM = detailed
		m := New(k, cfg, st)
		for _, app := range []workload.App{workload.Canny, workload.GRU} {
			if err := m.Submit(workload.MustBuild(app), 0); err != nil {
				t.Fatal(err)
			}
		}
		m.Run()
		if detailed {
			dc := m.DRAMController()
			if dc == nil {
				t.Fatal("detailed DRAM not installed")
			}
			if dc.RowHitRate() < 0.8 {
				t.Errorf("row hit rate = %.2f, want > 0.8 for streaming DMA", dc.RowHitRate())
			}
		} else if m.DRAMController() != nil {
			t.Fatal("unexpected DRAM controller")
		}
		return st
	}
	simple := runWith(false)
	detailed := runWith(true)
	if simple.NodesDone != detailed.NodesDone {
		t.Fatalf("node counts differ: %d vs %d", simple.NodesDone, detailed.NodesDone)
	}
	ratio := float64(detailed.Makespan) / float64(simple.Makespan)
	if ratio < 0.8 || ratio > 1.25 {
		t.Errorf("detailed/simple makespan = %.2f, want within 25%% (calibrated)", ratio)
	}
}
