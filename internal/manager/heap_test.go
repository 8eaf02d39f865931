package manager

import (
	"runtime"
	"testing"

	"relief/internal/core"
	"relief/internal/graph"
	"relief/internal/sim"
	"relief/internal/stats"
	"relief/internal/workload"
)

// TestLongRunHeapStaysFlat: a finished iteration's DAG and state are reused
// or freed, never kept. Continuous CGL and a periodic CGL mix each run at a
// short and a ten times longer horizon; the live heap after the long run,
// with the manager still reachable, may exceed the short run's only by the
// per-iteration run times, a few KB (measured under 0.03 MB). Keeping one
// scheduler-cost sample per ready-queue insertion costs about 0.3 MB, and
// keeping every iteration's node state alive about 19 MB; the bound fails
// both.
func TestLongRunHeapStaysFlat(t *testing.T) {
	mix, err := workload.ParseMix("CGL")
	if err != nil {
		t.Fatal(err)
	}
	schedules := []struct {
		name   string
		submit func(m *Manager, horizon sim.Time) error
	}{
		{"continuous", func(m *Manager, _ sim.Time) error {
			for _, app := range mix {
				if err := m.SubmitLoop(workload.MustBuild(app), 0); err != nil {
					return err
				}
			}
			return nil
		}},
		{"periodic", func(m *Manager, horizon sim.Time) error {
			for _, app := range mix {
				if err := m.SubmitPeriodic(workload.MustBuild(app), app.Deadline(), horizon); err != nil {
					return err
				}
			}
			return nil
		}},
	}
	const maxGrowth = 128 << 10
	for _, s := range schedules {
		short := liveHeapAfter(t, s.submit, 100*sim.Millisecond)
		long := liveHeapAfter(t, s.submit, sim.Second)
		t.Logf("%s: live heap %.2f MB at 100 ms, %.2f MB at 1 s", s.name, mb(short), mb(long))
		if long-short > maxGrowth {
			t.Errorf("%s: live heap grew %.2f MB from a 100 ms to a 1 s horizon, want at most %.2f MB",
				s.name, mb(long-short), mb(maxGrowth))
		}
	}
}

// liveHeapAfter runs one schedule to the horizon and returns the live heap
// with the manager still reachable.
func liveHeapAfter(t *testing.T, submit func(*Manager, sim.Time) error, horizon sim.Time) int64 {
	t.Helper()
	m := New(sim.NewKernel(), DefaultConfig(core.New()), stats.New())
	if err := submit(m, horizon); err != nil {
		t.Fatal(err)
	}
	m.RunContinuous(horizon)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(m)
	return int64(ms.HeapAlloc)
}

func mb(b int64) float64 { return float64(b) / (1 << 20) }

// TestLoopIterationsReuseRetiredDAGs: each loop iteration after the first
// few reuses a retired DAG with its node states and bound release, and
// the end of a run frees the iterations the horizon cut off, so a second
// continuous CGL run to 2 s, about 760 iterations, clones nothing cold: it
// makes 226 allocations, the manager's set-up and the run's statistics.
// Leaving the cut-off iterations unfreed costs about 250, because the next
// run cold-clones their replacements; cloning every iteration and
// allocating its states, release closure and root list cost about
// fourteen allocations per iteration.
func TestLoopIterationsReuseRetiredDAGs(t *testing.T) {
	mix, err := workload.ParseMix("CGL")
	if err != nil {
		t.Fatal(err)
	}
	iterations := 0
	var dags []*graph.DAG
	allocs := testing.AllocsPerRun(3, func() {
		m := New(sim.NewKernel(), DefaultConfig(core.New()), stats.New())
		dags = dags[:0]
		for _, app := range mix {
			d := workload.MustBuild(app)
			dags = append(dags, d)
			if err := m.SubmitLoop(d, 0); err != nil {
				t.Fatal(err)
			}
		}
		m.RunContinuous(2 * sim.Second)
		m.FreeLive()
		for _, d := range dags {
			d.Free()
		}
		iterations = 0
		for _, a := range m.st.Apps {
			iterations += a.Iterations
		}
	})
	t.Logf("%v allocations for %d iterations", allocs, iterations)
	const maxAllocs = 240
	if allocs > maxAllocs {
		t.Errorf("a run of %d iterations made %v allocations, want at most %d", iterations, allocs, maxAllocs)
	}
}
