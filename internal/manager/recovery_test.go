package manager

import (
	"fmt"
	"testing"

	"relief/internal/accel"
	"relief/internal/core"
	"relief/internal/fault"
	"relief/internal/sim"
	"relief/internal/stats"
	"relief/internal/workload"
)

// statsLine canonicalises every result counter the deadline/traffic tables
// consume, for bit-identity comparisons.
func statsLine(st *stats.Stats) string {
	return fmt.Sprintf("mk=%d edges=%d fwd=%d col=%d dr=%d dw=%d sx=%d nd=%d nm=%d cb=%d",
		int64(st.Makespan), st.Edges, st.Forwards, st.Colocations,
		st.DRAMReadBytes, st.DRAMWriteBytes, st.SpadXferBytes,
		st.NodesDone, st.NodesMetDeadline, int64(st.ComputeBusy))
}

// TestHairTriggerWatchdogNeutral arms a deliberately absurd watchdog
// (0.1% of the predicted runtime, so it expires many times per task) on a
// fault-free run and requires bit-identical results: false alarms must
// re-arm silently, never recover a live task.
func TestHairTriggerWatchdogNeutral(t *testing.T) {
	base := run(t, DefaultConfig(core.New()), workload.MustBuild(workload.Canny))

	cfg := DefaultConfig(core.New())
	cfg.Fault = &fault.Plan{Seed: 3} // zero rates: nothing ever faults
	cfg.WatchdogMult = 0.001
	tight := run(t, cfg, workload.MustBuild(workload.Canny))

	if a, b := statsLine(base), statsLine(tight); a != b {
		t.Fatalf("hair-trigger watchdog perturbed results:\n%s\n%s", a, b)
	}
	if fs := tight.Faults; fs.WatchdogFires != 0 || fs.Retries != 0 || fs.Any() {
		t.Fatalf("recovery triggered on a fault-free run: %+v", fs)
	}
}

// twoOfEach doubles every accelerator kind so tasks have a sibling to
// retry on.
func twoOfEach(policy string) Config {
	var p = core.New()
	_ = policy
	cfg := DefaultConfig(p)
	for k := range cfg.Instances {
		cfg.Instances[k] = 2
	}
	total := 0
	for _, c := range cfg.Instances {
		total += c
	}
	cfg.Interconnect.Instances = total
	return cfg
}

// TestDeathMidDAGRecovers is the acceptance scenario: two instances per
// kind under RELIEF, and the instance busy with a canny task dies mid-DAG
// (instances are laid out kind-major, two per kind; index 4 is the first
// instance of kind 2, which canny keeps occupied at 0.5 ms). The watchdog
// must fire for the stranded task, the task must retry on the sibling,
// forwarded state from live producers must be invalidated and refetched
// through main memory, and the DAG must still finish — the simulation
// always terminates.
func TestDeathMidDAGRecovers(t *testing.T) {
	cfg := twoOfEach("RELIEF")
	cfg.Fault = &fault.Plan{Seed: 1, DieAt: map[int]sim.Time{
		4: 500 * sim.Microsecond,
	}}

	k := sim.NewKernel()
	st := stats.New()
	m := New(k, cfg, st)
	d := workload.MustBuild(workload.Canny)
	if err := m.Submit(d, 0); err != nil {
		t.Fatal(err)
	}
	end := m.Run() // must terminate
	if end == 0 {
		t.Fatal("simulation did not advance")
	}
	fs := st.Faults
	if fs.InstanceDeaths != 1 {
		t.Fatalf("deaths = %d, want 1", fs.InstanceDeaths)
	}
	if !d.Finished() && !d.Aborted {
		t.Fatal("DAG neither finished nor aborted")
	}
	if d.Aborted {
		t.Fatalf("DAG aborted (%s) despite live siblings", d.AbortReason)
	}
	if fs.WatchdogFires < 1 {
		t.Fatalf("watchdog never fired despite mid-DAG deaths: %+v", fs)
	}
	if fs.Retries < 1 {
		t.Fatal("no task was retried on a sibling")
	}
	// The canny chain forwards/colocates aggressively, so a death mid-DAG
	// must have invalidated at least one scratchpad-resident input and
	// refetched it through main memory.
	if fs.InvalidatedForwards < 1 {
		t.Fatalf("no forwarded state was invalidated: %+v", fs)
	}
	if fs.RecoveryDRAMBytes <= 0 {
		t.Fatalf("no recovery write-back traffic accounted: %+v", fs)
	}
	if fs.Recoveries < 1 || fs.RecoveryTime <= 0 {
		t.Fatalf("MTTR accounting empty: %+v", fs)
	}
	if st.NodesDone != len(d.Nodes) {
		t.Fatalf("finished %d nodes, want %d", st.NodesDone, len(d.Nodes))
	}
}

// TestAllInstancesDeadAborts kills the only instance of a required kind:
// every DAG needing it must abort cleanly and Run must return.
func TestAllInstancesDeadAborts(t *testing.T) {
	cfg := DefaultConfig(core.New()) // one instance per kind
	cfg.Fault = &fault.Plan{Seed: 1, DieAt: map[int]sim.Time{
		int(accel.ElemMatrix): 100 * sim.Microsecond,
	}}
	k := sim.NewKernel()
	st := stats.New()
	m := New(k, cfg, st)
	d := workload.MustBuild(workload.GRU) // heavy elem-matrix user
	if err := m.Submit(d, 0); err != nil {
		t.Fatal(err)
	}
	m.Run() // must not wedge
	if !d.Aborted {
		t.Fatal("DAG not aborted after its only elem-matrix instance died")
	}
	if st.Faults.DAGsAborted != 1 {
		t.Fatalf("DAGsAborted = %d, want 1", st.Faults.DAGsAborted)
	}
	if a := st.App("gru", "G", d.Deadline); a.Aborted != 1 {
		t.Fatalf("app aborted count = %d, want 1", a.Aborted)
	}
	// A fresh submission needing the dead kind aborts at release.
	d2 := workload.MustBuild(workload.GRU)
	if err := m.Submit(d2, k.Now()); err != nil {
		t.Fatal(err)
	}
	m.Run()
	if !d2.Aborted {
		t.Fatal("post-death submission not aborted at release")
	}
}

// TestTransientFailureRetriesToCompletion injects only transient failures
// (results discarded at completion, task re-dispatched) and checks the
// DAG still completes with retries recorded.
func TestTransientFailureRetriesToCompletion(t *testing.T) {
	cfg := twoOfEach("RELIEF")
	cfg.Fault = &fault.Plan{Seed: 5, Rates: fault.Rates{TaskFail: 0.3}}
	k := sim.NewKernel()
	st := stats.New()
	m := New(k, cfg, st)
	d := workload.MustBuild(workload.Harris)
	if err := m.Submit(d, 0); err != nil {
		t.Fatal(err)
	}
	m.Run()
	if !d.Finished() {
		t.Fatalf("DAG did not finish (aborted=%v %s)", d.Aborted, d.AbortReason)
	}
	if st.Faults.TransientFails < 1 || st.Faults.Retries < 1 {
		t.Fatalf("no transient failures materialised at rate 0.3: %+v", st.Faults)
	}
}

// TestRetriesExhaustedAbortsCleanly forces every attempt of every task to
// hang; after MaxRetries the DAG must abort (not loop forever) and the
// simulation must drain.
func TestRetriesExhaustedAbortsCleanly(t *testing.T) {
	cfg := twoOfEach("RELIEF")
	cfg.Fault = &fault.Plan{Seed: 2, Rates: fault.Rates{TaskHang: 1.0}}
	cfg.MaxRetries = 2
	k := sim.NewKernel()
	st := stats.New()
	m := New(k, cfg, st)
	d := workload.MustBuild(workload.Canny)
	if err := m.Submit(d, 0); err != nil {
		t.Fatal(err)
	}
	m.Run()
	if !d.Aborted {
		t.Fatal("always-hanging DAG not aborted")
	}
	if st.Faults.DAGsAborted != 1 {
		t.Fatalf("DAGsAborted = %d, want 1", st.Faults.DAGsAborted)
	}
	if st.Faults.WatchdogFires < cfg.MaxRetries+1 {
		t.Fatalf("watchdog fired %d times, want > MaxRetries=%d",
			st.Faults.WatchdogFires, cfg.MaxRetries)
	}
}

// TestSlowdownOnlyDelays injects pure slowdowns: everything completes,
// nothing retries, and the makespan strictly grows.
func TestSlowdownOnlyDelays(t *testing.T) {
	base := run(t, DefaultConfig(core.New()), workload.MustBuild(workload.LSTM))
	cfg := DefaultConfig(core.New())
	cfg.Fault = &fault.Plan{Seed: 4, Rates: fault.Rates{TaskSlow: 0.5, SlowFactor: 4}}
	slow := run(t, cfg, workload.MustBuild(workload.LSTM))
	if slow.Faults.Slowdowns < 1 {
		t.Fatalf("no slowdowns at rate 0.5: %+v", slow.Faults)
	}
	if slow.Faults.Retries != 0 || slow.Faults.DAGsAborted != 0 {
		t.Fatalf("slowdowns must not trigger recovery: %+v", slow.Faults)
	}
	if slow.Makespan <= base.Makespan {
		t.Fatalf("slowdowns did not grow makespan: %v <= %v", slow.Makespan, base.Makespan)
	}
	if slow.NodesDone != base.NodesDone {
		t.Fatalf("slow run finished %d nodes, want %d", slow.NodesDone, base.NodesDone)
	}
}
