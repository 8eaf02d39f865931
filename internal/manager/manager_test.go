package manager

import (
	"testing"

	"relief/internal/accel"
	"relief/internal/core"
	"relief/internal/graph"
	"relief/internal/sched"
	"relief/internal/sim"
	"relief/internal/stats"
	"relief/internal/workload"
)

// run executes a set of DAGs to completion under the config.
func run(t *testing.T, cfg Config, dags ...*graph.DAG) *stats.Stats {
	t.Helper()
	k := sim.NewKernel()
	st := stats.New()
	m := New(k, cfg, st)
	for _, d := range dags {
		if err := d.Finalize(); err != nil {
			t.Fatal(err)
		}
		if err := m.Submit(d, 0); err != nil {
			t.Fatal(err)
		}
	}
	m.Run()
	return st
}

// chain builds an n-node elem-matrix chain.
func chain(name string, n int, deadline sim.Time) *graph.DAG {
	d := graph.New(name, "X", deadline)
	var prev *graph.Node
	for i := 0; i < n; i++ {
		if prev == nil {
			prev = d.AddNode("n0", accel.ElemMatrix, accel.OpAdd, 65536)
			prev.ExtraInputBytes = 65536
		} else {
			prev = d.AddNode("n", accel.ElemMatrix, accel.OpAdd, 65536, prev)
		}
	}
	return d
}

func TestSingleChainAllColocations(t *testing.T) {
	// An uncontended linear chain on one accelerator: every edge should be
	// a colocation (consumer launches right after its producer).
	st := run(t, DefaultConfig(core.New()), chain("c", 6, 50*sim.Millisecond))
	if st.NodesDone != 6 {
		t.Fatalf("finished %d nodes, want 6", st.NodesDone)
	}
	if st.Colocations != 5 || st.Forwards != 0 {
		t.Fatalf("colocations=%d forwards=%d, want 5/0", st.Colocations, st.Forwards)
	}
	// No intermediate write-backs: DRAM writes = final output only.
	if st.DRAMWriteBytes != 65536 {
		t.Errorf("DRAM writes = %d, want 65536 (leaf only)", st.DRAMWriteBytes)
	}
	// DRAM reads = the root's external input only.
	if st.DRAMReadBytes != 65536 {
		t.Errorf("DRAM reads = %d, want 65536 (root input only)", st.DRAMReadBytes)
	}
}

func TestDisableForwardingAllDRAM(t *testing.T) {
	cfg := DefaultConfig(core.New())
	cfg.DisableForwarding = true
	st := run(t, cfg, chain("c", 6, 50*sim.Millisecond))
	if st.Forwards != 0 || st.Colocations != 0 {
		t.Fatalf("forwarding disabled but got fwd=%d col=%d", st.Forwards, st.Colocations)
	}
	// Every load and store goes through main memory: traffic equals the
	// baseline exactly.
	if st.DRAMReadBytes+st.DRAMWriteBytes != st.BaselineBytes {
		t.Errorf("DRAM traffic %d != baseline %d", st.DRAMReadBytes+st.DRAMWriteBytes, st.BaselineBytes)
	}
}

func TestCrossKindForwarding(t *testing.T) {
	// conv -> elem-matrix: different accelerators, so the edge must be a
	// forward (SPAD-to-SPAD), not a colocation.
	b := func() *graph.DAG {
		d := graph.New("x", "X", 50*sim.Millisecond)
		c := d.AddNode("conv", accel.Convolution, accel.OpDefault, 65536)
		c.ExtraInputBytes = 65536
		d.AddNode("em", accel.ElemMatrix, accel.OpAdd, 65536, c)
		return d
	}
	st := run(t, DefaultConfig(core.New()), b())
	if st.Forwards != 1 || st.Colocations != 0 {
		t.Fatalf("fwd=%d col=%d, want 1/0", st.Forwards, st.Colocations)
	}
	if st.SpadXferBytes != 65536 {
		t.Errorf("SPAD transfer bytes = %d, want 65536", st.SpadXferBytes)
	}
}

func TestAlwaysWriteBack(t *testing.T) {
	cfg := DefaultConfig(core.New())
	cfg.AlwaysWriteBack = true
	st := run(t, cfg, chain("c", 4, 50*sim.Millisecond))
	// Every node writes back even though edges still forward/colocate.
	if st.DRAMWriteBytes != 4*65536 {
		t.Errorf("DRAM writes = %d, want %d", st.DRAMWriteBytes, 4*65536)
	}
	if st.Colocations == 0 {
		t.Error("colocations should still happen with always-write-back")
	}
}

// TestEdgeConservation: every edge materialises exactly once, as DRAM,
// forward, or colocation, and all nodes finish, across policies and mixes.
func TestEdgeConservation(t *testing.T) {
	policies := []sched.Policy{
		sched.FCFS{}, sched.GEDFD{}, sched.GEDFN{}, sched.LL{}, sched.LAX{},
		sched.HetSched{}, core.New(), core.NewLAX(),
	}
	mixes := [][]workload.App{
		{workload.Canny},
		{workload.GRU, workload.LSTM},
		{workload.Canny, workload.Deblur, workload.Harris},
		{workload.Canny, workload.GRU, workload.LSTM},
	}
	for _, p := range policies {
		for _, mix := range mixes {
			k := sim.NewKernel()
			st := stats.New()
			m := New(k, DefaultConfig(p), st)
			wantNodes, wantEdges := 0, 0
			for _, app := range mix {
				d := workload.MustBuild(app)
				wantNodes += len(d.Nodes)
				wantEdges += d.NumEdges()
				if err := m.Submit(d, 0); err != nil {
					t.Fatal(err)
				}
			}
			m.Run()
			name := p.Name() + "/" + workload.MixName(mix)
			if st.NodesDone != wantNodes {
				t.Errorf("%s: %d nodes done, want %d", name, st.NodesDone, wantNodes)
			}
			if st.Edges != wantEdges {
				t.Errorf("%s: %d edges recorded, want %d", name, st.Edges, wantEdges)
			}
			if st.Forwards+st.Colocations > st.Edges {
				t.Errorf("%s: fwd+col exceeds edges", name)
			}
			if st.DRAMReadBytes+st.DRAMWriteBytes > st.BaselineBytes {
				t.Errorf("%s: DRAM traffic %d exceeds all-DRAM baseline %d",
					name, st.DRAMReadBytes+st.DRAMWriteBytes, st.BaselineBytes)
			}
			if st.Makespan <= 0 {
				t.Errorf("%s: non-positive makespan", name)
			}
		}
	}
}

// TestDeterminism: identical scenarios produce bit-identical statistics.
func TestDeterminism(t *testing.T) {
	get := func() *stats.Stats {
		k := sim.NewKernel()
		st := stats.New()
		m := New(k, DefaultConfig(core.New()), st)
		for _, app := range []workload.App{workload.Canny, workload.GRU, workload.LSTM} {
			if err := m.Submit(workload.MustBuild(app), 0); err != nil {
				t.Fatal(err)
			}
		}
		m.Run()
		return st
	}
	a, b := get(), get()
	if a.Makespan != b.Makespan || a.Forwards != b.Forwards ||
		a.Colocations != b.Colocations || a.DRAMReadBytes != b.DRAMReadBytes ||
		a.DRAMWriteBytes != b.DRAMWriteBytes || a.NodesMetDeadline != b.NodesMetDeadline {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}

// TestContinuousResubmission: continuous mode re-instantiates finished DAGs
// until the horizon and counts only finished iterations.
func TestContinuousResubmission(t *testing.T) {
	k := sim.NewKernel()
	st := stats.New()
	m := New(k, DefaultConfig(core.New()), st)
	d := chain("loop", 4, 5*sim.Millisecond)
	if err := d.Finalize(); err != nil {
		t.Fatal(err)
	}
	if err := m.SubmitLoop(d, 0); err != nil {
		t.Fatal(err)
	}
	m.RunContinuous(10 * sim.Millisecond)
	a := st.Apps["loop"]
	if a == nil || a.Iterations < 2 {
		t.Fatalf("expected multiple finished iterations, got %+v", a)
	}
	if st.Makespan != 10*sim.Millisecond {
		t.Errorf("makespan = %v, want the horizon", st.Makespan)
	}
	if got := len(a.Runtimes); got != a.Iterations {
		t.Errorf("runtimes recorded %d, want %d", got, a.Iterations)
	}
}

// TestWritebackWhenConsumerNotNextInLine: when a competing node occupies
// the queue ahead of the child, the producer's result is written back.
func TestWritebackWhenConsumerNotNextInLine(t *testing.T) {
	// Two chains on one elem-matrix accelerator under FCFS: interleaving
	// means children are not next in line, forcing write-backs.
	st := run(t, DefaultConfig(sched.FCFS{}),
		chain("a", 5, 50*sim.Millisecond),
		chain("b", 5, 50*sim.Millisecond))
	if st.DRAMWriteBytes <= 2*65536 {
		t.Errorf("expected intermediate write-backs beyond the 2 leaves, got %d bytes", st.DRAMWriteBytes)
	}
}

// TestMultiInstanceForwarding: with two elem-matrix instances a fan-out of
// two children can forward to both.
func TestMultiInstanceForwarding(t *testing.T) {
	cfg := DefaultConfig(core.New())
	cfg.Instances[accel.ElemMatrix] = 2
	b := func() *graph.DAG {
		d := graph.New("fan", "F", 50*sim.Millisecond)
		p := d.AddNode("p", accel.ElemMatrix, accel.OpAdd, 65536)
		p.ExtraInputBytes = 65536
		d.AddNode("c1", accel.ElemMatrix, accel.OpAdd, 65536, p)
		d.AddNode("c2", accel.ElemMatrix, accel.OpAdd, 65536, p)
		return d
	}
	st := run(t, cfg, b())
	if st.Forwards+st.Colocations != 2 {
		t.Fatalf("fwd=%d col=%d, want both edges satisfied locally", st.Forwards, st.Colocations)
	}
	if st.Forwards < 1 {
		t.Errorf("expected at least one SPAD-to-SPAD forward across instances")
	}
}

// TestNodeTimesPopulated: every finished node carries coherent timestamps.
func TestNodeTimesPopulated(t *testing.T) {
	k := sim.NewKernel()
	st := stats.New()
	m := New(k, DefaultConfig(core.New()), st)
	d := workload.MustBuild(workload.Canny)
	if err := m.Submit(d, 0); err != nil {
		t.Fatal(err)
	}
	m.Run()
	for _, n := range d.Nodes {
		if n.State != graph.Done {
			t.Fatalf("node %s not done", n.Name)
		}
		if n.FinishAt <= n.StartAt {
			t.Errorf("node %s finish %v <= start %v", n.Name, n.FinishAt, n.StartAt)
		}
		for _, p := range n.Parents {
			if n.StartAt < p.FinishAt {
				t.Errorf("node %s started at %v before parent %s finished at %v",
					n.Name, n.StartAt, p.Name, p.FinishAt)
			}
		}
	}
	if !d.Finished() {
		t.Fatal("DAG not finished")
	}
}

// TestSchedulerCostCharged: scheduler latency samples are recorded and the
// manager serialises its work.
func TestSchedulerCostCharged(t *testing.T) {
	st := run(t, DefaultConfig(core.New()), chain("c", 5, 50*sim.Millisecond))
	if st.SchedOps < 5 {
		t.Fatalf("recorded %d scheduler samples, want >= 5", st.SchedOps)
	}
	avg, tail := st.SchedLatency()
	if avg <= 0 || tail < avg {
		t.Errorf("latency avg=%v tail=%v", avg, tail)
	}
}

// TestRuntimeEstimateIsComputePlusMemory.
func TestRuntimeEstimate(t *testing.T) {
	k := sim.NewKernel()
	m := New(k, DefaultConfig(core.New()), stats.New())
	d := graph.New("t", "T", sim.Millisecond)
	n := d.AddNode("n", accel.ElemMatrix, accel.OpAdd, 64000)
	n.ExtraInputBytes = 64000
	if err := d.Finalize(); err != nil {
		t.Fatal(err)
	}
	est := m.RuntimeEstimate(n)
	memT := sim.Time(float64(128000) / (6.4e9) * float64(sim.Second))
	if est != n.Compute+memT {
		t.Errorf("RuntimeEstimate = %v, want %v", est, n.Compute+memT)
	}
}

// TestComputeJitterBounded: the deterministic jitter stays within the
// configured amplitude and is reproducible.
func TestComputeJitterBounded(t *testing.T) {
	cfg := DefaultConfig(core.New())
	k := sim.NewKernel()
	m := New(k, cfg, stats.New())
	d := workload.MustBuild(workload.GRU)
	for _, n := range d.Nodes {
		j1 := m.jitteredCompute(n)
		j2 := m.jitteredCompute(n)
		if j1 != j2 {
			t.Fatal("jitter not deterministic")
		}
		lo := float64(n.Compute) * (1 - cfg.ComputeJitter)
		hi := float64(n.Compute) * (1 + cfg.ComputeJitter)
		if float64(j1) < lo-1 || float64(j1) > hi+1 {
			t.Fatalf("jittered %v outside [%v, %v]", j1, lo, hi)
		}
	}
	// Zero jitter passes through.
	cfg2 := cfg
	cfg2.ComputeJitter = 0
	m2 := New(sim.NewKernel(), cfg2, stats.New())
	if m2.jitteredCompute(d.Nodes[0]) != d.Nodes[0].Compute {
		t.Fatal("zero jitter must return nominal compute")
	}
}

// TestSubmitRejectsCyclicDAG.
func TestSubmitRejectsCyclicDAG(t *testing.T) {
	k := sim.NewKernel()
	m := New(k, DefaultConfig(core.New()), stats.New())
	d := graph.New("cyclic", "Y", sim.Millisecond)
	a := d.AddNode("a", accel.ElemMatrix, accel.OpAdd, 100)
	b := d.AddNode("b", accel.ElemMatrix, accel.OpAdd, 100, a)
	a.Parents = append(a.Parents, b)
	a.EdgeInBytes = append(a.EdgeInBytes, 100)
	b.Children = append(b.Children, a)
	if err := m.Submit(d, 0); err == nil {
		t.Fatal("cyclic DAG accepted")
	}
}

// TestNilPolicyPanics.
func TestNilPolicyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil policy must panic")
		}
	}()
	New(sim.NewKernel(), Config{}, stats.New())
}

// TestSinglePartitionStillCorrect: with one output partition, forwarding
// windows shrink but everything still completes and conserves.
func TestSinglePartitionStillCorrect(t *testing.T) {
	cfg := DefaultConfig(core.New())
	cfg.OutputPartitions = 1
	st := run(t, cfg,
		chain("a", 8, 50*sim.Millisecond),
		chain("b", 8, 50*sim.Millisecond))
	if st.NodesDone != 16 {
		t.Fatalf("finished %d nodes, want 16", st.NodesDone)
	}
	if st.Edges != 14 {
		t.Fatalf("edges = %d, want 14", st.Edges)
	}
}
