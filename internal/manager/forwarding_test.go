package manager

import (
	"testing"

	"relief/internal/accel"
	"relief/internal/core"
	"relief/internal/graph"
	"relief/internal/sched"
	"relief/internal/sim"
	"relief/internal/stats"
	"relief/internal/trace"
	"relief/internal/workload"
)

// TestPartitionReclaimForcesWriteback: with a single output partition and
// a consumer that is forced to wait (FCFS interleaving with another
// chain), the producer's unconsumed result must be written back before the
// partition is overwritten, and the late consumer must read it from main
// memory — never lose data.
func TestPartitionReclaimForcesWriteback(t *testing.T) {
	cfg := DefaultConfig(sched.FCFS{})
	cfg.OutputPartitions = 1
	st := run(t, cfg,
		chain("a", 6, 80*sim.Millisecond),
		chain("b", 6, 80*sim.Millisecond))
	// Single partition + interleaving: intermediate results get evicted,
	// so a substantial share of edges must fall back to main memory, and
	// reads can never exceed what was written back plus external inputs.
	dramEdges := st.Edges - st.Forwards - st.Colocations
	if dramEdges == 0 {
		t.Fatal("expected DRAM fallback edges under single-partition interleaving")
	}
	extIn := int64(2 * 65536) // two chain roots
	if st.DRAMReadBytes > st.DRAMWriteBytes+extIn {
		t.Fatalf("read %d bytes from DRAM but only %d were written back (+%d external)",
			st.DRAMReadBytes, st.DRAMWriteBytes, extIn)
	}
}

// TestLeafAlwaysWrittenBack: final results must reach main memory under
// every policy — the user program reads them there.
func TestLeafAlwaysWrittenBack(t *testing.T) {
	for _, p := range []sched.Policy{sched.FCFS{}, core.New()} {
		k := sim.NewKernel()
		st := stats.New()
		m := New(k, DefaultConfig(p), st)
		var leafBytes int64
		for _, app := range []workload.App{workload.Canny, workload.Harris} {
			d := workload.MustBuild(app)
			for _, n := range d.Leaves() {
				leafBytes += n.OutputBytes
			}
			if err := m.Submit(d, 0); err != nil {
				t.Fatal(err)
			}
		}
		m.Run()
		if st.DRAMWriteBytes < leafBytes {
			t.Fatalf("%s: wrote %d bytes to DRAM, leaves alone need %d",
				p.Name(), st.DRAMWriteBytes, leafBytes)
		}
	}
}

// TestDispensableIntermediates: in a fully colocated chain, intermediate
// results are never written back ("intermediate results are dispensable").
func TestDispensableIntermediates(t *testing.T) {
	st := run(t, DefaultConfig(core.New()), chain("c", 10, 80*sim.Millisecond))
	if st.Colocations != 9 {
		t.Fatalf("colocations = %d, want 9", st.Colocations)
	}
	if st.DRAMWriteBytes != 65536 {
		t.Fatalf("DRAM writes = %d bytes, want leaf only (65536)", st.DRAMWriteBytes)
	}
}

// TestFanOutPartialForward: a producer with two same-kind children on one
// instance can colocate only one; the other still gets its data (forward
// from the surviving partition or DRAM), and accounting stays exact.
func TestFanOutPartialForward(t *testing.T) {
	b := func() *graph.DAG {
		d := graph.New("fan", "F", 80*sim.Millisecond)
		p := d.AddNode("p", accel.ElemMatrix, accel.OpAdd, 65536)
		p.ExtraInputBytes = 65536
		d.AddNode("c1", accel.ElemMatrix, accel.OpAdd, 65536, p)
		d.AddNode("c2", accel.ElemMatrix, accel.OpAdd, 65536, p)
		return d
	}
	st := run(t, DefaultConfig(core.New()), b())
	if st.Edges != 2 || st.NodesDone != 3 {
		t.Fatalf("edges=%d nodes=%d", st.Edges, st.NodesDone)
	}
	// Both children consumed the data somehow.
	if st.Forwards+st.Colocations+(st.Edges-st.Forwards-st.Colocations) != 2 {
		t.Fatal("edge accounting broken")
	}
	// With one EM instance the second child runs right after the first;
	// the producer's partition still holds the data (double buffering), so
	// both edges resolve locally.
	if st.Forwards+st.Colocations != 2 {
		t.Errorf("fan-out edges: fwd=%d col=%d dram=%d; double buffering should keep both local",
			st.Forwards, st.Colocations, st.Edges-st.Forwards-st.Colocations)
	}
}

// TestDiamondJoin: a join node must wait for both parents and can combine
// a colocation with a forward.
func TestDiamondJoin(t *testing.T) {
	b := func() *graph.DAG {
		d := graph.New("diamond", "D", 80*sim.Millisecond)
		src := d.AddNode("src", accel.Grayscale, accel.OpDefault, 65536)
		src.ExtraInputBytes = 65536
		l := d.AddNode("left", accel.Convolution, accel.OpDefault, 65536, src)
		l.FilterSize = 3
		r := d.AddNode("right", accel.ElemMatrix, accel.OpSqr, 65536, src)
		d.AddNode("join", accel.ElemMatrix, accel.OpAdd, 65536, l, r)
		return d
	}
	st := run(t, DefaultConfig(core.New()), b())
	if st.NodesDone != 4 || st.Edges != 4 {
		t.Fatalf("nodes=%d edges=%d", st.NodesDone, st.Edges)
	}
	if st.Forwards+st.Colocations < 3 {
		t.Errorf("diamond resolved only %d of 4 edges locally", st.Forwards+st.Colocations)
	}
}

// TestStaggeredRelease: a DAG released later must not start earlier, and
// deadlines are relative to its own release.
func TestStaggeredRelease(t *testing.T) {
	k := sim.NewKernel()
	st := stats.New()
	m := New(k, DefaultConfig(core.New()), st)
	early := workload.MustBuild(workload.Canny)
	late := workload.MustBuild(workload.Harris)
	if err := m.Submit(early, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(late, 5*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	m.Run()
	if late.Release != 5*sim.Millisecond {
		t.Fatalf("late release = %v", late.Release)
	}
	for _, n := range late.Nodes {
		if n.StartAt < 5*sim.Millisecond {
			t.Fatalf("node %s started at %v, before its DAG's release", n.Name, n.StartAt)
		}
		if n.Deadline != late.Release+n.RelDeadline {
			t.Fatalf("node %s deadline not rebased on release", n.Name)
		}
	}
}

// TestInstanceComputeBusyConservation: summed compute busy time equals the
// jittered compute of all executed nodes.
func TestInstanceComputeBusyConservation(t *testing.T) {
	k := sim.NewKernel()
	st := stats.New()
	m := New(k, DefaultConfig(core.New()), st)
	d := workload.MustBuild(workload.GRU)
	if err := m.Submit(d, 0); err != nil {
		t.Fatal(err)
	}
	m.Run()
	var want sim.Time
	for _, n := range d.Nodes {
		want += m.jitteredCompute(n)
	}
	if st.ComputeBusy != want {
		t.Fatalf("ComputeBusy = %v, want %v", st.ComputeBusy, want)
	}
}

// TestBusyInstanceNeverDoubleLaunched: no instance may run two nodes at
// once; validated via compute-span overlap per lane in a traced run.
func TestBusyInstanceNeverDoubleLaunched(t *testing.T) {
	k := sim.NewKernel()
	st := stats.New()
	cfg := DefaultConfig(core.New())
	rec := traceRecorder()
	cfg.Trace = rec
	m := New(k, cfg, st)
	for _, app := range []workload.App{workload.Canny, workload.Deblur, workload.Harris} {
		if err := m.Submit(workload.MustBuild(app), 0); err != nil {
			t.Fatal(err)
		}
	}
	m.Run()
	type span struct{ s, e sim.Time }
	lanes := map[string][]span{}
	for _, e := range rec.Events() {
		if e.Kind.String() != "compute" {
			continue
		}
		lanes[e.Lane] = append(lanes[e.Lane], span{e.Start, e.End})
	}
	for lane, spans := range lanes {
		for i := 1; i < len(spans); i++ {
			if spans[i].s < spans[i-1].e {
				t.Fatalf("lane %s: overlapping compute spans %v < %v", lane, spans[i].s, spans[i-1].e)
			}
		}
	}
}

func traceRecorder() *trace.Recorder { return trace.NewRecorder() }
