package graph_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"relief/internal/accel"
	"relief/internal/core"
	"relief/internal/graph"
	"relief/internal/manager"
	"relief/internal/sim"
	"relief/internal/stats"
	"relief/internal/workload"
)

// variants builds every application plain (a clone of its template), from
// scratch (scale 1), at scale 2, and at scale 2 split into four tiles.
func variants(t *testing.T) map[string]func() *graph.DAG {
	t.Helper()
	out := map[string]func() *graph.DAG{}
	for a := workload.App(0); a < workload.NumApps; a++ {
		a := a
		must := func(d *graph.DAG, err error) *graph.DAG {
			if err != nil {
				t.Fatal(err)
			}
			return d
		}
		out[a.Name()] = func() *graph.DAG { return must(workload.Build(a)) }
		out[a.Name()+"/fresh"] = func() *graph.DAG { return must(workload.BuildScaled(a, 1)) }
		out[a.Name()+"/scaled"] = func() *graph.DAG { return must(workload.BuildScaled(a, 2)) }
		out[a.Name()+"/tiled"] = func() *graph.DAG { return must(workload.BuildTiled(a, 2, 4)) }
	}
	return out
}

// TestCloneMatchesBuild: cloning a DAG that has run to completion gives
// exactly a fresh build with the same deadlines: every static field, the
// edges with their bytes in order, and zero run-time state, including no
// manager bookkeeping (Ext). The clone shares no memory with its source.
// Once the run DAG is freed, the next clone reuses it and gives the same
// copy again.
func TestCloneMatchesBuild(t *testing.T) {
	for name, build := range variants(t) {
		t.Run(name, func(t *testing.T) {
			src := build()
			m := manager.New(sim.NewKernel(), manager.DefaultConfig(core.New()), stats.New())
			if err := m.Submit(src, 0); err != nil {
				t.Fatal(err)
			}
			m.Run()
			if !src.Finished() {
				t.Fatal("source DAG did not run to completion")
			}
			want := build()
			if err := graph.AssignDeadlines(want, core.New().DeadlineMode(), m.RuntimeEstimate); err != nil {
				t.Fatal(err)
			}
			got := src.Clone()
			sameDAG(t, got, want)
			for i, n := range got.Nodes {
				if src.Nodes[i].Ext == nil {
					t.Fatalf("source node %d carries no manager state after its run", i)
				}
				if n.Ext != nil {
					t.Fatalf("clone node %d carries the source's manager state", i)
				}
			}

			// Freed, the run DAG is what the next clone of its shape
			// returns, rewritten to the same copy; only its manager
			// record (DAG.Ext) is kept, for reuse.
			rec := src.Ext
			if rec == nil {
				t.Fatal("source DAG carries no manager record after its run")
			}
			src.Free()
			again := got.Clone()
			if again != src {
				t.Fatal("Clone did not reuse the freed DAG")
			}
			if again.Ext != rec {
				t.Fatal("the reused DAG lost its manager record")
			}
			again.Ext = nil
			sameDAG(t, again, got.Clone())
			src = again

			before := fmt.Sprint(edgeBytes(src))
			for _, n := range got.Nodes {
				for i := range n.EdgeInBytes {
					n.EdgeInBytes[i] = -1
				}
			}
			if after := fmt.Sprint(edgeBytes(src)); after != before {
				t.Error("writing the clone's EdgeInBytes changed the source")
			}
		})
	}
}

// sameDAG compares two DAGs field by field, nodes by position.
func sameDAG(t *testing.T, got, want *graph.DAG) {
	t.Helper()
	g, w := *got, *want
	g.Nodes, w.Nodes = nil, nil
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("DAG fields differ:\ngot  %+v\nwant %+v", g, w)
	}
	if len(got.Nodes) != len(want.Nodes) {
		t.Fatalf("%d nodes, want %d", len(got.Nodes), len(want.Nodes))
	}
	for i, gn := range got.Nodes {
		wn := want.Nodes[i]
		if gn.DAG != got {
			t.Fatalf("node %d belongs to another DAG", i)
		}
		if !slices.Equal(ids(gn.Parents), ids(wn.Parents)) || !slices.Equal(ids(gn.Children), ids(wn.Children)) {
			t.Fatalf("node %d edges: parents %v children %v, want %v %v",
				i, ids(gn.Parents), ids(gn.Children), ids(wn.Parents), ids(wn.Children))
		}
		for _, o := range append(gn.Parents[:len(gn.Parents):len(gn.Parents)], gn.Children...) {
			if got.Nodes[o.ID] != o {
				t.Fatalf("node %d has an edge leaving the clone", i)
			}
		}
		if !slices.Equal(gn.EdgeInBytes, wn.EdgeInBytes) {
			t.Fatalf("node %d edge bytes %v, want %v", i, gn.EdgeInBytes, wn.EdgeInBytes)
		}
		// Everything else, run-time state included, must match exactly.
		gs, ws := *gn, *wn
		gs.Parents, gs.Children, gs.EdgeInBytes, gs.DAG = nil, nil, nil, nil
		ws.Parents, ws.Children, ws.EdgeInBytes, ws.DAG = nil, nil, nil, nil
		if !reflect.DeepEqual(gs, ws) {
			t.Fatalf("node %d differs:\ngot  %+v\nwant %+v", i, gs, ws)
		}
	}
}

func ids(ns []*graph.Node) []int {
	out := make([]int, len(ns))
	for i, n := range ns {
		out[i] = n.ID
	}
	return out
}

func edgeBytes(d *graph.DAG) [][]int64 {
	out := make([][]int64, len(d.Nodes))
	for i, n := range d.Nodes {
		out[i] = n.EdgeInBytes
	}
	return out
}

var sink *graph.DAG

// TestCloneAllocs: a clone costs the same handful of allocations whatever
// its node count (GRU has 114 nodes, LSTM 134, tiled LSTM 536).
func TestCloneAllocs(t *testing.T) {
	for _, name := range []string{"canny", "gru", "lstm", "lstm/tiled"} {
		d := variants(t)[name]()
		if allocs := testing.AllocsPerRun(20, func() { sink = d.Clone() }); allocs != 5 {
			t.Errorf("%s (%d nodes): Clone made %v allocations, want 5", name, len(d.Nodes), allocs)
		}
	}
}

// TestFinalizeRejectsMisplacedNodes: Clone maps nodes by position, so
// Finalize refuses a DAG with an edge to a node whose ID is not its
// position, or to another DAG's node. Misplaced IDs with no edges through
// them are harmless: Clone copies them as they are.
func TestFinalizeRejectsMisplacedNodes(t *testing.T) {
	build := func() *graph.DAG {
		d := graph.New("pair", "P", sim.Millisecond)
		p := d.AddNode("p", accel.ElemMatrix, accel.OpAdd, 64)
		d.AddNode("c", accel.ElemMatrix, accel.OpAdd, 64, p)
		d.AddNode("solo", accel.ElemMatrix, accel.OpAdd, 64)
		return d
	}
	swapped := build()
	swapped.Nodes[0].ID, swapped.Nodes[1].ID = 1, 0
	if err := swapped.Finalize(); err == nil {
		t.Error("Finalize accepted an edge to a node whose ID is not its position")
	}

	foreign := build()
	other := build()
	foreign.Nodes[1].Parents[0] = other.Nodes[0]
	if err := foreign.Finalize(); err == nil {
		t.Error("Finalize accepted an edge to another DAG's node")
	}

	loose := build()
	loose.Nodes[2].ID = 9
	if err := loose.Finalize(); err != nil {
		t.Fatalf("Finalize rejected a misplaced ID with no edges: %v", err)
	}
	sameDAG(t, loose.Clone(), loose)
}

// record is a stand-in for the manager's per-iteration record.
type record struct{ resets int }

func (r *record) Reset() { r.resets++ }

// TestFreeListReuse: a freed DAG comes back from the next Clone of its
// shape without an allocation, keeping its Ext, which Free has reset.
// Freeing twice panics; a DAG with no free list, or any DAG while
// recycling is off, is left to the garbage collector.
func TestFreeListReuse(t *testing.T) {
	d := graph.New("pair", "P", sim.Millisecond)
	p := d.AddNode("p", accel.ElemMatrix, accel.OpAdd, 64)
	d.AddNode("c", accel.ElemMatrix, accel.OpAdd, 64, p)
	if err := d.Finalize(); err != nil {
		t.Fatal(err)
	}

	c := d.Clone()
	rec := &record{}
	c.Ext = rec
	c.Nodes[1].State, c.Release = graph.Done, sim.Millisecond
	c.Free()
	if rec.resets != 1 {
		t.Fatalf("Free reset the record %d times, want 1", rec.resets)
	}
	again := d.Clone()
	if again != c || again.Ext != rec {
		t.Fatal("Clone did not reuse the freed DAG and its record")
	}
	again.Ext = nil
	sameDAG(t, again, d.Clone())

	if allocs := testing.AllocsPerRun(20, func() { d.Clone().Free() }); allocs != 0 {
		t.Errorf("a clone from the free list made %v allocations, want 0", allocs)
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Error("freeing a DAG twice did not panic")
			}
		}()
		c := d.Clone()
		c.Free()
		c.Free()
	}()

	loose := graph.New("loose", "L", sim.Millisecond)
	loose.AddNode("n", accel.ElemMatrix, accel.OpAdd, 64)
	loose.Free()
	loose.Free() // no list: nothing to free, so no double free either

	prev := graph.SetRecycling(false)
	defer graph.SetRecycling(prev)
	off := d.Clone()
	off.Free()
	if d.Clone() == off {
		t.Error("Clone reused a DAG while recycling was off")
	}
}
