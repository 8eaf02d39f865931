package workload

import (
	"sync"
	"testing"

	"relief/internal/core"
	"relief/internal/graph"
	"relief/internal/manager"
	"relief/internal/sim"
	"relief/internal/stats"
)

// fresh builds the application from scratch, bypassing the template.
func fresh(t *testing.T, a App) *graph.DAG {
	t.Helper()
	d, err := buildRaw(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Finalize(); err != nil {
		t.Fatal(err)
	}
	return d
}

// sameShape fails unless got is an unsubmitted, unreleased DAG with
// want's shape: node fields, edges and edge bytes in order, and no run-time
// state.
func sameShape(t *testing.T, label string, got, want *graph.DAG) {
	t.Helper()
	if got.App != want.App || got.Deadline != want.Deadline || len(got.Nodes) != len(want.Nodes) {
		t.Fatalf("%s: DAG %s/%v/%d nodes, want %s/%v/%d", label, got.App, got.Deadline, len(got.Nodes), want.App, want.Deadline, len(want.Nodes))
	}
	if got.Submitted || got.Loop || got.Release != 0 || got.Iteration != 0 {
		t.Fatalf("%s: DAG carries run state: submitted=%v loop=%v release=%v iteration=%d", label, got.Submitted, got.Loop, got.Release, got.Iteration)
	}
	for i, n := range got.Nodes {
		w := want.Nodes[i]
		if n.ID != w.ID || n.Name != w.Name || n.Compute != w.Compute || n.OutputBytes != w.OutputBytes ||
			n.RelDeadline != 0 || n.Ext != nil || n.State != graph.Waiting || n.DAG != got {
			t.Fatalf("%s: node %d = %+v, want the shape of %+v", label, i, n, w)
		}
		if len(n.Parents) != len(w.Parents) || len(n.Children) != len(w.Children) || len(n.EdgeInBytes) != len(w.EdgeInBytes) {
			t.Fatalf("%s: node %s has %d parents, %d children, %d edges; want %d, %d, %d", label, n.Name,
				len(n.Parents), len(n.Children), len(n.EdgeInBytes), len(w.Parents), len(w.Children), len(w.EdgeInBytes))
		}
		for j, p := range n.Parents {
			if p == nil || p.ID != w.Parents[j].ID || got.Nodes[p.ID] != p || n.EdgeInBytes[j] != w.EdgeInBytes[j] {
				t.Fatalf("%s: node %s parent edge %d differs from a fresh build", label, n.Name, j)
			}
		}
		for j, c := range n.Children {
			if c.ID != w.Children[j].ID || got.Nodes[c.ID] != c {
				t.Fatalf("%s: node %s child edge %d differs from a fresh build", label, n.Name, j)
			}
		}
	}
}

// TestBuildSharesNoMemory: Build hands out clones of one template, and no
// two results share memory: scribbling over one leaves another, and every
// later Build, equal to a fresh build.
func TestBuildSharesNoMemory(t *testing.T) {
	for a := App(0); a < NumApps; a++ {
		t.Run(a.Name(), func(t *testing.T) {
			x, y := MustBuild(a), MustBuild(a)
			for _, n := range x.Nodes {
				for i := range n.EdgeInBytes {
					n.EdgeInBytes[i] = -1
				}
				for i := range n.Parents {
					n.Parents[i] = nil
				}
				n.Children = append(n.Children, n)
				n.RelDeadline = -1
				n.Compute = -1
				n.Ext = t
			}
			x.Submitted = true
			want := fresh(t, a)
			sameShape(t, "second Build", y, want)
			sameShape(t, "third Build", MustBuild(a), want)
		})
	}
}

// TestBuildNeverReturnsSubmitted: running an earlier Build result leaves
// nothing behind in the next one.
func TestBuildNeverReturnsSubmitted(t *testing.T) {
	for a := App(0); a < NumApps; a++ {
		t.Run(a.Name(), func(t *testing.T) {
			ran := MustBuild(a)
			m := manager.New(sim.NewKernel(), manager.DefaultConfig(core.New()), stats.New())
			if err := m.Submit(ran, 0); err != nil {
				t.Fatal(err)
			}
			m.Run()
			if !ran.Finished() {
				t.Fatal("submitted DAG did not run to completion")
			}
			next := MustBuild(a)
			sameShape(t, "Build after a run", next, fresh(t, a))
			m2 := manager.New(sim.NewKernel(), manager.DefaultConfig(core.New()), stats.New())
			if err := m2.Submit(next, 0); err != nil {
				t.Fatalf("Build after a run cannot be submitted: %v", err)
			}
		})
	}
}

// TestBuildConcurrent: grid jobs build in parallel; every app's template
// is built once however many goroutines race for it (run under -race).
func TestBuildConcurrent(t *testing.T) {
	const workers = 8
	got := make([][NumApps]*graph.DAG, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := App(0); i < NumApps; i++ {
				a := (i + App(w)) % NumApps
				d, err := Build(a)
				if err != nil {
					t.Error(err)
					return
				}
				d.Nodes[0].Ext = w // each result is the caller's to mutate
				got[w][a] = d
			}
		}(w)
	}
	wg.Wait()
	for a := App(0); a < NumApps; a++ {
		want := fresh(t, a)
		for w := range got {
			d := got[w][a]
			if d == nil {
				t.Fatalf("worker %d built no %v", w, a)
			}
			if d.Nodes[0].Ext != w {
				t.Fatalf("worker %d's %v shares node 0 with another result", w, a)
			}
			d.Nodes[0].Ext = nil
			sameShape(t, a.Name(), d, want)
		}
	}
}

// TestBuildUnknownApp: an out-of-range App is an error, not a panic.
func TestBuildUnknownApp(t *testing.T) {
	for _, a := range []App{NumApps, -1} {
		if d, err := Build(a); err == nil || d != nil {
			t.Errorf("Build(%d) = %v, %v; want an error", a, d, err)
		}
	}
}
