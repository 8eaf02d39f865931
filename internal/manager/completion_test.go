package manager

import (
	"testing"

	"relief/internal/accel"
	"relief/internal/core"
	"relief/internal/graph"
	"relief/internal/sched"
	"relief/internal/sim"
	"relief/internal/stats"
)

// relay builds an n-node chain alternating between the elem-matrix and
// convolution accelerators, so every edge is a scratchpad forward between
// two instances.
func relay(n int) *graph.DAG {
	d := graph.New("relay", "R", sim.Second)
	var prev *graph.Node
	for i := 0; i < n; i++ {
		kind, op := accel.ElemMatrix, accel.OpAdd
		if i%2 == 1 {
			kind, op = accel.Convolution, accel.OpDefault
		}
		if prev == nil {
			prev = d.AddNode("n", kind, op, 65536)
			prev.ExtraInputBytes = 65536
		} else {
			prev = d.AddNode("n", kind, op, 65536, prev)
		}
		prev.FilterSize = 3
	}
	return d
}

// TestNodeCompletionSteadyStateDoesNotAllocate locks the node-completion
// path: once a manager is warm, a node's compute completion, its interrupt
// (enqueueing, possibly escalating, the child it made ready and the
// write-back decision), the launch pass and the child's launch with its
// forwarded input allocate nothing. Interrupt records come from the
// manager's free list, the compute completion is bound once per instance
// and ready queues pop in place.
func TestNodeCompletionSteadyStateDoesNotAllocate(t *testing.T) {
	for _, policy := range []sched.Policy{core.New(), sched.LL{}} {
		t.Run(policy.Name(), func(t *testing.T) {
			const nodes = 300
			k := sim.NewKernel()
			st := stats.New()
			m := New(k, DefaultConfig(policy), st)
			d := relay(nodes)
			if err := d.Finalize(); err != nil {
				t.Fatal(err)
			}
			if err := m.Submit(d, 0); err != nil {
				t.Fatal(err)
			}
			// step runs the kernel until one more node has completed.
			step := func() {
				done := st.NodesDone
				for st.NodesDone == done && k.Pending() > 0 {
					k.RunUntil(k.Now() + sim.Microsecond)
				}
			}
			for i := 0; i < 4; i++ { // warm-up
				step()
			}
			before := st.NodesDone
			allocs := testing.AllocsPerRun(100, step)
			if got := st.NodesDone - before; got != 101 {
				t.Fatalf("measured %d node completions, want 101", got)
			}
			if allocs != 0 {
				t.Errorf("node completion allocated %.2f times, want 0", allocs)
			}
			if st.Forwards != st.Edges || st.Edges+1 < st.NodesDone {
				t.Fatalf("%d of %d edges forwarded after %d nodes: the relay must forward every edge", st.Forwards, st.Edges, st.NodesDone)
			}
			m.Run()
			if !d.Finished() {
				t.Fatal("relay DAG did not run to completion")
			}
		})
	}
}
