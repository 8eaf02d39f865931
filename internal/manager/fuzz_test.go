package manager

import (
	"fmt"
	"math/rand"
	"testing"

	"relief/internal/accel"
	"relief/internal/core"
	"relief/internal/graph"
	"relief/internal/sched"
	"relief/internal/sim"
	"relief/internal/stats"
)

// randomAppDAG builds a random layered DAG with realistic byte sizes.
func randomAppDAG(rng *rand.Rand, name string) *graph.DAG {
	d := graph.New(name, "R", sim.Time(5+rng.Intn(30))*sim.Millisecond)
	var prev []*graph.Node
	layers := 1 + rng.Intn(6)
	for l := 0; l < layers; l++ {
		width := 1 + rng.Intn(4)
		var layer []*graph.Node
		for i := 0; i < width; i++ {
			var parents []*graph.Node
			for _, p := range prev {
				if rng.Intn(3) == 0 {
					parents = append(parents, p)
				}
			}
			if len(prev) > 0 && len(parents) == 0 {
				parents = append(parents, prev[rng.Intn(len(prev))])
			}
			kind := accel.Kind(rng.Intn(int(accel.NumKinds)))
			n := d.AddNode(fmt.Sprintf("l%d.%d", l, i), kind, accel.OpAdd,
				int64(1+rng.Intn(100000)), parents...)
			n.FilterSize = 3
			if n.IsRoot() || rng.Intn(4) == 0 {
				n.ExtraInputBytes = int64(1 + rng.Intn(100000))
			}
			layer = append(layer, n)
		}
		prev = layer
	}
	return d
}

// TestRandomDAGsAllPolicies pushes random task graphs through the full
// manager under every policy and platform variant, checking the global
// invariants: every node finishes, every edge is classified exactly once,
// DRAM traffic never exceeds the all-DRAM baseline, timestamps are
// coherent, and two identical runs agree bit-for-bit.
func TestRandomDAGsAllPolicies(t *testing.T) {
	policies := []func() sched.Policy{
		func() sched.Policy { return sched.FCFS{} },
		func() sched.Policy { return sched.GEDFD{} },
		func() sched.Policy { return sched.GEDFN{} },
		func() sched.Policy { return sched.LL{} },
		func() sched.Policy { return sched.LAX{} },
		func() sched.Policy { return sched.HetSched{} },
		func() sched.Policy { return core.New() },
		func() sched.Policy { return core.NewLAX() },
	}
	for seed := int64(0); seed < 12; seed++ {
		for pi, mk := range policies {
			run := func() (*stats.Stats, int, int) {
				rng := rand.New(rand.NewSource(seed))
				k := sim.NewKernel()
				st := stats.New()
				cfg := DefaultConfig(mk())
				if seed%3 == 1 {
					cfg.OutputPartitions = 1
				}
				if seed%3 == 2 {
					cfg.Instances[accel.ElemMatrix] = 2
					cfg.DetailedDRAM = true
				}
				m := New(k, cfg, st)
				wantNodes, wantEdges := 0, 0
				nApps := 1 + rng.Intn(3)
				for a := 0; a < nApps; a++ {
					d := randomAppDAG(rng, fmt.Sprintf("app%d", a))
					if err := d.Finalize(); err != nil {
						t.Fatal(err)
					}
					wantNodes += len(d.Nodes)
					wantEdges += d.NumEdges()
					if err := m.Submit(d, sim.Time(rng.Intn(3))*sim.Millisecond); err != nil {
						t.Fatal(err)
					}
				}
				m.Run()
				return st, wantNodes, wantEdges
			}
			st, wantNodes, wantEdges := run()
			label := fmt.Sprintf("seed %d policy %d", seed, pi)
			if st.NodesDone != wantNodes {
				t.Fatalf("%s: %d/%d nodes finished", label, st.NodesDone, wantNodes)
			}
			if st.Edges != wantEdges {
				t.Fatalf("%s: %d/%d edges classified", label, st.Edges, wantEdges)
			}
			if st.Forwards+st.Colocations > st.Edges {
				t.Fatalf("%s: fwd+col exceeds edges", label)
			}
			if st.DRAMReadBytes+st.DRAMWriteBytes > st.BaselineBytes {
				t.Fatalf("%s: DRAM traffic exceeds baseline", label)
			}
			if st.Makespan <= 0 {
				t.Fatalf("%s: bad makespan", label)
			}
			st2, _, _ := run()
			if st.Makespan != st2.Makespan || st.Forwards != st2.Forwards ||
				st.DRAMReadBytes != st2.DRAMReadBytes {
				t.Fatalf("%s: non-deterministic rerun", label)
			}
		}
	}
}
