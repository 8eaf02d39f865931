package graph

import (
	"fmt"

	"relief/internal/sim"
)

// DeadlineMode selects how per-node deadlines are derived from the DAG
// deadline (paper §II-C).
type DeadlineMode uint8

// Deadline assignment schemes.
const (
	// DeadlineDAG gives every node the DAG's deadline (GEDF-D / VIP).
	DeadlineDAG DeadlineMode = iota
	// DeadlineCPM assigns node deadlines by the critical-path method
	// (GEDF-N, LL, LAX, RELIEF): a node's deadline is the latest completion
	// time that still lets the longest downstream path finish by the DAG
	// deadline. Under this scheme a node's laxity equals the DAG laxity
	// along its critical path (paper §VII).
	DeadlineCPM
	// DeadlineSDR distributes the DAG deadline by HetSched's sub-deadline
	// ratio: deadline_task = SDR x deadline_DAG, where SDR is the task's
	// cumulative share of the execution time of the longest path through it.
	DeadlineSDR
)

func (m DeadlineMode) String() string {
	switch m {
	case DeadlineDAG:
		return "dag"
	case DeadlineCPM:
		return "cpm"
	case DeadlineSDR:
		return "sdr"
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// AssignDeadlines fills every node's RelDeadline according to mode, using
// runtimeOf as the per-node execution-time estimate (typically compute time
// plus memory time at peak bandwidth, matching the paper's critical-path
// analysis inputs).
func AssignDeadlines(d *DAG, mode DeadlineMode, runtimeOf func(*Node) sim.Time) error {
	order, err := d.topo()
	if err != nil {
		return err
	}
	switch mode {
	case DeadlineDAG:
		for _, n := range d.Nodes {
			n.RelDeadline = d.Deadline
		}
		return nil
	case DeadlineCPM:
		rt := runtimes(d, runtimeOf)
		after := cpAfter(d, order, rt)
		for i, n := range d.Nodes {
			// Latest completion: D - (downstream critical path excluding n).
			n.RelDeadline = d.Deadline - (after[i] - rt[i])
		}
		return nil
	case DeadlineSDR:
		rt := runtimes(d, runtimeOf)
		after := cpAfter(d, order, rt)
		upto := cpUpto(d, order, rt)
		for i, n := range d.Nodes {
			path := upto[i] + after[i] - rt[i] // longest path through n
			if path <= 0 {
				n.RelDeadline = d.Deadline
				continue
			}
			sdr := float64(upto[i]) / float64(path)
			n.RelDeadline = sim.Time(sdr * float64(d.Deadline))
		}
		return nil
	}
	return fmt.Errorf("graph: unknown deadline mode %v", mode)
}

// The critical-path tables below are indexed by node position, like the
// order d.topo returns; an edge leads to the node at its ID's position.

// runtimes evaluates runtimeOf once per node.
func runtimes(d *DAG, runtimeOf func(*Node) sim.Time) []sim.Time {
	rt := make([]sim.Time, len(d.Nodes))
	for i, n := range d.Nodes {
		rt[i] = runtimeOf(n)
	}
	return rt
}

// cpAfter computes, for each node, the longest runtime path from the node
// (inclusive) to any sink.
func cpAfter(d *DAG, order []int, rt []sim.Time) []sim.Time {
	after := make([]sim.Time, len(order))
	for k := len(order) - 1; k >= 0; k-- {
		i := order[k]
		var best sim.Time
		for _, c := range d.Nodes[i].Children {
			if after[c.ID] > best {
				best = after[c.ID]
			}
		}
		after[i] = best + rt[i]
	}
	return after
}

// cpUpto computes, for each node, the longest runtime path from any source
// to the node (inclusive).
func cpUpto(d *DAG, order []int, rt []sim.Time) []sim.Time {
	upto := make([]sim.Time, len(order))
	for _, i := range order {
		var best sim.Time
		for _, p := range d.Nodes[i].Parents {
			if upto[p.ID] > best {
				best = upto[p.ID]
			}
		}
		upto[i] = best + rt[i]
	}
	return upto
}

// CriticalPath returns the longest runtime path length in the DAG.
func CriticalPath(d *DAG, runtimeOf func(*Node) sim.Time) (sim.Time, error) {
	order, err := d.topo()
	if err != nil {
		return 0, err
	}
	after := cpAfter(d, order, runtimes(d, runtimeOf))
	var best sim.Time
	for i, n := range d.Nodes {
		if n.IsRoot() && after[i] > best {
			best = after[i]
		}
	}
	return best, nil
}
