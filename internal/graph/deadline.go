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
	order, err := d.order()
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
		rt, after, _ := pathTables(d, order, runtimeOf, false)
		for i, n := range d.Nodes {
			// Latest completion: D - (downstream critical path excluding n).
			n.RelDeadline = d.Deadline - (after[i] - rt[i])
		}
		return nil
	case DeadlineSDR:
		rt, after, upto := pathTables(d, order, runtimeOf, true)
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

// pathTables returns the critical-path tables, cut from one buffer and
// indexed by node position, like the order d.order returns (an edge leads
// to the node at its ID's position): rt, runtimeOf evaluated once per
// node; after, each node's longest runtime path from the node (inclusive)
// to any sink; and, if withUpto, upto, each node's longest runtime path
// from any source to the node (inclusive).
func pathTables(d *DAG, order []int, runtimeOf func(*Node) sim.Time, withUpto bool) (rt, after, upto []sim.Time) {
	n := len(d.Nodes)
	cols := 2
	if withUpto {
		cols = 3
	}
	buf := make([]sim.Time, cols*n)
	rt, after = buf[:n], buf[n:2*n]
	for i, nd := range d.Nodes {
		rt[i] = runtimeOf(nd)
	}
	for k := len(order) - 1; k >= 0; k-- {
		i := order[k]
		var best sim.Time
		for _, c := range d.Nodes[i].Children {
			best = max(best, after[c.ID])
		}
		after[i] = best + rt[i]
	}
	if !withUpto {
		return rt, after, nil
	}
	upto = buf[2*n:]
	for _, i := range order {
		var best sim.Time
		for _, p := range d.Nodes[i].Parents {
			best = max(best, upto[p.ID])
		}
		upto[i] = best + rt[i]
	}
	return rt, after, upto
}

// CriticalPath returns the longest runtime path length in the DAG.
func CriticalPath(d *DAG, runtimeOf func(*Node) sim.Time) (sim.Time, error) {
	order, err := d.order()
	if err != nil {
		return 0, err
	}
	_, after, _ := pathTables(d, order, runtimeOf, false)
	var best sim.Time
	for i, n := range d.Nodes {
		if n.IsRoot() && after[i] > best {
			best = after[i]
		}
	}
	return best, nil
}
