// Package core implements RELIEF — RElaxing Least-laxIty to Enable
// Forwarding — the paper's contribution: an online least-laxity-based
// accelerator scheduling policy that escalates newly ready "forwarding
// nodes" (children whose producers just finished, so their input is still
// live in the producer's scratchpad) to the front of the ready queue, and
// throttles those escalations with a laxity-driven feasibility check so
// that priority elevation does not cause deadline misses (paper §III,
// Algorithms 1 and 2).
package core

import (
	"relief/internal/graph"
	"relief/internal/sched"
	"relief/internal/sim"
)

// RELIEF is the scheduling policy of Algorithm 1. Base selects the
// underlying least-laxity ordering: sched.LL{} for plain RELIEF,
// sched.LAX{} for the RELIEF-LAX variant that additionally de-prioritizes
// negative-laxity tasks (paper §V-E).
type RELIEF struct {
	// Base is the least-laxity ordering used when no escalation applies.
	Base sched.Policy
	// DisableFeasibility drops the Algorithm 2 check so every forwarding
	// node is escalated unconditionally (ablation: pure child-first).
	DisableFeasibility bool
	// UnboundedForwards lifts the max_forwards = idle-instances cap
	// (ablation).
	UnboundedForwards bool
}

// New returns the standard RELIEF policy (LL base, feasibility check on).
func New() *RELIEF { return &RELIEF{Base: sched.LL{}} }

// NewLAX returns RELIEF-LAX, the variant integrating LAX's negative-laxity
// de-prioritization.
func NewLAX() *RELIEF { return &RELIEF{Base: sched.LAX{}} }

// Name implements sched.Policy.
func (r *RELIEF) Name() string {
	switch {
	case r.Base == nil || r.Base.Name() == "LL":
		if r.DisableFeasibility {
			return "RELIEF-NoFeas"
		}
		return "RELIEF"
	case r.Base.Name() == "LAX":
		return "RELIEF-LAX"
	default:
		return "RELIEF+" + r.Base.Name()
	}
}

// DeadlineMode implements sched.Policy. RELIEF is agnostic to the laxity
// definition (paper §VII); the base ordering's deadline scheme is used.
func (r *RELIEF) DeadlineMode() graph.DeadlineMode {
	if r.Base == nil {
		return graph.DeadlineCPM
	}
	return r.Base.DeadlineMode()
}

// InsertPos implements sched.Policy: vanilla least-laxity insertion for
// tasks that are not forwarding candidates (root nodes, re-inserts).
func (r *RELIEF) InsertPos(q []*graph.Node, n *graph.Node, now sim.Time) (int, int) {
	return r.base().InsertPos(q, n, now)
}

func (r *RELIEF) base() sched.Policy {
	if r.Base == nil {
		return sched.LL{}
	}
	return r.Base
}

// EnqueueReady implements sched.Escalator — Algorithm 1.
//
// The newly ready children of the finishing node are the forwarding-node
// candidates: their producer's output is still live in its scratchpad.
// Candidates are laxity-sorted (the paper's fwd_nodes list), grouped per
// accelerator kind, and escalated to the front of their ready queue when
// (1) fewer forwarding nodes than idle instances of that kind exist
// (max_forwards) and (2) the feasibility check says the escalation is
// unlikely to cause a deadline miss. Otherwise the candidate is inserted at
// its normal laxity position.
//
// The fwd_nodes lists are ready itself, sorted in place and stably by
// (kind, laxity), so ready is reordered. Building each list by sorted
// insertion scans a candidate's earlier same-kind candidates whose laxity
// is at most its own; those count towards scanned.
//
//relief:hotpath
func (r *RELIEF) EnqueueReady(queues sched.Queues, ready []*graph.Node, idle func(k int) int, now sim.Time) (scanned int) {
	// fwd_nodes (Alg. 1 lines 2-8).
	for i := 1; i < len(ready); i++ {
		n := ready[i]
		j := i
		for ; j > 0 && fwdAfter(ready[j-1], n); j-- {
			ready[j] = ready[j-1]
		}
		ready[j] = n
		for x := j - 1; x >= 0 && ready[x].Kind == n.Kind; x-- {
			scanned++
		}
	}
	base := r.base()
	// Kinds in ascending order, each group in laxity order.
	for i := 0; i < len(ready); {
		k := int(ready[i].Kind)
		maxForwards := idle(k)
		q := queues[k]
		for ; i < len(ready) && int(ready[i].Kind) == k; i++ {
			node := ready[i]
			pos, s := base.InsertPos(*q, node, now)
			scanned += s
			canEscalate := maxForwards > 0 || r.UnboundedForwards
			if canEscalate {
				ok, fs := r.feasible(*q, node, pos, now)
				scanned += fs
				if ok {
					sched.Insert(q, node, 0)
					node.IsFwd = true
					node.State = graph.Ready
					if maxForwards > 0 {
						maxForwards--
					}
					continue
				}
			}
			sched.Insert(q, node, pos)
			node.IsFwd = false
			node.State = graph.Ready
		}
	}
	return scanned
}

// fwdAfter reports whether a sorts after b in the fwd_nodes order: by
// kind, then by laxity.
//
//relief:hotpath
func fwdAfter(a, b *graph.Node) bool {
	return a.Kind > b.Kind || a.Kind == b.Kind && a.Laxity > b.Laxity
}

// feasible is Algorithm 2: escalating fnode ahead of the queue entries
// before index must not make any of them miss its deadline. The queue is
// laxity-sorted, so it suffices to find the first entry that is itself not
// a forwarding node and has positive current laxity; if that entry can
// absorb fnode's runtime, every later entry can too. Negative-laxity
// entries are skipped — they are not expected to meet their deadlines even
// without the promotion. When the escalation is allowed, the bypassed
// entries' stored laxity is charged with fnode's runtime so subsequent
// escalations see the already-consumed slack (Alg. 2 lines 10-14).
//
//relief:hotpath
func (r *RELIEF) feasible(q []*graph.Node, fnode *graph.Node, index int, now sim.Time) (bool, int) {
	if r.DisableFeasibility {
		return true, 0
	}
	canForward := true
	scanned := 0
	for i, node := range q {
		if i == index {
			break
		}
		scanned++
		currLaxity := sched.CurrentLaxity(node, now)
		if !node.IsFwd && currLaxity > 0 {
			canForward = currLaxity > fnode.PredRuntime
			break
		}
	}
	if canForward {
		for i, node := range q {
			if i == index {
				break
			}
			node.Laxity -= fnode.PredRuntime
		}
	}
	return canForward, scanned
}

var _ sched.Escalator = (*RELIEF)(nil)
