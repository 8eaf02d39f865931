// Package sched defines the accelerator scheduling policy framework and the
// state-of-the-art baseline policies the paper compares against (§II-C):
// FCFS, GEDF-D, GEDF-N, LL, LAX, and HetSched.
//
// Every policy works by sorted insertion into a per-accelerator-type ready
// queue; the hardware manager pops the head when an accelerator of that type
// becomes available. The RELIEF policy itself (the paper's contribution)
// lives in internal/core and layers forwarding escalation on top of this
// framework.
package sched

import (
	"relief/internal/graph"
	"relief/internal/sim"
)

// Policy decides where a newly ready task is inserted into its ready queue.
type Policy interface {
	// Name returns the policy's display name as used in the paper's figures.
	Name() string
	// DeadlineMode returns the node-deadline assignment scheme the policy
	// expects.
	DeadlineMode() graph.DeadlineMode
	// InsertPos returns the index at which n belongs in q (sorted by the
	// policy's priority order, head = highest priority) and the number of
	// queue entries examined, which the manager uses to model scheduler
	// latency on the Cortex-A7 class microcontroller (Fig. 12).
	InsertPos(q []*graph.Node, n *graph.Node, now sim.Time) (pos, scanned int)
}

// Escalator is implemented by policies that perform RELIEF-style forwarding
// escalation when a producer finishes (Algorithm 1). The manager invokes
// EnqueueReady instead of plain InsertPos-insertion for these policies.
type Escalator interface {
	Policy
	// EnqueueReady places the newly ready children of a finishing node into
	// the ready queues, possibly escalating them to queue fronts and
	// setting IsFwd on those it escalates. queues maps accelerator kind to
	// its ready queue; idle reports the number of idle instances per kind.
	// It may reorder ready. It returns the total queue entries scanned, for
	// latency modeling.
	EnqueueReady(queues Queues, ready []*graph.Node, idle func(k int) int, now sim.Time) (scanned int)
}

// Queues is the manager's per-accelerator-kind ready queues, indexed by
// accelerator kind. Policies mutate the slices through the pointer.
type Queues []*[]*graph.Node

// Insert places n at position pos within q.
//
//relief:hotpath
func Insert(q *[]*graph.Node, n *graph.Node, pos int) {
	s := *q
	if pos < 0 {
		pos = 0
	}
	if pos > len(s) {
		pos = len(s)
	}
	s = append(s, nil) //lint:allow hotalloc the queue grows only to its peak depth; pops shift in place and keep the array
	copy(s[pos+1:], s[pos:])
	s[pos] = n
	*q = s
}

// CurrentLaxity returns a node's laxity at time now, per paper Eq. 1:
// laxity = deadline - runtime - current time. The (deadline - runtime) part
// is stored on the node as Laxity so RELIEF's feasibility check can consume
// slack from it.
func CurrentLaxity(n *graph.Node, now sim.Time) sim.Time {
	return n.Laxity - now
}
