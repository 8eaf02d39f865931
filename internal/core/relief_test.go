package core

import (
	"testing"

	"relief/internal/accel"
	"relief/internal/graph"
	"relief/internal/sched"
	"relief/internal/sim"
)

const us = sim.Microsecond

// fixture builds an empty ready-queue set and an idle-count function.
type fixture struct {
	queues sched.Queues
	store  [accel.NumKinds][]*graph.Node
	idle   map[int]int
}

func newFixture() *fixture {
	f := &fixture{idle: map[int]int{}}
	for k := range f.store {
		f.queues = append(f.queues, &f.store[k])
	}
	return f
}

func (f *fixture) q(k accel.Kind) []*graph.Node { return *f.queues[int(k)] }

func (f *fixture) idleOf(k int) int { return f.idle[k] }

var nodeSeq int

// mk builds a node of the given kind with the given deadline and predicted
// runtime (laxity = deadline - runtime).
func mk(kind accel.Kind, deadline, runtime sim.Time) *graph.Node {
	d := graph.New("t", "T", 100*sim.Millisecond)
	n := d.AddNode("n", kind, accel.OpAdd, 100)
	nodeSeq++
	n.ID = nodeSeq
	n.Deadline = deadline
	n.PredRuntime = runtime
	n.Laxity = deadline - runtime
	n.State = graph.Ready
	return n
}

func TestNamesAndModes(t *testing.T) {
	if New().Name() != "RELIEF" || NewLAX().Name() != "RELIEF-LAX" {
		t.Fatal("policy names wrong")
	}
	if (&RELIEF{Base: sched.LL{}, DisableFeasibility: true}).Name() != "RELIEF-NoFeas" {
		t.Fatal("ablation name wrong")
	}
	if (&RELIEF{Base: sched.HetSched{}}).Name() != "RELIEF+HetSched" {
		t.Fatal("composed name wrong")
	}
	if New().DeadlineMode() != graph.DeadlineCPM {
		t.Fatal("RELIEF must inherit CPM deadlines from LL")
	}
	if (&RELIEF{Base: sched.HetSched{}}).DeadlineMode() != graph.DeadlineSDR {
		t.Fatal("RELIEF over HetSched must inherit SDR deadlines")
	}
	if (&RELIEF{}).DeadlineMode() != graph.DeadlineCPM {
		t.Fatal("zero-value RELIEF defaults to CPM")
	}
}

// TestEscalatesWhenFeasible: a newly ready child jumps ahead of a
// higher-laxity queue head when the head can absorb the delay.
func TestEscalatesWhenFeasible(t *testing.T) {
	r := New()
	f := newFixture()
	f.idle[int(accel.ElemMatrix)] = 1
	head := mk(accel.ElemMatrix, 1000*us, 10*us) // laxity 990us, plenty
	*f.queues[int(accel.ElemMatrix)] = []*graph.Node{head}

	child := mk(accel.ElemMatrix, 2000*us, 50*us) // higher laxity than head
	r.EnqueueReady(f.queues, []*graph.Node{child}, f.idleOf, 0)
	if !child.IsFwd {
		t.Fatal("feasible forwarding node was not escalated")
	}
	q := f.q(accel.ElemMatrix)
	if q[0] != child || !child.IsFwd {
		t.Fatal("escalated node must sit at the queue front with is_fwd set")
	}
	// The bypassed head was charged the child's runtime (Alg. 2 line 14).
	if head.Laxity != 990*us-50*us {
		t.Errorf("bypassed node laxity = %v, want 940us", head.Laxity)
	}
}

// TestThrottledWhenInfeasible: if the head would miss its deadline, the
// child is inserted at its laxity position instead.
func TestThrottledWhenInfeasible(t *testing.T) {
	r := New()
	f := newFixture()
	f.idle[int(accel.ElemMatrix)] = 1
	head := mk(accel.ElemMatrix, 100*us, 70*us) // laxity 30us
	*f.queues[int(accel.ElemMatrix)] = []*graph.Node{head}

	child := mk(accel.ElemMatrix, 2000*us, 50*us) // runtime 50us > head laxity 30us
	r.EnqueueReady(f.queues, []*graph.Node{child}, f.idleOf, 0)
	if child.IsFwd {
		t.Fatal("infeasible escalation must be throttled")
	}
	q := f.q(accel.ElemMatrix)
	if q[0] != head || q[1] != child || child.IsFwd {
		t.Fatal("throttled child must take its laxity position")
	}
	if head.Laxity != 30*us {
		t.Errorf("throttled escalation must not charge laxity, got %v", head.Laxity)
	}
}

// TestNoIdleNoEscalation: max_forwards = idle instances; zero idle means
// vanilla least-laxity insertion.
func TestNoIdleNoEscalation(t *testing.T) {
	r := New()
	f := newFixture()
	f.idle[int(accel.ElemMatrix)] = 0
	head := mk(accel.ElemMatrix, 1000*us, 10*us)
	*f.queues[int(accel.ElemMatrix)] = []*graph.Node{head}
	child := mk(accel.ElemMatrix, 2000*us, 50*us)
	r.EnqueueReady(f.queues, []*graph.Node{child}, f.idleOf, 0)
	if child.IsFwd || f.q(accel.ElemMatrix)[0] != head {
		t.Fatal("escalation happened with no idle accelerator")
	}
	// The ablation flag lifts the cap.
	r2 := &RELIEF{Base: sched.LL{}, UnboundedForwards: true}
	child2 := mk(accel.ElemMatrix, 2000*us, 50*us)
	r2.EnqueueReady(f.queues, []*graph.Node{child2}, f.idleOf, 0)
	if !child2.IsFwd || f.q(accel.ElemMatrix)[0] != child2 {
		t.Fatal("UnboundedForwards must lift the max_forwards cap")
	}
}

// TestMaxForwardsCap: only as many escalations as idle instances.
func TestMaxForwardsCap(t *testing.T) {
	r := New()
	f := newFixture()
	f.idle[int(accel.ElemMatrix)] = 1
	c1 := mk(accel.ElemMatrix, 3000*us, 10*us)
	c2 := mk(accel.ElemMatrix, 4000*us, 10*us)
	r.EnqueueReady(f.queues, []*graph.Node{c2, c1}, f.idleOf, 0)
	// One idle instance allows one escalation, and the lower-laxity
	// candidate is processed first from the fwd list.
	if !c1.IsFwd || c2.IsFwd {
		t.Fatalf("escalated c1=%v c2=%v, want only c1 (one idle instance, fwd list laxity-sorted)", c1.IsFwd, c2.IsFwd)
	}
}

// TestSkipsNegativeLaxityNodes: Algorithm 2 bypasses negative-laxity queue
// entries — they will miss their deadline regardless.
func TestSkipsNegativeLaxityNodes(t *testing.T) {
	r := New()
	f := newFixture()
	f.idle[int(accel.ElemMatrix)] = 1
	now := 500 * us
	late := mk(accel.ElemMatrix, 100*us, 50*us) // current laxity negative
	ok := mk(accel.ElemMatrix, 2000*us, 100*us) // current laxity 1400us
	*f.queues[int(accel.ElemMatrix)] = []*graph.Node{late, ok}
	child := mk(accel.ElemMatrix, 5000*us, 200*us)
	r.EnqueueReady(f.queues, []*graph.Node{child}, f.idleOf, now)
	if !child.IsFwd {
		t.Fatal("negative-laxity entries must not block escalation")
	}
}

// TestExistingFwdNodesDontBlock: queue entries that are themselves
// forwarding nodes are skipped by the feasibility scan.
func TestExistingFwdNodesDontBlock(t *testing.T) {
	r := New()
	f := newFixture()
	f.idle[int(accel.ElemMatrix)] = 2
	fwd := mk(accel.ElemMatrix, 60*us, 50*us) // tiny laxity but is_fwd
	fwd.IsFwd = true
	ok := mk(accel.ElemMatrix, 5000*us, 100*us)
	*f.queues[int(accel.ElemMatrix)] = []*graph.Node{fwd, ok}
	child := mk(accel.ElemMatrix, 8000*us, 200*us)
	r.EnqueueReady(f.queues, []*graph.Node{child}, f.idleOf, 0)
	if !child.IsFwd {
		t.Fatal("existing forwarding nodes must not prevent escalation")
	}
}

// TestEmptyQueueEscalates: with an empty ready queue the child is trivially
// feasible.
func TestEmptyQueueEscalates(t *testing.T) {
	r := New()
	f := newFixture()
	f.idle[int(accel.Convolution)] = 1
	child := mk(accel.Convolution, 2000*us, 50*us)
	r.EnqueueReady(f.queues, []*graph.Node{child}, f.idleOf, 0)
	if !child.IsFwd || f.q(accel.Convolution)[0] != child {
		t.Fatal("empty-queue escalation failed")
	}
}

// TestMultiKindChildren: children of different kinds go to their own
// queues with their own max_forwards budgets.
func TestMultiKindChildren(t *testing.T) {
	r := New()
	f := newFixture()
	f.idle[int(accel.ElemMatrix)] = 1
	f.idle[int(accel.Convolution)] = 1
	em := mk(accel.ElemMatrix, 2000*us, 50*us)
	cv := mk(accel.Convolution, 2000*us, 500*us)
	r.EnqueueReady(f.queues, []*graph.Node{em, cv}, f.idleOf, 0)
	if !em.IsFwd || !cv.IsFwd {
		t.Fatalf("escalated em=%v cv=%v, want both (independent kinds)", em.IsFwd, cv.IsFwd)
	}
	if f.q(accel.ElemMatrix)[0] != em || f.q(accel.Convolution)[0] != cv {
		t.Fatal("children not routed to their kind queues")
	}
}

// TestFeasibilityConsidersAccumulatedCharges: two consecutive escalations
// charge the head twice; the second is throttled when slack runs out.
func TestFeasibilityConsidersAccumulatedCharges(t *testing.T) {
	r := New()
	f := newFixture()
	f.idle[int(accel.ElemMatrix)] = 2
	head := mk(accel.ElemMatrix, 90*us, 10*us) // laxity 80us
	*f.queues[int(accel.ElemMatrix)] = []*graph.Node{head}
	c1 := mk(accel.ElemMatrix, 2000*us, 50*us)
	c2 := mk(accel.ElemMatrix, 3000*us, 50*us)
	r.EnqueueReady(f.queues, []*graph.Node{c1, c2}, f.idleOf, 0)
	// First escalation drops head laxity to 30us < 50us, so the second
	// must be throttled.
	if !c1.IsFwd || c2.IsFwd {
		t.Fatalf("escalated c1=%v c2=%v, want only c1 (slack exhausted)", c1.IsFwd, c2.IsFwd)
	}
	if head.Laxity != 30*us {
		t.Errorf("head laxity = %v, want 30us", head.Laxity)
	}
}

// TestDisableFeasibilityEscalatesAlways (ablation).
func TestDisableFeasibilityEscalatesAlways(t *testing.T) {
	r := &RELIEF{Base: sched.LL{}, DisableFeasibility: true}
	f := newFixture()
	f.idle[int(accel.ElemMatrix)] = 1
	head := mk(accel.ElemMatrix, 100*us, 99*us) // laxity 1us: infeasible
	*f.queues[int(accel.ElemMatrix)] = []*graph.Node{head}
	child := mk(accel.ElemMatrix, 2000*us, 50*us)
	r.EnqueueReady(f.queues, []*graph.Node{child}, f.idleOf, 0)
	if !child.IsFwd {
		t.Fatal("DisableFeasibility must escalate unconditionally")
	}
}

// TestInsertPosDelegatesToBase: non-forwarding insertion follows the base
// ordering (LL for RELIEF, LAX for RELIEF-LAX).
func TestInsertPosDelegatesToBase(t *testing.T) {
	now := 500 * us
	neg := mk(accel.ElemMatrix, 100*us, 50*us)
	q := []*graph.Node{neg}
	posNode := mk(accel.ElemMatrix, 5000*us, 100*us)
	if pos, _ := New().InsertPos(q, posNode, now); pos != 1 {
		t.Errorf("RELIEF/LL inserted at %d, want 1 (after lower laxity)", pos)
	}
	if pos, _ := NewLAX().InsertPos(q, posNode, now); pos != 0 {
		t.Errorf("RELIEF-LAX inserted at %d, want 0 (bypasses negative laxity)", pos)
	}
}

// TestEnqueueEmptyReady is a no-op.
func TestEnqueueEmptyReady(t *testing.T) {
	if scanned := New().EnqueueReady(newFixture().queues, nil, func(int) int { return 1 }, 0); scanned != 0 {
		t.Fatal("empty ready set must be a no-op")
	}
}
