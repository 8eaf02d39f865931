package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"relief/internal/accel"
	"relief/internal/graph"
	"relief/internal/sched"
	"relief/internal/sim"
)

// refEnqueueReady is the map-based EnqueueReady that the in-place version
// replaced, kept as the reference the table test compares against: per-kind
// fwd_nodes lists built by sorted insertion, walked in ascending kind order.
func refEnqueueReady(r *RELIEF, queues sched.Queues, ready []*graph.Node, idle func(k int) int, now sim.Time) (scanned int) {
	fwd := make(map[int][]*graph.Node)
	for _, n := range ready {
		k := int(n.Kind)
		lst := fwd[k]
		pos := sort.Search(len(lst), func(i int) bool { return n.Laxity < lst[i].Laxity })
		lst = append(lst, nil)
		copy(lst[pos+1:], lst[pos:])
		lst[pos] = n
		fwd[k] = lst
		scanned += pos
	}
	base := r.base()
	kinds := make([]int, 0, len(fwd))
	for k := range fwd {
		kinds = append(kinds, k)
	}
	sort.Ints(kinds)
	for _, k := range kinds {
		maxForwards := idle(k)
		q := queues[k]
		for _, node := range fwd[k] {
			pos, s := base.InsertPos(*q, node, now)
			scanned += s
			if maxForwards > 0 || r.UnboundedForwards {
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

// spec describes one node of an enqueue case.
type spec struct {
	kind              accel.Kind
	deadline, runtime sim.Time
	fwd               bool
}

// enqueueCase is a ready-queue state, a ready set and the idle counts.
type enqueueCase struct {
	name   string
	policy RELIEF
	now    sim.Time
	idle   map[accel.Kind]int
	queued []spec
	ready  []spec
}

// world is one materialized enqueueCase. Node IDs are their index in
// queued followed by ready, so two worlds of a case compare by ID.
type world struct {
	store  [accel.NumKinds][]*graph.Node
	queues sched.Queues
	nodes  []*graph.Node
	ready  []*graph.Node
}

func (c *enqueueCase) build() *world {
	w := &world{}
	for k := range w.store {
		w.queues = append(w.queues, &w.store[k])
	}
	d := graph.New("t", "T", sim.Second)
	mkNode := func(s spec) *graph.Node {
		n := d.AddNode("n", s.kind, accel.OpAdd, 100)
		n.Deadline = s.deadline
		n.PredRuntime = s.runtime
		n.Laxity = s.deadline - s.runtime
		n.IsFwd = s.fwd
		w.nodes = append(w.nodes, n)
		return n
	}
	for _, s := range c.queued {
		n := mkNode(s)
		n.State = graph.Ready
		// Queues hold their entries in the base order, as the manager's do.
		q := w.queues[s.kind]
		pos, _ := c.policy.base().InsertPos(*q, n, c.now)
		sched.Insert(q, n, pos)
	}
	for _, s := range c.ready {
		w.ready = append(w.ready, mkNode(s))
	}
	return w
}

// snapshot renders a world's queues, flags and stored laxities.
func (w *world) snapshot() string {
	out := ""
	for k, q := range w.store {
		if len(q) == 0 {
			continue
		}
		out += fmt.Sprintf("%v:", accel.Kind(k))
		for _, n := range q {
			out += fmt.Sprintf(" %d(fwd=%v lax=%v state=%v)", n.ID, n.IsFwd, n.Laxity, n.State)
		}
		out += "\n"
	}
	return out
}

func enqueueCases() []enqueueCase {
	em, cv, gs := accel.ElemMatrix, accel.Convolution, accel.Grayscale
	cases := []enqueueCase{
		{
			name:   "mixed kinds",
			idle:   map[accel.Kind]int{em: 1, cv: 1, gs: 1},
			queued: []spec{{em, 900 * us, 10 * us, false}, {cv, 5000 * us, 400 * us, false}},
			ready: []spec{
				{cv, 3000 * us, 300 * us, false}, {em, 2000 * us, 50 * us, false},
				{gs, 800 * us, 20 * us, false}, {em, 1500 * us, 50 * us, false},
				{cv, 2500 * us, 100 * us, false},
			},
		},
		{
			name:   "tied laxities",
			idle:   map[accel.Kind]int{em: 2},
			queued: []spec{{em, 700 * us, 100 * us, false}, {em, 700 * us, 100 * us, false}},
			ready: []spec{
				{em, 2000 * us, 100 * us, false}, {em, 2000 * us, 100 * us, false},
				{em, 1000 * us, 100 * us, false}, {em, 2000 * us, 100 * us, false},
			},
		},
		{
			name:   "unbounded forwards",
			policy: RELIEF{Base: sched.LL{}, UnboundedForwards: true},
			queued: []spec{{em, 5000 * us, 10 * us, false}, {cv, 5000 * us, 10 * us, false}},
			ready: []spec{
				{em, 3000 * us, 50 * us, false}, {cv, 4000 * us, 50 * us, false},
				{em, 2000 * us, 50 * us, false},
			},
		},
		{
			name:   "no feasibility",
			policy: RELIEF{Base: sched.LL{}, DisableFeasibility: true},
			idle:   map[accel.Kind]int{em: 1, cv: 2},
			queued: []spec{{em, 100 * us, 99 * us, false}, {cv, 60 * us, 50 * us, false}},
			ready: []spec{
				{cv, 2000 * us, 50 * us, false}, {em, 2000 * us, 50 * us, false},
				{cv, 2000 * us, 50 * us, false}, {em, 1000 * us, 50 * us, false},
			},
		},
		{
			name:   "LAX base past negative laxity",
			policy: RELIEF{Base: sched.LAX{}},
			now:    500 * us,
			idle:   map[accel.Kind]int{em: 1},
			queued: []spec{{em, 100 * us, 50 * us, false}, {em, 60 * us, 50 * us, true}, {em, 3000 * us, 100 * us, false}},
			ready:  []spec{{em, 5000 * us, 200 * us, false}, {em, 400 * us, 10 * us, false}},
		},
	}
	// Random states over three kinds with coarse deadlines, so ties,
	// throttled escalations and exhausted idle budgets all occur.
	rng := rand.New(rand.NewSource(1))
	kinds := []accel.Kind{em, cv, gs}
	randSpec := func() spec {
		return spec{
			kind:     kinds[rng.Intn(len(kinds))],
			deadline: sim.Time(rng.Intn(8)) * 500 * us,
			runtime:  sim.Time(1+rng.Intn(4)) * 100 * us,
			fwd:      rng.Intn(4) == 0,
		}
	}
	for i := 0; i < 200; i++ {
		c := enqueueCase{name: fmt.Sprintf("random %d", i), now: sim.Time(rng.Intn(3)) * 200 * us, idle: map[accel.Kind]int{}}
		c.policy = RELIEF{Base: []sched.Policy{sched.LL{}, sched.LAX{}}[rng.Intn(2)],
			UnboundedForwards: rng.Intn(5) == 0, DisableFeasibility: rng.Intn(5) == 0}
		for _, k := range kinds {
			c.idle[k] = rng.Intn(3)
		}
		for j := rng.Intn(8); j > 0; j-- {
			c.queued = append(c.queued, randSpec())
		}
		for j := 1 + rng.Intn(6); j > 0; j-- {
			c.ready = append(c.ready, randSpec())
		}
		cases = append(cases, c)
	}
	return cases
}

// TestEnqueueReadyMatchesMapReference: the in-place EnqueueReady leaves the
// same queue order, IsFwd flags, states and charged laxities as the
// map-based reference, and reports the same scanned count, which is what
// keeps Fig. 12's modelled scheduler cost byte-identical.
func TestEnqueueReadyMatchesMapReference(t *testing.T) {
	for _, c := range enqueueCases() {
		t.Run(c.name, func(t *testing.T) {
			idle := func(k int) int { return c.idle[accel.Kind(k)] }
			want, got := c.build(), c.build()
			wantScanned := refEnqueueReady(&c.policy, want.queues, want.ready, idle, c.now)
			gotScanned := c.policy.EnqueueReady(got.queues, got.ready, idle, c.now)
			if gotScanned != wantScanned {
				t.Errorf("scanned = %d, want %d", gotScanned, wantScanned)
			}
			if g, w := got.snapshot(), want.snapshot(); g != w {
				t.Errorf("queues differ from the reference\ngot:\n%swant:\n%s", g, w)
			}
		})
	}
}

// TestEnqueueReadyDoesNotAllocate: with queue capacity already in place,
// EnqueueReady allocates nothing, whatever the kinds in the ready set.
func TestEnqueueReadyDoesNotAllocate(t *testing.T) {
	c := enqueueCases()[0]
	w := c.build()
	queued := [accel.NumKinds][]*graph.Node{}
	for k, q := range w.store {
		queued[k] = slices.Clone(q)
		w.store[k] = slices.Grow(q, len(c.ready))
	}
	ready := slices.Clone(w.ready)
	laxity := make([]sim.Time, len(w.nodes))
	for i, n := range w.nodes {
		laxity[i] = n.Laxity
	}
	idle := func(k int) int { return c.idle[accel.Kind(k)] }
	allocs := testing.AllocsPerRun(100, func() {
		for k := range w.store {
			w.store[k] = append(w.store[k][:0], queued[k]...)
		}
		for i, n := range w.nodes {
			n.Laxity, n.IsFwd = laxity[i], false
		}
		copy(w.ready, ready)
		c.policy.EnqueueReady(w.queues, w.ready, idle, c.now)
	})
	if allocs != 0 {
		t.Errorf("EnqueueReady allocated %.1f times, want 0", allocs)
	}
}
