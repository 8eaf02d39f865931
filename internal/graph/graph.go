// Package graph implements the task-DAG model that applications submit to
// the hardware manager: nodes (paper Table III), edges carrying
// producer/consumer buffers, critical-path analysis, and the three deadline
// assignment schemes used by the evaluated policies (DAG deadline,
// critical-path-method node deadlines, and HetSched sub-deadline ratios).
package graph

import (
	"fmt"
	"sync"
	"sync/atomic"

	"relief/internal/accel"
	"relief/internal/sim"
)

// State tracks a node through its lifetime.
type State uint8

// Node lifecycle states.
const (
	Waiting State = iota // dependencies outstanding
	Ready                // in a ready queue
	Running              // launched on an accelerator
	Done
)

// Node is one task in an application DAG, executed by a single accelerator.
// It mirrors the paper's node structure (Table III) plus the scheduling
// state the hardware manager maintains at run time.
type Node struct {
	ID   int
	Name string
	Kind accel.Kind
	Op   accel.Op
	// FilterSize is the convolution filter edge length (convolution only).
	FilterSize int
	// Pixels is the element count of the primary input (default 128*128).
	Pixels int

	Parents  []*Node
	Children []*Node
	// EdgeInBytes[i] is the number of bytes received from Parents[i].
	EdgeInBytes []int64
	// ExtraInputBytes are loaded from main memory regardless of forwarding
	// (weights, fresh camera frames on root nodes).
	ExtraInputBytes int64
	// OutputBytes is the size of the node's result buffer.
	OutputBytes int64

	// Compute is the nominal compute latency, filled by DAG.Finalize.
	Compute sim.Time
	// RelDeadline is the node deadline relative to DAG release, filled by
	// AssignDeadlines.
	RelDeadline sim.Time

	DAG *DAG

	// ---- run-time scheduling state (owned by the manager) ----

	State            State
	CompletedParents int
	// Deadline is the absolute node deadline (release + RelDeadline).
	Deadline sim.Time
	// PredRuntime is the predicted execution time used for laxity.
	PredRuntime sim.Time
	// Laxity is the stored laxity key (Deadline - PredRuntime); the paper
	// subtracts current time when comparing, and RELIEF's feasibility check
	// mutates it when escalations consume slack (Algorithm 2, line 14).
	Laxity sim.Time
	// IsFwd marks a node escalated to the queue front by RELIEF.
	IsFwd bool

	ReadyAt, StartAt, FinishAt sim.Time
	// ActualRuntime is StartAt..FinishAt, for predictor error accounting.
	ActualRuntime sim.Time

	// Ext is the manager's private per-node bookkeeping, set when the
	// node's DAG is released. Callers must not touch it. It points into
	// the DAG's per-iteration record (DAG.Ext), so it is reused with it.
	Ext any
}

// NumEdgesIn returns the number of producer edges into the node.
func (n *Node) NumEdgesIn() int { return len(n.Parents) }

// TotalInputBytes is the data the node consumes: all parent edges plus
// DRAM-resident extra inputs.
func (n *Node) TotalInputBytes() int64 {
	total := n.ExtraInputBytes
	for _, b := range n.EdgeInBytes {
		total += b
	}
	return total
}

// IsLeaf reports whether the node has no children (its output is the
// application's final result and must be written back).
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// IsRoot reports whether the node has no parents.
func (n *Node) IsRoot() bool { return len(n.Parents) == 0 }

func (n *Node) String() string {
	return fmt.Sprintf("%s/%s#%d", n.DAG.App, n.Name, n.ID)
}

// DAG is an application task graph with a deadline.
type DAG struct {
	App string // application name, e.g. "canny"
	Sym string // single-letter symbol used in the paper's mixes (C D G H L)
	// Deadline is relative to release time (paper Table V).
	Deadline sim.Time
	Nodes    []*Node

	// Release is the absolute submission time, set by the manager.
	Release sim.Time
	// FinishAt is when the last node completed (0 until then).
	FinishAt sim.Time
	// Iteration distinguishes re-submissions under continuous contention.
	Iteration int
	// Loop marks a DAG submitted with the manager's SubmitLoop: a Clone of
	// it is the next iteration, released when it finishes before the horizon.
	Loop bool
	// Submitted marks a DAG handed to a manager's Submit. A DAG runs once:
	// a second Submit, to any manager, is an error; submit a Clone instead.
	Submitted bool

	// Aborted marks a DAG cancelled by the manager's recovery machinery
	// (retries exhausted or a required accelerator kind permanently dead);
	// AbortReason says why.
	Aborted     bool
	AbortReason string

	// Ext is the manager's private per-iteration record, set when the DAG
	// is released. Callers must not touch it. Unlike the other run-time
	// fields it survives Free and the Clone that reuses the DAG, so the
	// next iteration reuses what it holds; Free resets it first, so a free
	// DAG refers to nothing of the run it came from.
	Ext Resetter

	doneCount int
	free      *freeList // shared by every DAG of this shape (see Finalize)
	freed     bool      // on its free list, not yet reused
}

// Resetter is a per-iteration record (DAG.Ext) that can drop everything it
// refers to.
type Resetter interface{ Reset() }

// freeList is the record one DAG shape shares: freed DAGs of the shape
// for Clone to rewrite in place, and the shape's topological order.
// Finalize makes one per DAG it finalizes, and every clone shares its
// source's, so a workload template, its per-scenario copies and their
// loop and periodic iterations all draw from one list.
type freeList struct {
	mu   sync.Mutex
	dags []*DAG
	// order is what topo returned at Finalize. It is never written again:
	// AddNode, the only way to change a shape, detaches the DAG instead.
	order []int
}

// maxFree bounds a free list, so a burst of overlapping iterations does
// not stay resident once it has drained.
const maxFree = 16

func (l *freeList) push(d *DAG) {
	l.mu.Lock()
	if len(l.dags) < maxFree {
		l.dags = append(l.dags, d)
	}
	l.mu.Unlock()
}

func (l *freeList) pop() *DAG {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.dags)
	if n == 0 {
		return nil
	}
	d := l.dags[n-1]
	l.dags[n-1] = nil
	l.dags = l.dags[:n-1]
	return d
}

// recyclingOff disables Free and the reuse in Clone. Only tests set it (see
// SetRecycling).
var recyclingOff atomic.Bool

// SetRecycling turns DAG recycling on or off and returns the previous
// setting. With it off, Free leaves every DAG to the garbage collector and
// Clone always allocates, which is how tests check that recycling changes
// no result.
func SetRecycling(on bool) bool { return !recyclingOff.Swap(!on) }

// New creates an empty DAG with the given identity and relative deadline.
func New(app, sym string, deadline sim.Time) *DAG {
	return &DAG{App: app, Sym: sym, Deadline: deadline}
}

// AddNode appends a node to the DAG wired to the given parents. Edge sizes
// default to each parent's OutputBytes and can be adjusted afterwards.
func (d *DAG) AddNode(name string, kind accel.Kind, op accel.Op, outputBytes int64, parents ...*Node) *Node {
	d.free = nil // a new shape: clones of d must not reuse DAGs of the old one
	n := &Node{
		ID:          len(d.Nodes),
		Name:        name,
		Kind:        kind,
		Op:          op,
		Pixels:      128 * 128,
		OutputBytes: outputBytes,
		DAG:         d,
	}
	for _, p := range parents {
		if p == nil {
			panic("graph: nil parent")
		}
		n.Parents = append(n.Parents, p)
		n.EdgeInBytes = append(n.EdgeInBytes, p.OutputBytes)
		p.Children = append(p.Children, n)
	}
	d.Nodes = append(d.Nodes, n)
	return n
}

// Roots returns the nodes with no parents.
func (d *DAG) Roots() []*Node {
	var rs []*Node
	for _, n := range d.Nodes {
		if n.IsRoot() {
			rs = append(rs, n)
		}
	}
	return rs
}

// Leaves returns the nodes with no children.
func (d *DAG) Leaves() []*Node {
	var ls []*Node
	for _, n := range d.Nodes {
		if n.IsLeaf() {
			ls = append(ls, n)
		}
	}
	return ls
}

// NumEdges counts producer/consumer edges, the denominator of the paper's
// "forwards / edges" metric (Fig. 4).
func (d *DAG) NumEdges() int {
	total := 0
	for _, n := range d.Nodes {
		total += len(n.Parents)
	}
	return total
}

// Finalize fills each node's nominal compute time from the calibrated
// accelerator model, validates the graph is acyclic and every edge leads
// to the node at its ID's position in this DAG, as Clone requires, and
// gives the DAG a free list of its own shape, which keeps the shape's
// topological order, for its clones to share. It must be called once after
// construction, before deadline assignment.
func (d *DAG) Finalize() error {
	for _, n := range d.Nodes {
		if n.Compute == 0 {
			n.Compute = accel.ComputeTime(n.Kind, n.Op, n.Pixels, n.FilterSize)
		}
	}
	order, err := d.topo()
	if err != nil {
		return err
	}
	d.free = &freeList{order: order}
	return nil
}

// Clone returns an unreleased copy of a finalized DAG's shape: App, Sym,
// Deadline and every node's static fields (sizes, Compute, RelDeadline),
// with edges and edge bytes in their original order. All run-time state is
// zero. The copy shares no memory with d. When a DAG of d's shape has been
// freed, Clone rewrites that one in place and allocates nothing; its Ext
// is kept for reuse. Otherwise it takes five allocations whatever the node
// count.
func (d *DAG) Clone() *DAG {
	if d.free != nil && !recyclingOff.Load() {
		if c := d.free.pop(); c != nil {
			*c = DAG{App: d.App, Sym: d.Sym, Deadline: d.Deadline, Nodes: c.Nodes, Ext: c.Ext, free: c.free}
			for i, src := range d.Nodes {
				n := c.Nodes[i]
				*n = src.static(c, n.Parents, n.Children, n.EdgeInBytes)
				copy(n.EdgeInBytes, src.EdgeInBytes)
			}
			return c
		}
	}
	var nlinks, nedges int
	for _, n := range d.Nodes {
		nlinks += len(n.Parents) + len(n.Children)
		nedges += len(n.EdgeInBytes)
	}
	c := &DAG{App: d.App, Sym: d.Sym, Deadline: d.Deadline, Nodes: make([]*Node, len(d.Nodes)), free: d.free}
	nodes := make([]Node, len(d.Nodes))
	links := make([]*Node, nlinks)
	edges := make([]int64, nedges)
	for i, src := range d.Nodes {
		// Each node's edge slices are capped so an append cannot spill
		// into its neighbour's.
		np, nc, ne := len(src.Parents), len(src.Children), len(src.EdgeInBytes)
		n := &nodes[i]
		*n = src.static(c, links[:np:np], links[np:np+nc:np+nc], edges[:ne:ne])
		links, edges = links[np+nc:], edges[ne:]
		for j, p := range src.Parents {
			n.Parents[j] = &nodes[p.ID]
		}
		for j, ch := range src.Children {
			n.Children[j] = &nodes[ch.ID]
		}
		copy(n.EdgeInBytes, src.EdgeInBytes)
		c.Nodes[i] = n
	}
	return c
}

// static returns src's static fields as a node of d with the given edge
// slices (edge bytes not yet copied) and zero run-time state.
func (src *Node) static(d *DAG, parents, children []*Node, edges []int64) Node {
	return Node{
		ID:              src.ID,
		Name:            src.Name,
		Kind:            src.Kind,
		Op:              src.Op,
		FilterSize:      src.FilterSize,
		Pixels:          src.Pixels,
		Parents:         parents,
		Children:        children,
		EdgeInBytes:     edges,
		ExtraInputBytes: src.ExtraInputBytes,
		OutputBytes:     src.OutputBytes,
		Compute:         src.Compute,
		RelDeadline:     src.RelDeadline,
		DAG:             d,
	}
}

// Free hands d back to its shape's free list for a later Clone to reuse.
// The caller must hold no reference into d, its nodes included, and must
// not use it again. Free resets d's Ext first. A DAG that was never
// finalized or cloned from a finalized one has no list and is left to the
// garbage collector, as is one freed while its list is full.
func (d *DAG) Free() {
	if d.free == nil || recyclingOff.Load() {
		return
	}
	if d.freed {
		panic("graph: " + d.App + " DAG freed twice")
	}
	d.freed = true
	if d.Ext != nil {
		d.Ext.Reset()
	}
	d.free.push(d)
}

// TopoOrder returns the nodes in a dependency-respecting order, or an error
// if the graph has a cycle.
func (d *DAG) TopoOrder() ([]*Node, error) {
	pos, err := d.order()
	if err != nil {
		return nil, err
	}
	order := make([]*Node, len(pos))
	for i, p := range pos {
		order[i] = d.Nodes[p]
	}
	return order, nil
}

// order returns what topo does, read from the shape's record when d is
// finalized or cloned from a finalized DAG; the caller must not modify it.
func (d *DAG) order() ([]int, error) {
	if d.free != nil {
		return d.free.order, nil
	}
	return d.topo()
}

// topo returns the positions in d.Nodes of a dependency-respecting order
// (Kahn's algorithm, roots in node order). It errors unless every edge
// leads to the node at its ID's position in d; a node with no edges may
// carry any ID.
func (d *DAG) topo() ([]int, error) {
	n := len(d.Nodes)
	buf := make([]int, 2*n)
	indeg, order := buf[:n], buf[n:n]
	for i, nd := range d.Nodes {
		for _, edges := range [2][]*Node{nd.Parents, nd.Children} {
			for _, o := range edges {
				if o.ID < 0 || o.ID >= n || d.Nodes[o.ID] != o {
					return nil, fmt.Errorf("graph: %s node %q has an edge to %q, which is not node %d of the DAG", d.App, nd.Name, o.Name, o.ID)
				}
			}
		}
		indeg[i] = len(nd.Parents)
		if len(nd.Parents) == 0 {
			order = append(order, i)
		}
	}
	// order doubles as the queue: order[head:] are ready, unexpanded nodes.
	for head := 0; head < len(order); head++ {
		for _, c := range d.Nodes[order[head]].Children {
			indeg[c.ID]--
			if indeg[c.ID] == 0 {
				order = append(order, c.ID)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("graph: %s has a dependency cycle", d.App)
	}
	return order, nil
}

// NodeDone records a node completion and returns true when the whole DAG
// has finished.
func (d *DAG) NodeDone(now sim.Time) bool {
	d.doneCount++
	if d.doneCount == len(d.Nodes) {
		d.FinishAt = now
		return true
	}
	return false
}

// Finished reports whether every node has completed.
func (d *DAG) Finished() bool { return d.doneCount == len(d.Nodes) }

// Runtime returns the end-to-end latency of the DAG (0 if unfinished).
func (d *DAG) Runtime() sim.Time {
	if d.FinishAt == 0 && d.doneCount < len(d.Nodes) {
		return 0
	}
	return d.FinishAt - d.Release
}

// MetDeadline reports whether the DAG finished within its deadline.
func (d *DAG) MetDeadline() bool {
	return d.Finished() && d.FinishAt <= d.Release+d.Deadline
}
