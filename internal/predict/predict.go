// Package predict implements the execution-time prediction machinery RELIEF
// uses for laxity computation (paper §III-B): a profiled compute-time
// predictor (fixed-function accelerators have data-independent control
// flow), a family of memory-bandwidth predictors (Max, Last, Average,
// EWMA), and a graph-analysis data-movement predictor that anticipates
// colocations and forwards.
package predict

import (
	"fmt"

	"relief/internal/graph"
	"relief/internal/sim"
)

// BWPredictor estimates the memory bandwidth the next task will achieve,
// in bytes per second.
type BWPredictor interface {
	Name() string
	Predict() float64
	// Observe feeds the predictor an achieved bandwidth sample.
	Observe(bytesPerSec float64)
}

// Max always predicts the maximum available bandwidth — the paper's default
// (Observation 8: RELIEF does not benefit from dynamic prediction).
type Max struct{ Peak float64 }

// Name implements BWPredictor.
func (Max) Name() string { return "Max" }

// Predict implements BWPredictor.
func (m *Max) Predict() float64 { return m.Peak }

// Observe implements BWPredictor.
func (*Max) Observe(float64) {}

// Last predicts the most recently achieved bandwidth.
type Last struct {
	Peak float64
	last float64
}

// Name implements BWPredictor.
func (Last) Name() string { return "Last" }

// Predict implements BWPredictor.
func (l *Last) Predict() float64 {
	if l.last == 0 {
		return l.Peak
	}
	return l.last
}

// Observe implements BWPredictor.
func (l *Last) Observe(bw float64) { l.last = bw }

// Average predicts the arithmetic mean of the bandwidth achieved by the N
// previous tasks (paper: n=15 empirically best).
type Average struct {
	Peak float64
	N    int
	ring []float64
	next int
	full bool
}

// Name implements BWPredictor.
func (Average) Name() string { return "Average" }

// Predict implements BWPredictor.
func (a *Average) Predict() float64 {
	n := len(a.ring)
	if !a.full {
		n = a.next
	}
	if n == 0 {
		return a.Peak
	}
	var sum float64
	for i := 0; i < n; i++ {
		sum += a.ring[i]
	}
	return sum / float64(n)
}

// Observe implements BWPredictor.
func (a *Average) Observe(bw float64) {
	if a.ring == nil {
		a.ring = make([]float64, a.window())
	}
	a.ring[a.next] = bw
	a.next++
	if a.next == len(a.ring) {
		a.next = 0
		a.full = true
	}
}

// window is the ring length: N, or the paper's 15 when N is unset.
func (a *Average) window() int {
	if a.N <= 0 {
		return 15
	}
	return a.N
}

// EWMA predicts an exponentially weighted moving average:
// pred = alpha*bw + (1-alpha)*pred (paper Eq. 3, alpha=0.25 empirically
// best).
type EWMA struct {
	Peak  float64
	Alpha float64
	pred  float64
	init  bool
}

// Name implements BWPredictor.
func (EWMA) Name() string { return "EWMA" }

// Predict implements BWPredictor.
func (e *EWMA) Predict() float64 {
	if !e.init {
		return e.Peak
	}
	return e.pred
}

// Observe implements BWPredictor.
func (e *EWMA) Observe(bw float64) {
	a := e.Alpha
	if a <= 0 || a > 1 {
		a = 0.25
	}
	if !e.init {
		e.pred = bw
		e.init = true
		return
	}
	e.pred = a*bw + (1-a)*e.pred
}

// NewBW constructs a bandwidth predictor by name ("max", "last", "average",
// "ewma") with the given peak bandwidth.
func NewBW(name string, peak float64) (BWPredictor, error) {
	switch name {
	case "max", "Max", "":
		return &Max{Peak: peak}, nil
	case "last", "Last":
		return &Last{Peak: peak}, nil
	case "average", "Average", "avg":
		return &Average{Peak: peak, N: 15}, nil
	case "ewma", "EWMA":
		return &EWMA{Peak: peak, Alpha: 0.25}, nil
	}
	return nil, fmt.Errorf("predict: unknown bandwidth predictor %q", name)
}

// DMMode selects the data-movement predictor.
type DMMode uint8

// Data-movement prediction modes.
const (
	// DMMax assumes maximum data movement: every load and store goes to
	// main memory (the paper's default).
	DMMax DMMode = iota
	// DMPredict analyses the graph to anticipate colocations and forwards
	// (paper §III-B).
	DMPredict
)

func (m DMMode) String() string {
	if m == DMMax {
		return "Max"
	}
	return "Pred"
}

// Runtime predicts whole-task execution times for laxity computation.
type Runtime struct {
	BW BWPredictor
	DM DMMode
	// BusBandwidth is used to price predicted forwards (SPAD-to-SPAD).
	BusBandwidth float64
	// InstancesOf reports how many accelerator instances of a kind exist,
	// needed by the forward predictor's unique-accelerator condition.
	InstancesOf func(kind int) int
}

// PredictBytes returns the predicted (dramBytes, busBytes) the node will
// move.
func (r *Runtime) PredictBytes(n *graph.Node) (dram, bus int64) {
	if r.DM == DMMax {
		return n.TotalInputBytes() + n.OutputBytes, 0
	}
	dram = n.ExtraInputBytes
	for i, p := range n.Parents {
		switch {
		case r.predictColocate(p, n):
			// colocated edge: no data movement
		case r.predictAllChildrenForward(p):
			bus += n.EdgeInBytes[i]
		default:
			dram += n.EdgeInBytes[i]
		}
	}
	if n.IsLeaf() || !r.predictAllChildrenForward(n) {
		dram += n.OutputBytes
	}
	return dram, bus
}

// predictColocate predicts whether child will colocate with parent: of the
// parent's children, the one with the earliest deadline colocates if it
// uses the parent's accelerator type (paper §III-B).
func (r *Runtime) predictColocate(parent, child *graph.Node) bool {
	if child.Kind != parent.Kind {
		return false
	}
	for _, sib := range parent.Children {
		if sib == child {
			continue
		}
		if sib.RelDeadline < child.RelDeadline ||
			(sib.RelDeadline == child.RelDeadline && sib.ID < child.ID) {
			return false // an earlier-deadline sibling claims the colocation
		}
	}
	return true
}

// predictAllChildrenForward predicts whether every child of n will forward
// from it, in which case n's result is never written to main memory. True
// iff (a) the children map to unique accelerator instances and (b) n is the
// latest-finishing parent of each child, approximated by deadline order
// (paper §III-B).
func (r *Runtime) predictAllChildrenForward(n *graph.Node) bool {
	if n.IsLeaf() {
		return false
	}
	perKind := make(map[int]int)
	for _, c := range n.Children {
		perKind[int(c.Kind)]++
	}
	for k, cnt := range perKind {
		inst := 1
		if r.InstancesOf != nil {
			inst = r.InstancesOf(k)
		}
		if cnt > inst {
			return false
		}
	}
	for _, c := range n.Children {
		for _, p := range c.Parents {
			if p != n && p.RelDeadline > n.RelDeadline {
				return false // another parent finishes later
			}
		}
	}
	return true
}

// PredictMemTime returns the predicted memory-access time for the node.
func (r *Runtime) PredictMemTime(n *graph.Node) sim.Time {
	dram, bus := r.PredictBytes(n)
	bw := r.BW.Predict()
	if bw <= 0 {
		bw = 1
	}
	t := float64(dram) / bw * float64(sim.Second)
	if bus > 0 && r.BusBandwidth > 0 {
		t += float64(bus) / r.BusBandwidth * float64(sim.Second)
	}
	return sim.Time(t)
}

// PredictRuntime returns the predicted end-to-end task time: profiled
// compute time plus predicted memory time. The paper predicts runtime once,
// at ready-queue insertion, which it shows is sufficiently accurate (§V-F).
func (r *Runtime) PredictRuntime(n *graph.Node) sim.Time {
	return n.Compute + r.PredictMemTime(n)
}
