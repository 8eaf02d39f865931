package predict

import (
	"math"
	"testing"
	"testing/quick"

	"relief/internal/accel"
	"relief/internal/graph"
	"relief/internal/sim"
)

const gb = 1e9

func TestMaxPredictor(t *testing.T) {
	p := &Max{Peak: 6.4 * gb}
	p.Observe(1 * gb)
	if p.Predict() != 6.4*gb {
		t.Fatal("Max must always predict the peak")
	}
}

func TestLastPredictor(t *testing.T) {
	p := &Last{Peak: 6.4 * gb}
	if p.Predict() != 6.4*gb {
		t.Fatal("Last must predict peak before any observation")
	}
	p.Observe(2 * gb)
	p.Observe(3 * gb)
	if p.Predict() != 3*gb {
		t.Fatal("Last must predict the most recent sample")
	}
}

func TestAveragePredictor(t *testing.T) {
	p := &Average{Peak: 6.4 * gb, N: 3}
	if p.Predict() != 6.4*gb {
		t.Fatal("Average must predict peak when empty")
	}
	p.Observe(1 * gb)
	p.Observe(3 * gb)
	if got := p.Predict(); got != 2*gb {
		t.Fatalf("partial average = %v, want 2GB/s", got)
	}
	p.Observe(5 * gb)
	p.Observe(7 * gb) // evicts the 1 GB/s sample
	if got := p.Predict(); got != 5*gb {
		t.Fatalf("rolling average = %v, want 5GB/s", got)
	}
}

func TestAverageDefaultWindow(t *testing.T) {
	p := &Average{Peak: gb}
	for i := 0; i < 40; i++ {
		p.Observe(2 * gb)
	}
	if p.Predict() != 2*gb {
		t.Fatal("default window average wrong")
	}
	if len(p.ring) != 15 {
		t.Fatalf("default window = %d, want 15 (paper's n)", len(p.ring))
	}
}

// TestRestoreBWRejectsBadAverage: a restored Average state must be one
// Observe and Predict can index. Each rejected input used to restore
// without error; the first then panicked in Observe ("index out of range
// [7] with length 3").
func TestRestoreBWRejectsBadAverage(t *testing.T) {
	window := func(n int) []float64 { return make([]float64, n) }
	cases := []struct {
		name  string
		n     int
		state BWState
	}{
		{"cursor past short ring", 15, BWState{Kind: "Average", Vals: []float64{1, 2, 3}, Next: 7}},
		{"ring shorter than window", 15, BWState{Kind: "Average", Vals: []float64{1, 2, 3}}},
		{"ring longer than window", 4, BWState{Kind: "Average", Vals: window(15)}},
		{"ring not default window", 0, BWState{Kind: "Average", Vals: window(4)}},
		{"cursor at ring end", 15, BWState{Kind: "Average", Vals: window(15), Next: 15}},
		{"negative cursor", 15, BWState{Kind: "Average", Vals: window(15), Next: -1}},
		{"full without samples", 15, BWState{Kind: "Average", Full: true}},
		{"cursor without samples", 15, BWState{Kind: "Average", Next: 3}},
	}
	for _, tc := range cases {
		p := &Average{Peak: gb, N: tc.n}
		if err := RestoreBW(p, tc.state); err == nil {
			t.Errorf("%s: restored without error", tc.name)
		}
	}

	// Captured states, empty or mid-ring, still restore and keep observing.
	for _, observed := range []int{0, 4, 20} {
		src := &Average{Peak: gb, N: 15}
		for i := 0; i < observed; i++ {
			src.Observe(float64(i) * gb)
		}
		dst := &Average{Peak: gb, N: 15}
		if err := RestoreBW(dst, CaptureBW(src)); err != nil {
			t.Fatalf("%d observations: %v", observed, err)
		}
		if dst.Predict() != src.Predict() {
			t.Errorf("%d observations: restored prediction %v, want %v", observed, dst.Predict(), src.Predict())
		}
		dst.Observe(gb)
	}
}

func TestEWMAPredictor(t *testing.T) {
	p := &EWMA{Peak: 6.4 * gb, Alpha: 0.25}
	if p.Predict() != 6.4*gb {
		t.Fatal("EWMA must predict peak before any observation")
	}
	p.Observe(4 * gb) // first sample initialises
	if p.Predict() != 4*gb {
		t.Fatal("EWMA first observation must initialise the estimate")
	}
	p.Observe(8 * gb)
	want := 0.25*8*gb + 0.75*4*gb
	if math.Abs(p.Predict()-want) > 1 {
		t.Fatalf("EWMA = %v, want %v", p.Predict(), want)
	}
}

func TestNewBW(t *testing.T) {
	for name, typ := range map[string]string{
		"max": "Max", "last": "Last", "average": "Average", "ewma": "EWMA", "": "Max",
	} {
		p, err := NewBW(name, gb)
		if err != nil {
			t.Fatalf("NewBW(%q): %v", name, err)
		}
		if p.Name() != typ {
			t.Errorf("NewBW(%q).Name() = %q, want %q", name, p.Name(), typ)
		}
	}
	if _, err := NewBW("bogus", gb); err == nil {
		t.Fatal("NewBW must reject unknown names")
	}
}

// buildFanout creates p -> {c1 (same kind), c2 (other kind)} with assigned
// deadlines.
func buildFanout() (d *graph.DAG, p, c1, c2 *graph.Node) {
	d = graph.New("t", "T", 10*sim.Millisecond)
	p = d.AddNode("p", accel.ElemMatrix, accel.OpAdd, 1000)
	c1 = d.AddNode("c1", accel.ElemMatrix, accel.OpAdd, 1000, p)
	c2 = d.AddNode("c2", accel.Convolution, accel.OpDefault, 1000, p)
	_ = d.Finalize()
	_ = graph.AssignDeadlines(d, graph.DeadlineCPM, func(n *graph.Node) sim.Time { return n.Compute })
	return
}

func newRuntime(dm DMMode) *Runtime {
	return &Runtime{
		BW:           &Max{Peak: 6.4 * gb},
		DM:           dm,
		BusBandwidth: 14.9 * gb,
		InstancesOf:  func(int) int { return 1 },
	}
}

func TestPredictBytesMax(t *testing.T) {
	_, _, c1, _ := buildFanout()
	c1.ExtraInputBytes = 500
	r := newRuntime(DMMax)
	dram, bus := r.PredictBytes(c1)
	if dram != 1000+500+1000 || bus != 0 {
		t.Fatalf("DMMax bytes = (%d, %d), want (2500, 0)", dram, bus)
	}
}

func TestPredictColocation(t *testing.T) {
	_, p, c1, c2 := buildFanout()
	r := newRuntime(DMPredict)
	if !r.predictColocate(p, c1) {
		t.Fatal("same-kind earliest-deadline child must be predicted to colocate")
	}
	if r.predictColocate(p, c2) {
		t.Fatal("different-kind child cannot colocate")
	}
}

func TestPredictColocationSiblingPriority(t *testing.T) {
	// Two same-kind children: only the earlier-deadline one colocates.
	d := graph.New("t", "T", 10*sim.Millisecond)
	p := d.AddNode("p", accel.ElemMatrix, accel.OpAdd, 1000)
	c1 := d.AddNode("c1", accel.ElemMatrix, accel.OpAdd, 1000, p)
	c2 := d.AddNode("c2", accel.ElemMatrix, accel.OpAdd, 1000, p)
	c1.RelDeadline = 5 * sim.Millisecond
	c2.RelDeadline = 8 * sim.Millisecond
	r := newRuntime(DMPredict)
	if !r.predictColocate(p, c1) || r.predictColocate(p, c2) {
		t.Fatal("only the earliest-deadline sibling colocates")
	}
}

func TestPredictAllChildrenForward(t *testing.T) {
	_, p, _, _ := buildFanout()
	r := newRuntime(DMPredict)
	// One EM child + one convolution child, one instance each: unique.
	if !r.predictAllChildrenForward(p) {
		t.Fatal("children on unique accelerators must be predicted to forward")
	}
	// Two children of the same kind with one instance: not unique.
	d := graph.New("t", "T", 10*sim.Millisecond)
	q := d.AddNode("q", accel.ElemMatrix, accel.OpAdd, 1000)
	d.AddNode("c1", accel.ElemMatrix, accel.OpAdd, 1000, q)
	d.AddNode("c2", accel.ElemMatrix, accel.OpAdd, 1000, q)
	if r.predictAllChildrenForward(q) {
		t.Fatal("two same-kind children cannot all forward on one instance")
	}
	// Leaves never forward.
	leaf := d.Nodes[1]
	if r.predictAllChildrenForward(leaf) {
		t.Fatal("a leaf has no forwards")
	}
}

func TestPredictAllChildrenForwardLatestParent(t *testing.T) {
	// A child with a later-deadline second parent: the first parent is not
	// the latest-finishing, so its output must be written back.
	d := graph.New("t", "T", 10*sim.Millisecond)
	p1 := d.AddNode("p1", accel.ElemMatrix, accel.OpAdd, 1000)
	p2 := d.AddNode("p2", accel.Convolution, accel.OpDefault, 1000)
	d.AddNode("c", accel.CannyNonMax, accel.OpDefault, 1000, p1, p2)
	p1.RelDeadline = 2 * sim.Millisecond
	p2.RelDeadline = 5 * sim.Millisecond
	r := newRuntime(DMPredict)
	if r.predictAllChildrenForward(p1) {
		t.Fatal("earlier-finishing parent must not predict forwarding")
	}
	if !r.predictAllChildrenForward(p2) {
		t.Fatal("latest-finishing parent must predict forwarding")
	}
}

func TestPredictMemAndRuntime(t *testing.T) {
	_, _, c1, _ := buildFanout()
	r := newRuntime(DMMax)
	memT := r.PredictMemTime(c1)
	want := sim.Time(float64(2000) / (6.4 * gb) * float64(sim.Second))
	if memT != want {
		t.Fatalf("PredictMemTime = %v, want %v", memT, want)
	}
	if r.PredictRuntime(c1) != c1.Compute+memT {
		t.Fatal("PredictRuntime must be compute + memory")
	}
}

func TestDMModeString(t *testing.T) {
	if DMMax.String() != "Max" || DMPredict.String() != "Pred" {
		t.Fatal("DMMode names wrong")
	}
}

// TestQuickPredictedBytesNeverNegativeAndBounded: predicted traffic is
// non-negative and never exceeds the all-DRAM maximum.
func TestQuickPredictedBytesBounded(t *testing.T) {
	f := func(edge1, edge2, extra, out uint16, sameKind bool) bool {
		d := graph.New("t", "T", 10*sim.Millisecond)
		kind := accel.Convolution
		if sameKind {
			kind = accel.ElemMatrix
		}
		p1 := d.AddNode("p1", accel.ElemMatrix, accel.OpAdd, int64(edge1)+1)
		p2 := d.AddNode("p2", kind, accel.OpAdd, int64(edge2)+1)
		c := d.AddNode("c", accel.ElemMatrix, accel.OpAdd, int64(out)+1, p1, p2)
		c.ExtraInputBytes = int64(extra)
		if err := d.Finalize(); err != nil {
			return false
		}
		_ = graph.AssignDeadlines(d, graph.DeadlineCPM, func(n *graph.Node) sim.Time { return n.Compute })
		r := newRuntime(DMPredict)
		dram, bus := r.PredictBytes(c)
		max := c.TotalInputBytes() + c.OutputBytes
		return dram >= 0 && bus >= 0 && dram+bus <= max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
