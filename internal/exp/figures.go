package exp

import (
	"fmt"

	"relief/internal/graph"
	"relief/internal/sim"
	"relief/internal/workload"
	"relief/internal/xbar"
)

// Table2 reproduces paper Table II: per application, the total compute time
// and the total memory time without forwarding hardware vs an ideal
// scenario where forwarding is used whenever possible. These are sum totals
// that do not account for compute/communication overlap, so they are
// computed analytically from the DAGs and the platform bandwidths.
func Table2() (*Table, error) {
	cfg := xbar.DefaultConfig(7)
	dramT := func(bytes int64) float64 {
		return float64(bytes) / cfg.DRAMBandwidth * 1e6 // µs
	}
	busT := func(bytes int64) float64 {
		return float64(bytes) / cfg.BusBandwidth * 1e6
	}
	t := &Table{
		Title: "Table II: compute vs data movement time (us, sum totals)",
		Note:  "mem(no fwd): all loads/stores via main memory; mem(ideal): forwarding/colocation whenever possible",
		Cols:  []string{"app", "compute", "mem(no fwd)", "mem(ideal)"},
	}
	for a := workload.App(0); a < workload.NumApps; a++ {
		d := workload.MustBuild(a)
		if err := graph.AssignDeadlines(d, graph.DeadlineCPM, func(n *graph.Node) sim.Time {
			return n.Compute + sim.Time(dramT(n.TotalInputBytes()+n.OutputBytes)*float64(sim.Microsecond))
		}); err != nil {
			return nil, err
		}
		var compute, noFwd, ideal float64
		for _, n := range d.Nodes {
			compute += n.Compute.Microseconds()
			noFwd += dramT(n.TotalInputBytes() + n.OutputBytes)
			ideal += dramT(n.ExtraInputBytes)
			for i, p := range n.Parents {
				if !idealColocates(p, n) {
					ideal += busT(n.EdgeInBytes[i])
				}
			}
			if n.IsLeaf() {
				ideal += dramT(n.OutputBytes)
			}
		}
		t.AddRow(a.Name(), f2(compute), f2(noFwd), f2(ideal))
	}
	return t, nil
}

// idealColocates reports whether, with ideal scheduling, the child edge
// would be a colocation: same accelerator kind, and the child is the
// parent's earliest-deadline same-kind child (only one child can run
// immediately after the producer on its accelerator).
func idealColocates(p, c *graph.Node) bool {
	if c.Kind != p.Kind {
		return false
	}
	for _, sib := range p.Children {
		if sib == c || sib.Kind != p.Kind {
			continue
		}
		if sib.RelDeadline < c.RelDeadline ||
			(sib.RelDeadline == c.RelDeadline && sib.ID < c.ID) {
			return false
		}
	}
	return true
}

// forEachMix calls fn with every mix of a contention level and its label.
func forEachMix(level workload.Contention, fn func(mix []workload.App, name string) error) error {
	for _, mix := range workload.Mixes(level) {
		if err := fn(mix, workload.MixName(mix)); err != nil {
			return err
		}
	}
	return nil
}

// PolicyFigure is one of the paper's per-policy figures (Figs. 4-8): a
// metric read from every (mix, policy) scenario of a contention level.
// relief-bench tabulates it (Table) and relief-report charts it (Values),
// so both plot the same numbers.
type PolicyFigure struct {
	title  string   // format string taking the contention level
	note   string   // optional table note
	series []string // per-policy column suffixes; nil for one unnamed value
	format func(float64) string
	eps    float64 // gmean clamp
	metric func(s *Sweep, r *Result) ([]float64, error)
}

// Figure4 is Fig. 4: percent of total forwards and colocations (relative
// to the total number of edges executed).
var Figure4 = PolicyFigure{
	title:  "Figure 4 (%s contention): forwards and colocations / edges (%%)",
	note:   "cells: FWD% + COL%",
	series: []string{"fwd", "col"},
	format: f1, eps: 0.1,
	metric: func(_ *Sweep, r *Result) ([]float64, error) {
		fwd, col := r.Stats.ForwardsPerEdge()
		return []float64{fwd, col}, nil
	},
}

// Figure5 is Fig. 5: data movement broken into main-memory and
// SPAD-to-SPAD traffic, as a percentage of the all-through-main-memory
// baseline; the remainder is eliminated by colocation and skipped
// write-backs.
var Figure5 = PolicyFigure{
	title:  "Figure 5 (%s contention): data movement breakdown (%% of all-DRAM baseline)",
	series: []string{"dram", "spad"},
	format: f1, eps: 0.1,
	metric: func(_ *Sweep, r *Result) ([]float64, error) {
		dram, spad := r.Stats.DataMovement()
		return []float64{dram, spad}, nil
	},
}

// Figure6 is Fig. 6: total main-memory and scratchpad energy, normalised
// to LAX on the same mix. The paper shows it under high contention only.
var Figure6 = PolicyFigure{
	title:  "Figure 6 (%s contention): memory energy normalised to LAX",
	series: []string{"dram", "spad"},
	format: f2, eps: 1e-3,
	metric: func(s *Sweep, r *Result) ([]float64, error) {
		lax, err := s.Get(Scenario{Mix: r.Scenario.Mix, Contention: r.Scenario.Contention, Policy: "LAX"})
		if err != nil {
			return nil, err
		}
		laxDram, laxSpad := lax.Stats.MemoryEnergy()
		dram, spad := r.Stats.MemoryEnergy()
		return []float64{dram / laxDram, spad / laxSpad}, nil
	},
}

// Figure7 is Fig. 7: accelerator occupancy (sum of per-accelerator busy
// compute time over end-to-end execution time; higher is better).
var Figure7 = PolicyFigure{
	title:  "Figure 7 (%s contention): accelerator occupancy",
	format: f2, eps: 1e-3,
	metric: func(_ *Sweep, r *Result) ([]float64, error) {
		return []float64{r.Stats.Occupancy()}, nil
	},
}

// Figure8 is Fig. 8: percent of node deadlines met.
var Figure8 = PolicyFigure{
	title:  "Figure 8 (%s contention): node deadlines met (%%)",
	format: f1, eps: 0.1,
	metric: func(_ *Sweep, r *Result) ([]float64, error) {
		return []float64{r.Stats.NodeDeadlinePct()}, nil
	},
}

// Values returns the figure's metric indexed [policy][mix][series], in
// PolicyNames and workload.Mixes(level) order.
func (f PolicyFigure) Values(s *Sweep, level workload.Contention) ([][][]float64, error) {
	mixes := workload.Mixes(level)
	out := make([][][]float64, len(PolicyNames))
	for i, p := range PolicyNames {
		out[i] = make([][]float64, len(mixes))
		for j, mix := range mixes {
			r, err := s.Get(Scenario{Mix: mix, Contention: level, Policy: p})
			if err != nil {
				return nil, err
			}
			if out[i][j], err = f.metric(s, r); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// Table tabulates the figure: one row per mix, one column per policy and
// series, and a Gmean row.
func (f PolicyFigure) Table(s *Sweep, level workload.Contention) (*Table, error) {
	vals, err := f.Values(s, level)
	if err != nil {
		return nil, err
	}
	t := &Table{Title: fmt.Sprintf(f.title, level), Note: f.note, Cols: []string{"mix"}}
	gm := []string{"Gmean"}
	for i, p := range PolicyNames {
		for k := range vals[i][0] {
			if f.series == nil {
				t.Cols = append(t.Cols, p)
			} else {
				t.Cols = append(t.Cols, p+" "+f.series[k])
			}
			col := make([]float64, len(vals[i]))
			for j, v := range vals[i] {
				col[j] = v[k]
			}
			gm = append(gm, f.format(gmean(col, f.eps)))
		}
	}
	for j, mix := range workload.Mixes(level) {
		row := []string{workload.MixName(mix)}
		for i := range PolicyNames {
			for _, v := range vals[i][j] {
				row = append(row, f.format(v))
			}
		}
		t.AddRow(row...)
	}
	t.AddRow(gm...)
	return t, nil
}

// Fig4 tabulates Figure4.
func Fig4(s *Sweep, level workload.Contention) (*Table, error) { return Figure4.Table(s, level) }

// Fig5 tabulates Figure5.
func Fig5(s *Sweep, level workload.Contention) (*Table, error) { return Figure5.Table(s, level) }

// Fig6 tabulates Figure6 under high contention.
func Fig6(s *Sweep) (*Table, error) { return Figure6.Table(s, workload.High) }

// Fig7 tabulates Figure7.
func Fig7(s *Sweep, level workload.Contention) (*Table, error) { return Figure7.Table(s, level) }

// Fig8 tabulates Figure8.
func Fig8(s *Sweep, level workload.Contention) (*Table, error) { return Figure8.Table(s, level) }

// Fig9 reproduces Fig. 9 (high contention) or Fig. 10 (continuous
// contention): per-application slowdown spread and DAG deadlines met, for
// the extended 8-policy set including LL and RELIEF-LAX.
func Fig9(s *Sweep, level workload.Contention) (*Table, *Table, error) {
	fig := "Figure 9"
	if level == workload.Continuous {
		fig = "Figure 10"
	}
	slow := &Table{
		Title: fmt.Sprintf("%sa (%s contention): application slowdown (runtime/deadline)", fig, level),
		Note:  "cells: min/median/max across the mix's applications; inf = starved",
	}
	dag := &Table{Title: fmt.Sprintf("%sb (%s contention): DAG deadlines met (%%)", fig, level)}
	slow.Cols = append(slow.Cols, "mix")
	dag.Cols = append(dag.Cols, "mix")
	slow.Cols = append(slow.Cols, FairnessPolicyNames...)
	dag.Cols = append(dag.Cols, FairnessPolicyNames...)
	err := forEachMix(level, func(mix []workload.App, name string) error {
		srow := []string{name}
		drow := []string{name}
		for _, p := range FairnessPolicyNames {
			res, err := s.Get(Scenario{Mix: mix, Contention: level, Policy: p})
			if err != nil {
				return err
			}
			mn, md, mx, _ := res.Stats.SlowdownSpread()
			srow = append(srow, fmt.Sprintf("%s/%s/%s", f2(mn), f2(md), f2(mx)))
			drow = append(drow, f1(res.Stats.DAGDeadlinePct()))
		}
		slow.AddRow(srow...)
		dag.AddRow(drow...)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return slow, dag, nil
}

// Table7 reproduces paper Table VII: the number of finished DAG iterations
// per application in each continuous-contention mix.
func Table7(s *Sweep) (*Table, error) {
	t := &Table{
		Title: "Table VII: finished DAGs per application, continuous contention",
		Note:  "cells: per-application finished iteration counts in mix order",
	}
	t.Cols = append(t.Cols, "policy")
	for _, mix := range workload.Mixes(workload.Continuous) {
		t.Cols = append(t.Cols, workload.MixName(mix))
	}
	for _, p := range FairnessPolicyNames {
		row := []string{p}
		for _, mix := range workload.Mixes(workload.Continuous) {
			res, err := s.Get(Scenario{Mix: mix, Contention: workload.Continuous, Policy: p})
			if err != nil {
				return nil, err
			}
			cell := ""
			for i, app := range mix {
				if i > 0 {
					cell += "/"
				}
				n := 0
				if a := res.Stats.Apps[app.Name()]; a != nil {
					n = a.Iterations
				}
				cell += fmt.Sprintf("%d", n)
			}
			row = append(row, cell)
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Table8 reproduces paper Table VIII: predictor accuracy under high
// contention with RELIEF, and the (in)sensitivity of forwards and node
// deadlines to the bandwidth predictor choice.
func Table8(s *Sweep) (*Table, error) {
	bwNames := []string{"max", "last", "average", "ewma"}
	t := &Table{
		Title: "Table VIII: predictor accuracy and performance impact (high contention, RELIEF)",
		Note:  "errors: mean signed %, negative = underestimation; BW err from each bandwidth predictor",
	}
	t.Cols = []string{"mix", "compute err", "DM err"}
	for _, b := range bwNames {
		t.Cols = append(t.Cols, "BWerr:"+b)
	}
	for _, b := range bwNames {
		t.Cols = append(t.Cols, "fwd:"+b)
	}
	for _, b := range bwNames {
		t.Cols = append(t.Cols, "nodeDL:"+b)
	}
	err := forEachMix(workload.High, func(mix []workload.App, name string) error {
		row := []string{name}
		// Compute and data-movement errors with the graph-analysis DM
		// predictor active.
		pr, err := s.Get(Scenario{Mix: mix, Contention: workload.High, Policy: "RELIEF", Platform: PlatformSpec{PredictDM: true}})
		if err != nil {
			return err
		}
		cErr, dmErr, _ := pr.Stats.PredErr.MeanSigned()
		row = append(row, f2(cErr), f2(dmErr))
		var fwds, dls []string
		for _, b := range bwNames {
			res, err := s.Get(Scenario{Mix: mix, Contention: workload.High, Policy: "RELIEF", Platform: PlatformSpec{BWPredictor: b}})
			if err != nil {
				return err
			}
			row = append(row, f2(res.Stats.PredErr.MeanSignedBW()))
			fwds = append(fwds, fmt.Sprintf("%d", res.Stats.Forwards))
			dls = append(dls, fmt.Sprintf("%d", res.Stats.NodesMetDeadline))
		}
		row = append(row, fwds...)
		row = append(row, dls...)
		t.AddRow(row...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// Fig11 reproduces Fig. 11: impact of the memory predictors on node
// deadlines met under high contention, normalised to Max predictors for
// both bandwidth and data movement.
func Fig11(s *Sweep) (*Table, error) {
	t := &Table{
		Title: "Figure 11 (high contention, RELIEF): node deadlines met, normalised to Max predictors",
		Cols:  []string{"mix", "pred.BW", "pred.DM", "pred.BW+DM"},
	}
	var c1, c2, c3 []float64
	err := forEachMix(workload.High, func(mix []workload.App, name string) error {
		base, err := s.Get(Scenario{Mix: mix, Contention: workload.High, Policy: "RELIEF"})
		if err != nil {
			return err
		}
		den := float64(base.Stats.NodesMetDeadline)
		if den == 0 {
			den = 1
		}
		get := func(bw string, predictDM bool) (float64, error) {
			res, err := s.Get(Scenario{Mix: mix, Contention: workload.High, Policy: "RELIEF",
				Platform: PlatformSpec{BWPredictor: bw, PredictDM: predictDM}})
			if err != nil {
				return 0, err
			}
			return float64(res.Stats.NodesMetDeadline) / den, nil
		}
		v1, err := get("average", false)
		if err != nil {
			return err
		}
		v2, err := get("max", true)
		if err != nil {
			return err
		}
		v3, err := get("average", true)
		if err != nil {
			return err
		}
		c1, c2, c3 = append(c1, v1), append(c2, v2), append(c3, v3)
		t.AddRow(name, f2(v1), f2(v2), f2(v3))
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.AddRow("Gmean", f2(gmean(c1, 1e-3)), f2(gmean(c2, 1e-3)), f2(gmean(c3, 1e-3)))
	return t, nil
}

// Fig12 reproduces Fig. 12: average and tail latency of pushing a task
// into the ready queue for each policy, on the modeled Cortex-A7 class
// microcontroller, under high contention.
func Fig12(s *Sweep) (*Table, error) {
	t := &Table{
		Title: "Figure 12 (high contention): scheduler latency (us)",
		Note:  "cells: average/tail per ready-queue insertion (modeled microcontroller cost)",
	}
	t.Cols = append(t.Cols, "mix")
	t.Cols = append(t.Cols, PolicyNames...)
	err := forEachMix(workload.High, func(mix []workload.App, name string) error {
		row := []string{name}
		for _, p := range PolicyNames {
			res, err := s.Get(Scenario{Mix: mix, Contention: workload.High, Policy: p})
			if err != nil {
				return err
			}
			avg, tail := res.Stats.SchedLatency()
			row = append(row, fmt.Sprintf("%s/%s", f2(avg.Microseconds()), f2(tail.Microseconds())))
		}
		t.AddRow(row...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// Fig13 reproduces Fig. 13: RELIEF's sensitivity to the interconnect
// topology under high contention — interconnect occupancy and execution
// time normalised to LAX on the bus.
func Fig13(s *Sweep) (*Table, error) {
	t := &Table{
		Title: "Figure 13 (high contention): interconnect sensitivity",
		Note:  "occupancy in %, execution time normalised to LAX/bus",
		Cols: []string{"mix", "LAX occ", "RELIEF-bus occ", "RELIEF-xbar occ",
			"LAX time", "RELIEF-bus time", "RELIEF-xbar time"},
	}
	var occL, occB, occX, tB, tX []float64
	err := forEachMix(workload.High, func(mix []workload.App, name string) error {
		lax, err := s.Get(Scenario{Mix: mix, Contention: workload.High, Policy: "LAX"})
		if err != nil {
			return err
		}
		rb, err := s.Get(Scenario{Mix: mix, Contention: workload.High, Policy: "RELIEF"})
		if err != nil {
			return err
		}
		rx, err := s.Get(Scenario{Mix: mix, Contention: workload.High, Policy: "RELIEF", Platform: PlatformSpec{Topology: "xbar"}})
		if err != nil {
			return err
		}
		den := float64(lax.Stats.Makespan)
		occL = append(occL, 100*lax.Stats.InterconnectOccupancy)
		occB = append(occB, 100*rb.Stats.InterconnectOccupancy)
		occX = append(occX, 100*rx.Stats.InterconnectOccupancy)
		tB = append(tB, float64(rb.Stats.Makespan)/den)
		tX = append(tX, float64(rx.Stats.Makespan)/den)
		t.AddRow(name,
			f1(100*lax.Stats.InterconnectOccupancy),
			f1(100*rb.Stats.InterconnectOccupancy),
			f1(100*rx.Stats.InterconnectOccupancy),
			"1.00", f2(float64(rb.Stats.Makespan)/den), f2(float64(rx.Stats.Makespan)/den))
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.AddRow("Gmean", f1(gmean(occL, 1e-2)), f1(gmean(occB, 1e-2)), f1(gmean(occX, 1e-2)),
		"1.00", f2(gmean(tB, 1e-3)), f2(gmean(tX, 1e-3)))
	return t, nil
}

// Ablation evaluates the design choices DESIGN.md calls out, under high
// contention, reporting per-variant geometric means across all mixes. Each
// column reads one series of a per-policy figure, in that figure's format
// and Gmean clamp.
func Ablation(s *Sweep) (*Table, error) {
	variants := []struct {
		name string
		set  func(sc *Scenario)
	}{
		{"RELIEF", func(*Scenario) {}},
		{"no feasibility check", func(sc *Scenario) { sc.Policy = "RELIEF-NoFeas" }},
		{"unbounded forwards", func(sc *Scenario) { sc.Policy = "RELIEF-Unbounded" }},
		{"HetSched laxity base", func(sc *Scenario) { sc.Policy = "RELIEF-HetSched" }},
		{"single output partition", func(sc *Scenario) { sc.Platform.OutputPartitions = 1 }},
		{"triple output partition", func(sc *Scenario) { sc.Platform.OutputPartitions = 3 }},
		{"always write back", func(sc *Scenario) { sc.Platform.AlwaysWriteBack = true }},
	}
	cols := []struct {
		fig    *PolicyFigure
		series int
	}{{&Figure4, 0}, {&Figure4, 1}, {&Figure5, 0}, {&Figure8, 0}, {&Figure7, 0}}
	t := &Table{
		Title: "Ablation (high contention, gmean over mixes)",
		Cols:  []string{"variant", "fwd%", "col%", "dram%", "nodeDL%", "occupancy"},
	}
	for _, v := range variants {
		vals := make([][]float64, len(cols))
		err := forEachMix(workload.High, func(mix []workload.App, _ string) error {
			sc := Scenario{Mix: mix, Contention: workload.High, Policy: "RELIEF"}
			v.set(&sc)
			r, err := s.Get(sc)
			if err != nil {
				return err
			}
			for i, c := range cols {
				m, err := c.fig.metric(s, r)
				if err != nil {
					return err
				}
				vals[i] = append(vals[i], m[c.series])
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		row := []string{v.name}
		for i, c := range cols {
			row = append(row, c.fig.format(gmean(vals[i], c.fig.eps)))
		}
		t.AddRow(row...)
	}
	return t, nil
}
