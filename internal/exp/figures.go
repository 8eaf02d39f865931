package exp

import (
	"fmt"
	"math"

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

// mixScenarios enumerates the (mix, policy) grid for a contention level.
func forEachMix(level workload.Contention, fn func(mix []workload.App, name string) error) error {
	for _, mix := range workload.Mixes(level) {
		if err := fn(mix, workload.MixName(mix)); err != nil {
			return err
		}
	}
	return nil
}

// Fig4 reproduces Fig. 4: percent of total forwards and colocations
// (relative to the total number of edges executed) per mix and policy.
func Fig4(s *Sweep, level workload.Contention) (*Table, error) {
	t := &Table{
		Title: fmt.Sprintf("Figure 4 (%s contention): forwards and colocations / edges (%%)", level),
		Note:  "cells: FWD% + COL%",
	}
	t.Cols = append(t.Cols, "mix")
	for _, p := range PolicyNames {
		t.Cols = append(t.Cols, p+" fwd", p+" col")
	}
	perPolicyFwd := make(map[string][]float64)
	perPolicyCol := make(map[string][]float64)
	err := forEachMix(level, func(mix []workload.App, name string) error {
		row := []string{name}
		for _, p := range PolicyNames {
			res, err := s.Get(Scenario{Mix: mix, Contention: level, Policy: p})
			if err != nil {
				return err
			}
			fwd, col := res.Stats.ForwardsPerEdge()
			perPolicyFwd[p] = append(perPolicyFwd[p], fwd)
			perPolicyCol[p] = append(perPolicyCol[p], col)
			row = append(row, f1(fwd), f1(col))
		}
		t.AddRow(row...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	grow := []string{"Gmean"}
	for _, p := range PolicyNames {
		grow = append(grow, f1(gmean(perPolicyFwd[p], 0.1)), f1(gmean(perPolicyCol[p], 0.1)))
	}
	t.AddRow(grow...)
	return t, nil
}

// Fig5 reproduces Fig. 5: data movement breakdown into main-memory traffic
// and SPAD-to-SPAD traffic, as a percentage of the all-through-main-memory
// baseline; the remainder is eliminated by colocation and skipped
// write-backs.
func Fig5(s *Sweep, level workload.Contention) (*Table, error) {
	t := &Table{
		Title: fmt.Sprintf("Figure 5 (%s contention): data movement breakdown (%% of all-DRAM baseline)", level),
	}
	t.Cols = append(t.Cols, "mix")
	for _, p := range PolicyNames {
		t.Cols = append(t.Cols, p+" dram", p+" spad")
	}
	perDram := make(map[string][]float64)
	perSpad := make(map[string][]float64)
	err := forEachMix(level, func(mix []workload.App, name string) error {
		row := []string{name}
		for _, p := range PolicyNames {
			res, err := s.Get(Scenario{Mix: mix, Contention: level, Policy: p})
			if err != nil {
				return err
			}
			dram, spad := res.Stats.DataMovement()
			perDram[p] = append(perDram[p], dram)
			perSpad[p] = append(perSpad[p], spad)
			row = append(row, f1(dram), f1(spad))
		}
		t.AddRow(row...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	grow := []string{"Gmean"}
	for _, p := range PolicyNames {
		grow = append(grow, f1(gmean(perDram[p], 0.1)), f1(gmean(perSpad[p], 0.1)))
	}
	t.AddRow(grow...)
	return t, nil
}

// Fig6 reproduces Fig. 6: total main-memory and scratchpad energy under
// high contention, normalised to LAX.
func Fig6(s *Sweep) (*Table, error) {
	t := &Table{
		Title: "Figure 6 (high contention): memory energy normalised to LAX",
	}
	t.Cols = append(t.Cols, "mix")
	for _, p := range PolicyNames {
		t.Cols = append(t.Cols, p+" dram", p+" spad")
	}
	perDram := make(map[string][]float64)
	perSpad := make(map[string][]float64)
	err := forEachMix(workload.High, func(mix []workload.App, name string) error {
		lax, err := s.Get(Scenario{Mix: mix, Contention: workload.High, Policy: "LAX"})
		if err != nil {
			return err
		}
		laxDram, laxSpad := lax.Stats.MemoryEnergy()
		row := []string{name}
		for _, p := range PolicyNames {
			res, err := s.Get(Scenario{Mix: mix, Contention: workload.High, Policy: p})
			if err != nil {
				return err
			}
			dram, spad := res.Stats.MemoryEnergy()
			dn, sn := dram/laxDram, spad/laxSpad
			perDram[p] = append(perDram[p], dn)
			perSpad[p] = append(perSpad[p], sn)
			row = append(row, f2(dn), f2(sn))
		}
		t.AddRow(row...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	grow := []string{"Gmean"}
	for _, p := range PolicyNames {
		grow = append(grow, f2(gmean(perDram[p], 1e-3)), f2(gmean(perSpad[p], 1e-3)))
	}
	t.AddRow(grow...)
	return t, nil
}

// Fig7 reproduces Fig. 7: accelerator occupancy (sum of per-accelerator
// busy compute time over end-to-end execution time; higher is better).
func Fig7(s *Sweep, level workload.Contention) (*Table, error) {
	t := &Table{Title: fmt.Sprintf("Figure 7 (%s contention): accelerator occupancy", level)}
	t.Cols = append(t.Cols, "mix")
	t.Cols = append(t.Cols, PolicyNames...)
	per := make(map[string][]float64)
	err := forEachMix(level, func(mix []workload.App, name string) error {
		row := []string{name}
		for _, p := range PolicyNames {
			res, err := s.Get(Scenario{Mix: mix, Contention: level, Policy: p})
			if err != nil {
				return err
			}
			occ := res.Stats.Occupancy()
			per[p] = append(per[p], occ)
			row = append(row, f2(occ))
		}
		t.AddRow(row...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	grow := []string{"Gmean"}
	for _, p := range PolicyNames {
		grow = append(grow, f2(gmean(per[p], 1e-3)))
	}
	t.AddRow(grow...)
	return t, nil
}

// Fig8 reproduces Fig. 8: percent of node deadlines met.
func Fig8(s *Sweep, level workload.Contention) (*Table, error) {
	t := &Table{Title: fmt.Sprintf("Figure 8 (%s contention): node deadlines met (%%)", level)}
	t.Cols = append(t.Cols, "mix")
	t.Cols = append(t.Cols, PolicyNames...)
	per := make(map[string][]float64)
	err := forEachMix(level, func(mix []workload.App, name string) error {
		row := []string{name}
		for _, p := range PolicyNames {
			res, err := s.Get(Scenario{Mix: mix, Contention: level, Policy: p})
			if err != nil {
				return err
			}
			v := res.Stats.NodeDeadlinePct()
			per[p] = append(per[p], v)
			row = append(row, f1(v))
		}
		t.AddRow(row...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	grow := []string{"Gmean"}
	for _, p := range PolicyNames {
		grow = append(grow, f1(gmean(per[p], 0.1)))
	}
	t.AddRow(grow...)
	return t, nil
}

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
// contention, reporting per-variant geometric means across all mixes.
func Ablation(s *Sweep) (*Table, error) {
	type variant struct {
		name string
		sc   func(mix []workload.App) Scenario
	}
	base := func(mix []workload.App) Scenario {
		return Scenario{Mix: mix, Contention: workload.High, Policy: "RELIEF"}
	}
	variants := []variant{
		{"RELIEF", base},
		{"no feasibility check", func(m []workload.App) Scenario {
			sc := base(m)
			sc.Policy = "RELIEF-NoFeas"
			return sc
		}},
		{"unbounded forwards", func(m []workload.App) Scenario {
			sc := base(m)
			sc.Policy = "RELIEF-Unbounded"
			return sc
		}},
		{"HetSched laxity base", func(m []workload.App) Scenario {
			sc := base(m)
			sc.Policy = "RELIEF-HetSched"
			return sc
		}},
		{"single output partition", func(m []workload.App) Scenario {
			sc := base(m)
			sc.Platform.OutputPartitions = 1
			return sc
		}},
		{"triple output partition", func(m []workload.App) Scenario {
			sc := base(m)
			sc.Platform.OutputPartitions = 3
			return sc
		}},
		{"always write back", func(m []workload.App) Scenario {
			sc := base(m)
			sc.Platform.AlwaysWriteBack = true
			return sc
		}},
	}
	t := &Table{
		Title: "Ablation (high contention, gmean over mixes)",
		Cols:  []string{"variant", "fwd%", "col%", "dram%", "nodeDL%", "occupancy"},
	}
	for _, v := range variants {
		var fwd, col, dram, dl, occ []float64
		err := forEachMix(workload.High, func(mix []workload.App, name string) error {
			res, err := s.Get(v.sc(mix))
			if err != nil {
				return err
			}
			f, c := res.Stats.ForwardsPerEdge()
			d, _ := res.Stats.DataMovement()
			fwd = append(fwd, f)
			col = append(col, c)
			dram = append(dram, d)
			dl = append(dl, res.Stats.NodeDeadlinePct())
			occ = append(occ, res.Stats.Occupancy())
			return nil
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(v.name, f1(gmean(fwd, 0.1)), f1(gmean(col, 0.1)),
			f1(gmean(dram, 0.1)), f1(gmean(dl, 0.1)), f2(gmean(occ, 1e-3)))
	}
	return t, nil
}

var _ = math.Inf // keep math imported for future use
