package stats

import (
	"fmt"
	"io"
)

// WriteGem5Style dumps the metric sink in gem5's stats.txt format —
// `name  value  # description` lines between Begin/End markers — matching
// the output format the paper's artifact produces. Scalar statistics come
// first, then per-application vectors, alphabetically.
func (s *Stats) WriteGem5Style(w io.Writer) error {
	type stat struct {
		name string
		val  string
		desc string
	}
	num := func(v float64) string { return fmt.Sprintf("%.6f", v) }
	fwd, col := s.ForwardsPerEdge()
	dramPct, spadPct := s.DataMovement()
	dramE, spadE := s.MemoryEnergy()
	avg, tail := s.SchedLatency()
	geo, starvedApps := s.SlowdownGeomean()
	lines := []stat{
		{"sim_ticks", fmt.Sprintf("%d", int64(s.Makespan)), "Simulated time (ps)"},
		{"system.slowdown_geomean", num(geo), "Geomean slowdown across non-starved apps"},
		{"system.apps_starved", fmt.Sprintf("%d", starvedApps), "Apps with no finished iteration"},
		{"sim_seconds", num(s.Makespan.Seconds()), "Simulated time (s)"},
		{"system.edges", fmt.Sprintf("%d", s.Edges), "Producer/consumer edges executed"},
		{"system.forwards", fmt.Sprintf("%d", s.Forwards), "SPAD-to-SPAD forwards"},
		{"system.colocations", fmt.Sprintf("%d", s.Colocations), "Consumer colocations"},
		{"system.forwards_pct", num(fwd), "Forwards per edge (%)"},
		{"system.colocations_pct", num(col), "Colocations per edge (%)"},
		{"system.mem.baseline_bytes", fmt.Sprintf("%d", s.BaselineBytes), "All-DRAM baseline traffic (B)"},
		{"system.mem.dram_read_bytes", fmt.Sprintf("%d", s.DRAMReadBytes), "Main memory reads (B)"},
		{"system.mem.dram_write_bytes", fmt.Sprintf("%d", s.DRAMWriteBytes), "Main memory writes (B)"},
		{"system.mem.spad_xfer_bytes", fmt.Sprintf("%d", s.SpadXferBytes), "SPAD-to-SPAD transfers (B)"},
		{"system.mem.dram_traffic_pct", num(dramPct), "DRAM traffic vs baseline (%)"},
		{"system.mem.spad_traffic_pct", num(spadPct), "SPAD traffic vs baseline (%)"},
		{"system.mem.dram_energy", num(dramE), "Main memory energy (J)"},
		{"system.mem.spad_energy", num(spadE), "Scratchpad energy (J)"},
		{"system.accel.occupancy", num(s.Occupancy()), "Sum of accelerator busy over makespan"},
		{"system.nodes.finished", fmt.Sprintf("%d", s.NodesDone), "Nodes finished"},
		{"system.nodes.deadline_met", fmt.Sprintf("%d", s.NodesMetDeadline), "Nodes meeting their deadline"},
		{"system.nodes.deadline_pct", num(s.NodeDeadlinePct()), "Node deadlines met (%)"},
		{"system.dags.deadline_pct", num(s.DAGDeadlinePct()), "DAG deadlines met (%)"},
		{"system.sched.avg_latency", num(avg.Seconds()), "Mean scheduler insertion cost (s)"},
		{"system.sched.tail_latency", num(tail.Seconds()), "Max scheduler insertion cost (s)"},
		{"system.interconnect.occupancy", num(s.InterconnectOccupancy), "Interconnect busy fraction"},
	}
	for _, n := range s.AppNames() {
		a := s.Apps[n]
		prefix := "system.app." + n
		// A starved application has no finished iteration, so its slowdown
		// is undefined: emit gem5's "nan" marker (never "%f" of +Inf, which
		// downstream stats.txt parsers reject) and flag it explicitly.
		slowdown, starved := "nan", 1
		if sl, ok := a.FiniteSlowdown(); ok {
			slowdown, starved = num(sl), 0
		}
		lines = append(lines,
			stat{prefix + ".iterations", fmt.Sprintf("%d", a.Iterations), "Finished DAG instances"},
			stat{prefix + ".deadlines_met", fmt.Sprintf("%d", a.DeadlinesMet), "DAG deadlines met"},
			stat{prefix + ".slowdown", slowdown, "Runtime over deadline (geomean)"},
			stat{prefix + ".starved", fmt.Sprintf("%d", starved), "1 if no iteration finished (slowdown undefined)"},
			stat{prefix + ".forwards", fmt.Sprintf("%d", a.Forwards), "Forwards on this app's edges"},
			stat{prefix + ".colocations", fmt.Sprintf("%d", a.Colocations), "Colocations on this app's edges"},
		)
	}
	if _, err := fmt.Fprintln(w, "---------- Begin Simulation Statistics ----------"); err != nil {
		return err
	}
	for _, l := range lines {
		if _, err := fmt.Fprintf(w, "%-42s %20s  # %s\n", l.name, l.val, l.desc); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "---------- End Simulation Statistics   ----------")
	return err
}
