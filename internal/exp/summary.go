package exp

import (
	"fmt"
	"io"

	"relief/internal/stats"
	"relief/internal/workload"
)

// MixLabel renders a mix as its symbol string ("CGL"), the inverse of
// workload.ParseMix.
func MixLabel(mix []workload.App) string {
	s := ""
	for _, a := range mix {
		s += a.Sym()
	}
	return s
}

// WriteSummary renders the human-readable result summary for one scenario —
// the report relief-sim prints and relief-serve returns in its "text" field,
// shared so the two stay byte-identical.
func WriteSummary(w io.Writer, sc Scenario, st *stats.Stats) error {
	fwd, col := st.ForwardsPerEdge()
	dramPct, spadPct := st.DataMovement()
	dramE, spadE := st.MemoryEnergy()
	avg, tail := st.SchedLatency()

	cfg, err := sc.Platform.Resolve(nil)
	if err != nil {
		return err
	}
	p := &summaryWriter{w: w}
	p.printf("scenario: mix=%s policy=%s contention=%s topology=%s\n",
		MixLabel(sc.Mix), sc.Policy, sc.Contention, cfg.Interconnect.Topology)
	p.printf("makespan:            %v\n", st.Makespan)
	p.printf("edges:               %d (forwards %d = %.1f%%, colocations %d = %.1f%%)\n",
		st.Edges, st.Forwards, fwd, st.Colocations, col)
	p.printf("main memory traffic: %.2f MB (%.1f%% of all-DRAM baseline)\n",
		float64(st.DRAMReadBytes+st.DRAMWriteBytes)/1e6, dramPct)
	p.printf("spad-to-spad:        %.2f MB (%.1f%%)\n", float64(st.SpadXferBytes)/1e6, spadPct)
	p.printf("memory energy:       dram %.1f uJ, spad %.1f uJ\n", dramE*1e6, spadE*1e6)
	p.printf("node deadlines met:  %d/%d (%.1f%%)\n", st.NodesMetDeadline, st.NodesDone, st.NodeDeadlinePct())
	p.printf("DAG deadlines met:   %.1f%%\n", st.DAGDeadlinePct())
	p.printf("accel occupancy:     %.2f\n", st.Occupancy())
	p.printf("interconnect occ.:   %.1f%%\n", 100*st.InterconnectOccupancy)
	p.printf("scheduler latency:   avg %v, tail %v\n", avg, tail)
	if st.Faults.Any() {
		fs := st.Faults
		p.printf("faults injected:     hangs=%d slow=%d fails=%d deaths=%d dma-stalls=%d crc=%d dram-errs=%d\n",
			fs.Hangs, fs.Slowdowns, fs.TransientFails, fs.InstanceDeaths,
			fs.DMAStalls, fs.DMACorruptions, fs.DRAMErrors)
		p.printf("recovery:            watchdog=%d retries=%d invalidated-fwd=%d aborted-dags=%d\n",
			fs.WatchdogFires, fs.Retries, fs.InvalidatedForwards, fs.DAGsAborted)
		p.printf("recovery traffic:    %.2f MB, MTTR %v\n",
			float64(fs.RecoveryDRAMBytes+fs.RetriedDMABytes)/1e6, fs.MTTR())
	}

	for _, n := range st.AppNames() {
		a := st.Apps[n]
		// A starved app's slowdown is undefined (+Inf): say so instead of
		// printing a non-number.
		slow := "starved"
		if sl, ok := a.FiniteSlowdown(); ok {
			slow = fmt.Sprintf("%.2f", sl)
		}
		line := fmt.Sprintf("  %-7s iterations=%d deadlinesMet=%d slowdown=%s",
			n, a.Iterations, a.DeadlinesMet, slow)
		if a.Aborted > 0 {
			line += fmt.Sprintf(" aborted=%d", a.Aborted)
		}
		p.printf("%s\n", line)
	}
	return p.err
}

// summaryWriter is an io.Writer wrapper with a sticky first error.
type summaryWriter struct {
	w   io.Writer
	err error
}

func (p *summaryWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}
