package exp

import (
	"fmt"

	"relief/internal/metrics"
	"relief/internal/sim"
	"relief/internal/workload"
)

// MixBySyms resolves a mix label like "CGL" into its application list.
func MixBySyms(name string) ([]workload.App, error) {
	if name == "" {
		return nil, fmt.Errorf("exp: empty mix name")
	}
	return workload.ParseMix(name)
}

// AttributionStudy runs one high-contention mix under each policy with a
// fresh metrics registry and tabulates where node latency goes: scheduling
// wait, pure DMA transfer, DMA contention stall, compute, and write-back
// tail, as percentages of summed node latency. The study makes the paper's
// core claim directly observable: data movement-aware scheduling (RELIEF)
// shifts latency out of the DMA contention-stall column relative to
// movement-blind policies (FCFS). Registries are returned keyed by policy
// for export. interval <= 0 selects the default probe period.
func AttributionStudy(mixName string, policies []string, interval sim.Time) (*Table, map[string]*metrics.Registry, error) {
	mix, err := MixBySyms(mixName)
	if err != nil {
		return nil, nil, err
	}
	t := &Table{
		Title: fmt.Sprintf("Latency attribution, mix %s, high contention", mixName),
		Note:  "Share of summed per-node latency (ReadyAt to finish) by component.",
		Cols: []string{"policy", "nodes", "sched-wait%", "dma-pure%",
			"dma-stall%", "compute%", "writeback%", "p95-node-us"},
	}
	regs := make(map[string]*metrics.Registry, len(policies))
	for _, p := range policies {
		r := metrics.NewRegistry()
		_, err := Run(Scenario{
			Mix:             mix,
			Contention:      workload.High,
			Policy:          p,
			Metrics:         r,
			MetricsInterval: interval,
		})
		if err != nil {
			return nil, nil, err
		}
		regs[p] = r
		a := r.Attribution()
		tot := &a.Total
		wait, pure, stall, comp, wb := tot.Shares()
		p95 := 0.0
		if h := r.FindHistogram("relief_node_latency_us"); h != nil {
			p95 = h.Quantile(0.95)
		}
		t.AddRow(p,
			fmt.Sprintf("%d", tot.Nodes),
			fmt.Sprintf("%.1f", wait),
			fmt.Sprintf("%.1f", pure),
			fmt.Sprintf("%.1f", stall),
			fmt.Sprintf("%.1f", comp),
			fmt.Sprintf("%.1f", wb),
			fmt.Sprintf("%.1f", p95))
	}
	return t, regs, nil
}
