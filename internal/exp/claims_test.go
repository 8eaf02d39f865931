package exp

import (
	"math"
	"testing"

	"relief/internal/workload"
)

// TestPaperObservations pins the paper's headline observations (§V) as
// regression guards: each sub-test checks one claim's *shape* against the
// simulation, so future changes to the substrate cannot silently break the
// reproduction. Expensive sweeps are shared through one memoizing Sweep.
func TestPaperObservations(t *testing.T) {
	s := NewSweep()
	high := func(policy, mixName string) *Result {
		t.Helper()
		mix, err := workload.ParseMix(mixName)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Get(Scenario{Mix: mix, Contention: workload.High, Policy: policy})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	highAll := func(policy string, metric func(*Result) float64) float64 {
		t.Helper()
		sum := 0.0
		for _, mix := range workload.Mixes(workload.High) {
			res, err := s.Get(Scenario{Mix: mix, Contention: workload.High, Policy: policy})
			if err != nil {
				t.Fatal(err)
			}
			sum += metric(res)
		}
		return sum / 10
	}

	t.Run("Obs1_RELIEF_maximizes_forwarding", func(t *testing.T) {
		total := func(r *Result) float64 {
			f, c := r.Stats.ForwardsPerEdge()
			return f + c
		}
		relief := highAll("RELIEF", total)
		for _, p := range []string{"FCFS", "GEDF-D", "GEDF-N", "LAX", "HetSched"} {
			if base := highAll(p, total); relief <= base {
				t.Errorf("RELIEF %.1f%% <= %s %.1f%%", relief, p, base)
			}
		}
		if relief < 55 {
			t.Errorf("RELIEF fwd+col = %.1f%%, paper reports >65%% of possible forwards", relief)
		}
	})

	t.Run("Obs2_RELIEF_reduces_DRAM_traffic", func(t *testing.T) {
		dram := func(r *Result) float64 { d, _ := r.Stats.DataMovement(); return d }
		relief := highAll("RELIEF", dram)
		het := highAll("HetSched", dram)
		if relief >= het {
			t.Errorf("RELIEF DRAM %.1f%% >= HetSched %.1f%%", relief, het)
		}
		if (het-relief)/het < 0.10 {
			t.Errorf("DRAM reduction vs HetSched only %.1f%%, paper: 16%% avg", 100*(het-relief)/het)
		}
	})

	t.Run("Obs3_RELIEF_reduces_memory_energy", func(t *testing.T) {
		energy := func(r *Result) float64 { d, sp := r.Stats.MemoryEnergy(); return d + sp }
		if relief, het := highAll("RELIEF", energy), highAll("HetSched", energy); relief >= het {
			t.Errorf("RELIEF memory energy %.3e >= HetSched %.3e", relief, het)
		}
	})

	t.Run("Obs5_RELIEF_meets_most_node_deadlines", func(t *testing.T) {
		dl := func(r *Result) float64 { return r.Stats.NodeDeadlinePct() }
		relief := highAll("RELIEF", dl)
		for _, p := range []string{"FCFS", "GEDF-N", "LAX", "HetSched"} {
			if base := highAll(p, dl); relief < base {
				t.Errorf("RELIEF node deadlines %.1f%% < %s %.1f%%", relief, p, base)
			}
		}
	})

	t.Run("CDH_anomaly", func(t *testing.T) {
		// Paper §V-D: in CDH, GEDF-N and RELIEF prioritise Deblur and lose
		// node deadlines relative to FCFS/GEDF-D.
		if a, b := high("RELIEF", "CDH").Stats.NodeDeadlinePct(),
			high("GEDF-D", "CDH").Stats.NodeDeadlinePct(); a >= b {
			t.Errorf("CDH anomaly missing: RELIEF %.1f%% >= GEDF-D %.1f%%", a, b)
		}
	})

	t.Run("Obs6_fairness_under_continuous_contention", func(t *testing.T) {
		// RELIEF's slowdown variance is far below HetSched's in the RNN
		// mixes the paper highlights (CGL, DGL, GHL).
		for _, mixName := range []string{"CGL", "DGL", "GHL"} {
			mix, _ := workload.ParseMix(mixName)
			rel, err := s.Get(Scenario{Mix: mix, Contention: workload.Continuous, Policy: "RELIEF"})
			if err != nil {
				t.Fatal(err)
			}
			het, err := s.Get(Scenario{Mix: mix, Contention: workload.Continuous, Policy: "HetSched"})
			if err != nil {
				t.Fatal(err)
			}
			_, _, _, relVar := rel.Stats.SlowdownSpread()
			_, _, _, hetVar := het.Stats.SlowdownSpread()
			if relVar >= hetVar {
				t.Errorf("%s: RELIEF slowdown variance %.4f >= HetSched %.4f", mixName, relVar, hetVar)
			}
			// No application starves under RELIEF.
			for name, a := range rel.Stats.Apps {
				if math.IsInf(a.Slowdown(), 1) {
					t.Errorf("%s: RELIEF starved %s", mixName, name)
				}
			}
		}
	})

	t.Run("Obs8_predictors_do_not_matter", func(t *testing.T) {
		mix, _ := workload.ParseMix("CGL")
		base, err := s.Get(Scenario{Mix: mix, Contention: workload.High, Policy: "RELIEF"})
		if err != nil {
			t.Fatal(err)
		}
		for _, bw := range []string{"last", "average", "ewma"} {
			res, err := s.Get(Scenario{Mix: mix, Contention: workload.High, Policy: "RELIEF", Platform: PlatformSpec{BWPredictor: bw}})
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.Forwards != base.Stats.Forwards ||
				res.Stats.NodesMetDeadline != base.Stats.NodesMetDeadline {
				t.Errorf("predictor %s changed results: fwd %d vs %d, dl %d vs %d",
					bw, res.Stats.Forwards, base.Stats.Forwards,
					res.Stats.NodesMetDeadline, base.Stats.NodesMetDeadline)
			}
		}
	})

	t.Run("Obs10_crossbar_does_not_help", func(t *testing.T) {
		// These workloads are not interconnect-bound: the crossbar changes
		// RELIEF's makespan by <2% on every high-contention mix, and
		// RELIEF's interconnect occupancy is below LAX's on average.
		var occRelief, occLAX float64
		for _, mix := range workload.Mixes(workload.High) {
			bus, err := s.Get(Scenario{Mix: mix, Contention: workload.High, Policy: "RELIEF"})
			if err != nil {
				t.Fatal(err)
			}
			xb, err := s.Get(Scenario{Mix: mix, Contention: workload.High, Policy: "RELIEF", Platform: PlatformSpec{Topology: "xbar"}})
			if err != nil {
				t.Fatal(err)
			}
			ratio := float64(xb.Stats.Makespan) / float64(bus.Stats.Makespan)
			if ratio < 0.98 || ratio > 1.02 {
				t.Errorf("%s: crossbar changed makespan by %.1f%%", workload.MixName(mix), 100*(ratio-1))
			}
			lax, err := s.Get(Scenario{Mix: mix, Contention: workload.High, Policy: "LAX"})
			if err != nil {
				t.Fatal(err)
			}
			occRelief += bus.Stats.InterconnectOccupancy
			occLAX += lax.Stats.InterconnectOccupancy
		}
		if occRelief >= occLAX {
			t.Errorf("RELIEF interconnect occupancy %.3f >= LAX %.3f", occRelief/10, occLAX/10)
		}
	})
}
