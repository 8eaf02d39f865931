// relief-validate is the artifact-style sanity checker: it verifies the
// calibrations and reproduction claims at runtime and prints PASS/FAIL per
// check — the quick way to confirm a build still reproduces the paper
// after local modifications (the test suite covers the same ground in
// depth; this is the 30-second summary).
package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"

	"relief/internal/accel"
	"relief/internal/ckpt"
	"relief/internal/design"
	"relief/internal/exp"
	"relief/internal/hostif"
	"relief/internal/sim"
	"relief/internal/workload"
)

type check struct {
	name string
	run  func() (string, error)
}

func main() {
	sweep := exp.NewSweep()
	checks := []check{
		{"compute calibration (Table II, per accelerator)", func() (string, error) {
			want := map[accel.Kind]float64{
				accel.CannyNonMax: 443.02, accel.Convolution: 1545.61,
				accel.EdgeTracking: 324.73, accel.ElemMatrix: 10.94,
				accel.Grayscale: 10.26, accel.HarrisNonMax: 105.01, accel.ISP: 34.88,
			}
			for k, us := range want {
				got := accel.ComputeTime(k, accel.OpDefault, 128*128, 5).Microseconds()
				if math.Abs(got-us) > 0.01 {
					return "", fmt.Errorf("%v: %.2fus, want %.2fus", k, got, us)
				}
			}
			return "7/7 accelerators exact", nil
		}},
		{"application compute totals (Table II, per app)", func() (string, error) {
			want := map[workload.App]float64{
				workload.Canny: 3539.37, workload.Deblur: 15610.58,
				workload.GRU: 1249.31, workload.Harris: 6157.30, workload.LSTM: 1470.02,
			}
			worst := 0.0
			for a, us := range want {
				var total float64
				for _, n := range workload.MustBuild(a).Nodes {
					total += n.Compute.Microseconds()
				}
				err := math.Abs(total-us) / us
				if err > worst {
					worst = err
				}
				if err > 0.005 {
					return "", fmt.Errorf("%v: %.1fus vs paper %.1fus", a, total, us)
				}
			}
			return fmt.Sprintf("worst error %.2f%%", 100*worst), nil
		}},
		{"structure sizes (Tables III/IV)", func() (string, error) {
			if hostif.NodeSize(1, 1) != 72 || hostif.NodeSize(2, 1) != 84 ||
				hostif.NodeSize(1, 2) != 76 {
				return "", fmt.Errorf("node layout arithmetic broken")
			}
			if hostif.AccStateBytes != 32 || hostif.TotalMetadataBytes(7) != 236 {
				return "", fmt.Errorf("acc_state layout broken")
			}
			return "72 B node, 32 B acc_state, 236 B platform", nil
		}},
		{"ED^2 designs track calibration (§IV-B)", func() (string, error) {
			for _, k := range design.Kernels() {
				p := design.Choose(k, design.DefaultSpace())
				cal := accel.ComputeTime(k.Kind, accel.OpDefault, 128*128, 5)
				r := float64(p.Latency) / float64(cal)
				if r < 0.5 || r > 2 {
					return "", fmt.Errorf("%v: DSE latency ratio %.2f", k.Kind, r)
				}
			}
			return "all designs within 2x", nil
		}},
		{"RELIEF maximizes forwarding (Obs. 1)", func() (string, error) {
			avg := func(p string) (float64, error) {
				sum := 0.0
				for _, mix := range workload.Mixes(workload.High) {
					res, err := sweep.Get(exp.Scenario{Mix: mix, Contention: workload.High, Policy: p})
					if err != nil {
						return 0, err
					}
					f, c := res.Stats.ForwardsPerEdge()
					sum += f + c
				}
				return sum / 10, nil
			}
			relief, err := avg("RELIEF")
			if err != nil {
				return "", err
			}
			best := 0.0
			for _, p := range []string{"FCFS", "GEDF-D", "GEDF-N", "LAX", "HetSched"} {
				v, err := avg(p)
				if err != nil {
					return "", err
				}
				if v > best {
					best = v
				}
				if relief <= v {
					return "", fmt.Errorf("RELIEF %.1f%% <= %s %.1f%%", relief, p, v)
				}
			}
			return fmt.Sprintf("RELIEF %.1f%% vs best baseline %.1f%%", relief, best), nil
		}},
		{"LAX starves Deblur, RELIEF does not (§V-E)", func() (string, error) {
			mix, _ := workload.ParseMix("CDL")
			lax, err := sweep.Get(exp.Scenario{Mix: mix, Contention: workload.Continuous, Policy: "LAX"})
			if err != nil {
				return "", err
			}
			rel, err := sweep.Get(exp.Scenario{Mix: mix, Contention: workload.Continuous, Policy: "RELIEF"})
			if err != nil {
				return "", err
			}
			if n := lax.Stats.Apps["deblur"].Iterations; n != 0 {
				return "", fmt.Errorf("LAX finished %d Deblur iterations", n)
			}
			if n := rel.Stats.Apps["deblur"].Iterations; n == 0 {
				return "", fmt.Errorf("RELIEF starved Deblur")
			}
			return "starvation under LAX only", nil
		}},
		{"checkpoint restore is bit-identical (docs/CHECKPOINT.md)", func() (string, error) {
			mix, _ := workload.ParseMix("CG")
			sc := exp.Scenario{
				Mix: mix, Contention: workload.Contention(len(mix)), Policy: "RELIEF",
				Period: 5 * sim.Millisecond, Horizon: 20 * sim.Millisecond,
			}
			env, err := exp.RunToCheckpoint(context.Background(), sc, 8*sim.Millisecond)
			if err != nil {
				return "", err
			}
			opened, err := ckpt.Open(env)
			if err != nil {
				return "", err
			}
			warm, err := exp.RunFromCheckpoint(context.Background(), sc, opened)
			if err != nil {
				return "", err
			}
			cold, err := exp.Run(sc)
			if err != nil {
				return "", err
			}
			var a, b bytes.Buffer
			if err := exp.WriteSummary(&a, sc, warm.Stats); err != nil {
				return "", err
			}
			if err := exp.WriteSummary(&b, sc, cold.Stats); err != nil {
				return "", err
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				return "", fmt.Errorf("restored run diverged from cold run")
			}
			return fmt.Sprintf("captured %v, summaries identical", sim.Time(opened.CapturedPs)), nil
		}},
		{"interval sampling tracks the full run (docs/CHECKPOINT.md)", func() (string, error) {
			mix, _ := workload.ParseMix("CG")
			sc := exp.Scenario{
				Mix: mix, Contention: workload.Contention(len(mix)), Policy: "RELIEF",
				Period: 5 * sim.Millisecond, Horizon: 100 * sim.Millisecond,
			}
			est, err := exp.RunSampled(context.Background(), sc, 4)
			if err != nil {
				return "", err
			}
			if !est.Sampled {
				return "", fmt.Errorf("sampler fell back to a full run (%s)", est.Fallback)
			}
			full, err := exp.Run(sc)
			if err != nil {
				return "", err
			}
			got, want := est.NodesDone.Estimate, float64(full.Stats.NodesDone)
			relErr := math.Abs(got-want) / want
			if relErr > 0.05 {
				return "", fmt.Errorf("nodes-done estimate %.0f vs full %.0f (%.2f%% error)", got, want, 100*relErr)
			}
			return fmt.Sprintf("%d windows, %.2f%% error (bound %.2f%%)",
				est.Windows, 100*relErr, 100*est.NodesDone.ErrorBound), nil
		}},
		{"determinism (two identical runs agree)", func() (string, error) {
			mix, _ := workload.ParseMix("CGL")
			sc := exp.Scenario{Mix: mix, Contention: workload.High, Policy: "RELIEF"}
			a, err := exp.Run(sc)
			if err != nil {
				return "", err
			}
			b, err := exp.Run(sc)
			if err != nil {
				return "", err
			}
			if a.Stats.Makespan != b.Stats.Makespan || a.Stats.Forwards != b.Stats.Forwards {
				return "", fmt.Errorf("runs diverged")
			}
			return fmt.Sprintf("makespan %v twice", a.Stats.Makespan), nil
		}},
	}

	failed := 0
	for _, c := range checks {
		detail, err := c.run()
		if err != nil {
			failed++
			fmt.Printf("FAIL  %-48s %v\n", c.name, err)
		} else {
			fmt.Printf("PASS  %-48s %s\n", c.name, detail)
		}
	}
	if failed > 0 {
		fmt.Printf("\n%d of %d checks failed\n", failed, len(checks))
		os.Exit(1)
	}
	fmt.Printf("\nall %d checks passed\n", len(checks))
}
