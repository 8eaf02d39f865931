// Benchmarks regenerating every table and figure of the paper's evaluation
// (run with `go test -bench=. -benchmem`), plus micro-benchmarks of the
// scheduling policies' host-side cost — the Go-level counterpart of the
// paper's Fig. 12 microcontroller measurements — and of the functional
// kernels.
//
// Each BenchmarkTableN / BenchmarkFigN measures the wall time of
// regenerating that experiment from scratch (all underlying simulations
// included, no cross-iteration caching), so `-bench` doubles as the full
// reproduction run. The rendered tables themselves come from
// cmd/relief-bench.
package relief_test

import (
	"fmt"
	"testing"

	"relief"
	"relief/internal/accel"
	"relief/internal/core"
	"relief/internal/design"
	"relief/internal/dram"
	"relief/internal/exp"
	"relief/internal/graph"
	"relief/internal/hostif"
	"relief/internal/kernels"
	"relief/internal/sched"
	"relief/internal/sim"
	"relief/internal/workload"
)

// ---- macro benchmarks: one per paper table/figure ----

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Table2(); err != nil {
			b.Fatal(err)
		}
	}
}

func benchLevels(b *testing.B, fn func(*exp.Sweep, workload.Contention) (*exp.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		s := exp.NewSweep()
		for _, lvl := range []workload.Contention{workload.Low, workload.Medium, workload.High, workload.Continuous} {
			if _, err := fn(s, lvl); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkFig4(b *testing.B) { benchLevels(b, exp.Fig4) }
func BenchmarkFig5(b *testing.B) { benchLevels(b, exp.Fig5) }
func BenchmarkFig7(b *testing.B) { benchLevels(b, exp.Fig7) }
func BenchmarkFig8(b *testing.B) { benchLevels(b, exp.Fig8) }

func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig6(exp.NewSweep()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := exp.Fig9(exp.NewSweep(), workload.High); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := exp.Fig9(exp.NewSweep(), workload.Continuous); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Table7(exp.NewSweep()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Table8(exp.NewSweep()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig11(exp.NewSweep()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig12(exp.NewSweep()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig13(exp.NewSweep()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Ablation(exp.NewSweep()); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- scenario benchmarks: simulation throughput per policy ----

func BenchmarkScenario(b *testing.B) {
	for _, policy := range []string{"FCFS", "LAX", "HetSched", "RELIEF"} {
		b.Run(policy, func(b *testing.B) {
			mix, _ := workload.ParseMix("CGL")
			for i := 0; i < b.N; i++ {
				if _, err := exp.Run(exp.Scenario{Mix: mix, Contention: workload.High, Policy: policy}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkScenarioContinuous(b *testing.B) {
	sc := exp.Scenario{Contention: workload.Continuous, Policy: "RELIEF"}
	sc.Mix, _ = workload.ParseMix("CGL")
	// The first run in a process also builds each app's template DAG once;
	// run it untimed so allocs/op is the per-scenario cost at every
	// -benchtime.
	if _, err := exp.Run(sc); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Run(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- micro benchmarks: host-side policy cost (cf. paper Fig. 12) ----

// queueOf builds a laxity-spread ready queue of n nodes.
func queueOf(n int) []*graph.Node {
	d := graph.New("bench", "B", 100*sim.Millisecond)
	var q []*graph.Node
	for i := 0; i < n; i++ {
		node := d.AddNode(fmt.Sprintf("n%d", i), accel.ElemMatrix, accel.OpAdd, 65536)
		node.Deadline = sim.Time(i+1) * sim.Millisecond
		node.PredRuntime = 100 * sim.Microsecond
		node.Laxity = node.Deadline - node.PredRuntime
		q = append(q, node)
	}
	return q
}

func BenchmarkSchedulerInsert(b *testing.B) {
	policies := []sched.Policy{
		sched.FCFS{}, sched.GEDFD{}, sched.GEDFN{}, sched.LL{}, sched.LAX{},
		sched.HetSched{}, core.New(),
	}
	for _, p := range policies {
		b.Run(p.Name(), func(b *testing.B) {
			q := queueOf(64)
			probe := queueOf(1)[0]
			probe.Deadline = 32 * sim.Millisecond
			probe.Laxity = probe.Deadline - probe.PredRuntime
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.InsertPos(q, probe, sim.Millisecond)
			}
		})
	}
}

func BenchmarkRELIEFEnqueueReady(b *testing.B) {
	r := core.New()
	base := queueOf(64)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		var store [accel.NumKinds][]*graph.Node
		var queues sched.Queues
		for k := range store {
			queues = append(queues, &store[k])
		}
		store[accel.ElemMatrix] = append([]*graph.Node(nil), base...)
		ready := queueOf(3)
		b.StartTimer()
		r.EnqueueReady(queues, ready, func(int) int { return 1 }, sim.Millisecond)
	}
}

// ---- kernel benchmarks ----

func BenchmarkKernelConvolve5x5(b *testing.B) {
	im := kernels.NewImage(128, 128)
	k := kernels.GaussianKernel(5, 1.4)
	b.SetBytes(128 * 128 * 4)
	for i := 0; i < b.N; i++ {
		kernels.Convolve(im, k)
	}
}

func BenchmarkKernelCannyPipeline(b *testing.B) {
	raw := make([]byte, 128*128)
	for i := range raw {
		raw[i] = byte(i * 31)
	}
	for i := 0; i < b.N; i++ {
		if _, err := kernels.Canny(raw, 128, 128, 0.05, 0.15); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelGRUCell(b *testing.B) {
	const hidden = 64
	w := &kernels.GRUWeights{
		Wz: kernels.RandMat(hidden, hidden, 1, 0.5), Uz: kernels.RandMat(hidden, hidden, 2, 0.5),
		Wr: kernels.RandMat(hidden, hidden, 3, 0.5), Ur: kernels.RandMat(hidden, hidden, 4, 0.5),
		Wh: kernels.RandMat(hidden, hidden, 5, 0.5), Uh: kernels.RandMat(hidden, hidden, 6, 0.5),
	}
	x := kernels.RandMat(16, hidden, 7, 1)
	h := kernels.NewMat(16, hidden)
	for i := 0; i < b.N; i++ {
		h = kernels.GRUCell(w, x, h)
	}
}

// BenchmarkSimulatorEventRate measures raw discrete-event throughput.
func BenchmarkSimulatorEventRate(b *testing.B) {
	k := sim.NewKernel()
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < b.N {
			k.Schedule(sim.Nanosecond, tick)
		}
	}
	k.Schedule(0, tick)
	k.Run()
}

// BenchmarkFullSystemRELIEF measures one CGL high-contention simulation via
// the public API.
func BenchmarkFullSystemRELIEF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys := relief.NewSystem(relief.Config{Policy: "RELIEF"})
		for _, app := range []string{"canny", "gru", "lstm"} {
			d, err := relief.BuildWorkload(app)
			if err != nil {
				b.Fatal(err)
			}
			if err := sys.Submit(d, 0); err != nil {
				b.Fatal(err)
			}
		}
		sys.Run()
	}
}

// ---- extension-study and substrate benchmarks ----

func BenchmarkDRAMStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.DRAMStudy(exp.NewSweep()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPeriodicStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.PeriodicStudy(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTiledStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.TiledStudy(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEnergyStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.EnergyStudy(exp.NewSweep()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFaultStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.FaultStudy(exp.NewSweep()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScalingStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.ScalingStudy(exp.NewSweep()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAttributionStudy runs the CGL latency decomposition under every
// Fig. 4 policy with telemetry on, as relief-bench -exp attribution does.
func BenchmarkAttributionStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := exp.AttributionStudy("CGL", exp.PolicyNames, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDRAMController measures the bank-level controller's burst
// scheduling throughput.
func BenchmarkDRAMController(b *testing.B) {
	k := sim.NewKernel()
	c := dram.NewController(k, "dram", dram.LPDDR5())
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		c.Enqueue(4096, func() {})
	}
	k.Run()
}

// BenchmarkDesignSweep measures the full FU x ports ED^2 exploration for
// all seven accelerators.
func BenchmarkDesignSweep(b *testing.B) {
	sp := design.DefaultSpace()
	for i := 0; i < b.N; i++ {
		for _, k := range design.Kernels() {
			design.Choose(k, sp)
		}
	}
}

// BenchmarkEncodeDAG measures host-interface serialisation of the largest
// benchmark DAG.
func BenchmarkEncodeDAG(b *testing.B) {
	d := workload.MustBuild(workload.LSTM)
	for i := 0; i < b.N; i++ {
		if _, _, err := hostif.EncodeDAG(d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeDAG(b *testing.B) {
	img, _, err := hostif.EncodeDAG(workload.MustBuild(workload.LSTM))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(img)))
	for i := 0; i < b.N; i++ {
		if _, err := hostif.DecodeDAG(img); err != nil {
			b.Fatal(err)
		}
	}
}
