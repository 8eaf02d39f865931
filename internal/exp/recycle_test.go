package exp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"relief/internal/ckpt"
	"relief/internal/fault"
	"relief/internal/graph"
	"relief/internal/metrics"
	"relief/internal/sim"
	"relief/internal/trace"
	"relief/internal/workload"
)

// recycleCase is one cell of the recycling differential test: a scenario
// run cold, or warmed to a checkpoint at warmAt and restored.
type recycleCase struct {
	name   string
	sc     Scenario
	warmAt sim.Time // 0: a cold run
}

// recycleCases returns every continuous mix under every policy, mixes that
// run one application twice, periodic cells that quiesce and cells whose
// iterations overlap, fault plans that retry, kill instances and abort
// DAGs, write-backs still queued when their DAG finishes, and checkpoint
// round trips.
func recycleCases(t *testing.T) []recycleCase {
	t.Helper()
	var cases []recycleCase
	add := func(sc Scenario, warmAt sim.Time) {
		syms := ""
		for _, a := range sc.Mix {
			syms += a.Sym()
		}
		name := fmt.Sprintf("%s/%s/%s/p=%v/h=%v/faults=%s/awb=%v/warm=%v", sc.Contention, syms, sc.Policy,
			sc.Period, sc.Horizon, sc.Faults.AppendKey(nil), sc.Platform.AlwaysWriteBack, warmAt)
		cases = append(cases, recycleCase{name, sc, warmAt})
	}
	for _, mix := range workload.Mixes(workload.Continuous) {
		for _, p := range FairnessPolicyNames {
			add(Scenario{Mix: mix, Contention: workload.Continuous, Policy: p}, 0)
		}
	}
	mix := func(syms string) []workload.App {
		m, err := workload.ParseMix(syms)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	// Two copies of one application share its free list, so one copy can
	// reuse a DAG the other retired a moment before.
	for _, syms := range []string{"CCG", "GGL", "LLD", "DDH"} {
		for _, p := range []string{"RELIEF", "FCFS", "LAX", "GEDF-D"} {
			add(Scenario{Mix: mix(syms), Contention: workload.Continuous, Policy: p}, 0)
		}
	}
	for _, syms := range []string{"CG", "CGL", "DGH", "CCG", "LLD"} {
		for _, period := range []sim.Time{sim.Millisecond, 2 * sim.Millisecond, 5 * sim.Millisecond} {
			for _, p := range []string{"RELIEF", "FCFS", "LAX"} {
				add(Scenario{Mix: mix(syms), Contention: workload.Contention(len(syms)), Policy: p,
					Period: period, Horizon: 20 * sim.Millisecond}, 0)
			}
		}
	}
	plans := []*fault.Plan{
		fault.Profile(0.05, 7),
		fault.Profile(0.2, 11),
		// Instance 0, the only ISP, dies: every DAG still needing it aborts.
		{Seed: 3, DieAt: map[int]sim.Time{0: 4 * sim.Millisecond}},
	}
	for _, plan := range plans {
		for _, p := range []string{"RELIEF", "GEDF-D"} {
			add(Scenario{Mix: mix("CGL"), Contention: workload.Continuous, Policy: p, Faults: plan}, 0)
			add(Scenario{Mix: mix("CGL"), Contention: 3, Policy: p, Faults: plan,
				Period: 2 * sim.Millisecond, Horizon: 20 * sim.Millisecond}, 0)
		}
	}
	for _, sc := range lateWritebackCells(t) {
		add(sc, 0)
	}
	for _, cell := range []struct {
		syms   string
		period sim.Time
	}{{"CG", 5 * sim.Millisecond}, {"CGL", 10 * sim.Millisecond}} {
		for _, plan := range []*fault.Plan{nil, fault.Profile(0.05, 5)} {
			sc := Scenario{Mix: mix(cell.syms), Contention: workload.Contention(len(cell.syms)), Policy: "RELIEF",
				Faults: plan, Period: cell.period, Horizon: 6 * cell.period}
			add(sc, 2*cell.period-sim.Millisecond)
		}
	}
	return cases
}

// lateWritebackCells returns continuous cells in which an intermediate's
// write-back can still be queued when its DAG's last leaf finishes: every
// intermediate is written back and some DMAs stall for a millisecond.
func lateWritebackCells(t *testing.T) []Scenario {
	t.Helper()
	var cells []Scenario
	for seed := int64(1); seed <= 4; seed++ {
		plan := &fault.Plan{Seed: seed, Rates: fault.Rates{DMAStall: 0.1, DMAStallTime: sim.Millisecond}}
		for _, syms := range []string{"CGL", "CDG", "CGH", "CCG"} {
			mix, err := workload.ParseMix(syms)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []string{"FCFS", "GEDF-D"} {
				cells = append(cells, Scenario{Mix: mix, Contention: workload.Continuous, Policy: p, Faults: plan,
					Platform: PlatformSpec{AlwaysWriteBack: true}})
			}
		}
	}
	return cells
}

// recycleFingerprint runs one case and renders everything the
// differential test compares: the digest line with every recovery
// counter, the kernel's event count, and the metrics JSON summary.
func recycleFingerprint(t *testing.T, c recycleCase) string {
	t.Helper()
	ctx := context.Background()
	sc := c.sc
	var res *Result
	var err error
	if c.warmAt > 0 {
		var env []byte
		if env, err = RunToCheckpoint(ctx, sc, c.warmAt); err != nil {
			t.Fatalf("%s: RunToCheckpoint: %v", c.name, err)
		}
		var opened *ckpt.Envelope
		if opened, err = ckpt.Open(env); err != nil {
			t.Fatalf("%s: ckpt.Open: %v", c.name, err)
		}
		res, err = RunFromCheckpoint(ctx, sc, opened)
	} else {
		sc.Metrics = metrics.NewRegistry()
		res, err = Run(sc)
	}
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	var js bytes.Buffer
	if sc.Metrics != nil {
		if err := sc.Metrics.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
	}
	return faultDigestLine(sc, res) + fmt.Sprintf("events=%d\n", res.Stats.EventsFired) + js.String()
}

// TestRecyclingChangesNoResult: reusing retired DAGs changes nothing a run
// reports. Every case runs with recycling off, where each clone is fresh,
// then again with it on, in one sequence, so DAGs retired by one run are
// also reused by the next. A partition or LastNode still pointing into a
// reused DAG, or a DAG reused while a DMA job still refers to it, shows up
// here as a different digest, event count or metric.
func TestRecyclingChangesNoResult(t *testing.T) {
	if testing.Short() {
		t.Skip("recycling differential grid in -short mode")
	}
	cases := recycleCases(t)
	prev := graph.SetRecycling(false)
	off := make([]string, len(cases))
	for i, c := range cases {
		off[i] = recycleFingerprint(t, c)
	}
	graph.SetRecycling(true)
	defer graph.SetRecycling(prev)
	for i, c := range cases {
		if on := recycleFingerprint(t, c); on != off[i] {
			t.Errorf("%s: recycling changed the run:\noff: %.400s\non:  %.400s", c.name, off[i], on)
		}
	}
}

// TestRecyclingAcrossSweepWorkers: sweep workers share every template's
// free list and the free list of finished simulations, so a DAG one
// worker's run retires, or frees when the run ends, may be reused by the
// other's at once, and a Sim one worker puts back is the next one the
// other takes. Two workers over the continuous cells, late write-backs
// included, periodic cells whose horizon cuts iterations in flight, and
// cells on the crossbar and the detailed DRAM controller give the same
// results as cold runs, one at a time, with no DAG recycled. Run it under
// -race: a DAG freed while a DMA job still refers to it, or a Sim put back
// while its run still writes to it, is written by one worker after the
// other has taken it.
func TestRecyclingAcrossSweepWorkers(t *testing.T) {
	grid := lateWritebackCells(t)
	for _, sc := range MainGrid() {
		if sc.Contention == workload.Continuous {
			grid = append(grid, sc)
		}
	}
	for _, syms := range []string{"CGL", "CCG", "DGH"} {
		mix, err := workload.ParseMix(syms)
		if err != nil {
			t.Fatal(err)
		}
		for _, period := range []sim.Time{sim.Millisecond, 2 * sim.Millisecond} {
			for _, p := range []string{"RELIEF", "FCFS"} {
				grid = append(grid, Scenario{Mix: mix, Contention: workload.Contention(len(syms)), Policy: p,
					Period: period, Horizon: 20*sim.Millisecond + period/2})
			}
		}
		for _, plat := range []PlatformSpec{{Topology: "xbar"}, {DetailedDRAM: true}, {DetailedDRAM: true, DRAMPolicy: "fcfs"}} {
			for _, p := range []string{"RELIEF", "LAX"} {
				grid = append(grid, Scenario{Mix: mix, Contention: workload.High, Policy: p, Platform: plat})
			}
		}
	}
	var want, got bytes.Buffer
	prev := graph.SetRecycling(false)
	for _, sc := range grid {
		r := coldRun(t, sc)
		fmt.Fprintf(&want, "ev=%d %s", r.Stats.EventsFired, faultDigestLine(sc, r))
	}
	graph.SetRecycling(true)
	defer graph.SetRecycling(prev)
	recycled, _ := SimCounts()
	s := NewSweep()
	s.Warm(grid, 2)
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	for _, sc := range grid {
		r, err := s.Get(sc)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "ev=%d %s", r.Stats.EventsFired, faultDigestLine(sc, r))
	}
	if got.String() != want.String() {
		t.Errorf("two recycling workers diverged from cold runs without recycling:\ngot  %.400s\nwant %.400s", got.String(), want.String())
	}
	if r, _ := SimCounts(); r-recycled < int64(len(grid)/2) {
		t.Errorf("two workers recycled %d Sims over %d cells", r-recycled, len(grid))
	}
}

// TestRepeatedRunsCloneNothingCold: the end of a run frees every iteration
// still live, so running the same looping scenario again reuses them all,
// and each periodic DAG schedules its releases through one bound record,
// not a closure per release. A second continuous CGL run and a periodic
// CGL run whose iterations overlap at the horizon each stay within an
// allocation bound measured once finished simulations were recycled and
// periodic releases lost their closures (24 and 127). Before that they
// made 211 and 455 (234 and 815 when every run cold-cloned the iterations
// the previous one left live). Most of the periodic run's remainder is
// iterations cold-cloned past the 16 DAGs a shape's free list keeps. The
// periodic study's own runner (runPeriodic, one period per application's
// deadline, on a cold simulation) is held the same way: 244 allocations,
// 261 with a closure per release, 302 without the end-of-run free.
func TestRepeatedRunsCloneNothingCold(t *testing.T) {
	mix, err := workload.ParseMix("CGL")
	if err != nil {
		t.Fatal(err)
	}
	scenario := func(sc Scenario) func() error {
		return func() error { _, err := Run(sc); return err }
	}
	for _, c := range []struct {
		name      string
		run       func() error
		maxAllocs float64
	}{
		{"continuous", scenario(Scenario{Mix: mix, Contention: workload.Continuous, Policy: "RELIEF"}), 30},
		{"periodic", scenario(Scenario{Mix: mix, Contention: 3, Policy: "RELIEF",
			Period: sim.Millisecond, Horizon: 20 * sim.Millisecond}), 140},
		{"periodic study", func() error { _, err := runPeriodic("RELIEF", mix); return err }, 255},
	} {
		allocs := testing.AllocsPerRun(100, func() {
			if err := c.run(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %v allocations per run", c.name, allocs)
		if allocs > c.maxAllocs {
			t.Errorf("%s: a repeated run made %v allocations, want at most %v", c.name, allocs, c.maxAllocs)
		}
	}
}

// coldRun runs sc on a simulation built for it, as RunContext did before
// finished simulations were recycled.
func coldRun(t *testing.T, sc Scenario) *Result {
	t.Helper()
	cfg, err := sc.managerConfig()
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewSim(cfg).runScenario(context.Background(), sc)
	if err != nil {
		t.Fatalf("%s: %v", ScenarioKey(sc), err)
	}
	return r
}

// runDigest renders what a recycled run must reproduce bit for bit: the
// digest line, the kernel's event count and the DRAM row-hit rate's bits.
func runDigest(sc Scenario, r *Result) string {
	return fmt.Sprintf("%sevents=%d rowhit=%016x", scenarioDigestLine(sc, r), r.Stats.EventsFired, math.Float64bits(r.RowHitRate))
}

// simState renders the state a Sim on the free list carries into its next
// run: the kernel's clock, sequence number and counters, the accounting of
// every link, of the DRAM resource or of every bank and channel of the
// detailed controller, and every instance's run state. A reset Sim must
// render exactly as a new one.
func simState(t *testing.T, s *Sim) string {
	t.Helper()
	k, m := s.Kernel, s.Manager
	out := fmt.Sprintf("kernel %+v fired=%d pending=%d allocs=%d\n", k.CaptureState(), k.Fired(), k.Pending(), k.EventAllocs())
	ic, err := m.Interconnect().CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	out += fmt.Sprintf("links %+v occupancy %+v", ic.Links, ic.Occ)
	if ic.DRAM != nil {
		out += fmt.Sprintf(" dram %+v", *ic.DRAM)
	}
	out += "\n"
	if dc := m.DRAMController(); dc != nil {
		st, err := dc.CaptureState()
		if err != nil {
			t.Fatal(err)
		}
		out += fmt.Sprintf("dram %+v queued=%d\n", st, dc.QueueLen())
	}
	for _, inst := range m.Instances() {
		out += fmt.Sprintf("%s busy=%v next=%d compute=%d health=%v last=%v", inst.Lane(), inst.Busy, inst.NextPart,
			inst.ComputeBusy, inst.Health, inst.LastNode != nil)
		for _, p := range inst.Parts {
			out += fmt.Sprintf(" [%v %d]", p.Node != nil, p.OngoingReads)
		}
		out += "\n"
	}
	return out
}

// pooledSims returns a copy of the free list of finished simulations.
func pooledSims() []*Sim {
	freeSims.mu.Lock()
	defer freeSims.mu.Unlock()
	return slices.Clone(freeSims.sims)
}

// midwayCtx reads as live when Drive starts a run and as cancelled from
// the kernel's first interrupt poll on, so the run stops a few thousand
// events in, with transfers, DRAM requests and events in flight.
type midwayCtx struct {
	context.Context
	done  chan struct{}
	polls int
}

func newMidwayCtx() *midwayCtx {
	c := &midwayCtx{Context: context.Background(), done: make(chan struct{})}
	close(c.done)
	return c
}

func (c *midwayCtx) Done() <-chan struct{} { return c.done }

func (c *midwayCtx) Err() error {
	if c.polls++; c.polls == 1 {
		return nil
	}
	return context.Canceled
}

// TestRecycledSimMatchesCold: a run on a recycled simulation reports
// exactly what a cold run of its scenario reports. A seeded shuffle runs
// every scenario twice through RunContext, so each runs on a Sim an
// earlier scenario of its platform left on the free list: every contention
// level, periodic cells whose horizon cuts iterations in flight, the
// detailed DRAM controller under FR-FCFS, FCFS and two channels, the
// crossbar, and the bandwidth and data-movement predictors. Between them
// run a cancelled run, which must not return its Sim, and runs with
// metrics, a trace or a fault plan, which must bypass the list. After
// every plain run the Sim it put back must carry the state of a new one.
func TestRecycledSimMatchesCold(t *testing.T) {
	mix := func(syms string) []workload.App {
		m, err := workload.ParseMix(syms)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	var cells []Scenario
	for _, lvl := range []workload.Contention{workload.Low, workload.Medium, workload.High, workload.Continuous} {
		for i, m := range workload.Mixes(lvl) {
			if i%3 == 0 {
				for _, p := range []string{"RELIEF", "FCFS", "LAX", "HetSched"} {
					cells = append(cells, Scenario{Mix: m, Contention: lvl, Policy: p})
				}
			}
		}
	}
	for _, c := range []struct {
		syms           string
		period, horizn sim.Time
	}{{"CGL", sim.Millisecond, 20*sim.Millisecond + sim.Millisecond/2}, {"DGH", 2 * sim.Millisecond, 15 * sim.Millisecond}} {
		for _, p := range []string{"RELIEF", "GEDF-D"} {
			cells = append(cells, Scenario{Mix: mix(c.syms), Contention: workload.Contention(len(c.syms)), Policy: p,
				Period: c.period, Horizon: c.horizn})
		}
	}
	for _, plat := range []PlatformSpec{
		{DetailedDRAM: true},
		{DetailedDRAM: true, DRAMPolicy: "fcfs"},
		{DetailedDRAM: true, DRAMChannels: 2},
		{Topology: "xbar"},
		{BWPredictor: "last"},
		{BWPredictor: "average"},
		{BWPredictor: "ewma", PredictDM: true},
	} {
		for _, c := range []struct {
			syms string
			lvl  workload.Contention
		}{{"CGL", workload.Continuous}, {"CDGH", workload.High}} {
			for _, p := range []string{"RELIEF", "GEDF-N"} {
				cells = append(cells, Scenario{Mix: mix(c.syms), Contention: c.lvl, Policy: p, Platform: plat})
			}
		}
	}
	want := make([]string, len(cells))
	for i, sc := range cells {
		want[i] = runDigest(sc, coldRun(t, sc))
	}
	fresh := map[string]string{}
	paper := Scenario{Mix: mix("CGL"), Contention: workload.Continuous, Policy: "RELIEF"}
	bypass := []struct {
		name string
		sc   Scenario
	}{
		{"metrics", Scenario{Mix: paper.Mix, Contention: paper.Contention, Policy: paper.Policy, Metrics: metrics.NewRegistry()}},
		{"trace", Scenario{Mix: paper.Mix, Contention: paper.Contention, Policy: paper.Policy, Trace: trace.NewRecorder()}},
		{"faults", Scenario{Mix: paper.Mix, Contention: paper.Contention, Policy: paper.Policy, Faults: fault.Profile(0.05, 7)}},
	}

	rng := rand.New(rand.NewSource(1))
	order := append(rng.Perm(len(cells)), rng.Perm(len(cells))...)
	disturbAt := map[int]int{}
	for d, step := range rng.Perm(len(order))[:len(bypass)+1] {
		disturbAt[step] = d
	}
	for step, i := range order {
		sc := cells[i]
		res, err := RunContext(context.Background(), sc)
		if err != nil {
			t.Fatalf("%s: %v", ScenarioKey(sc), err)
		}
		if got := runDigest(sc, res); got != want[i] {
			t.Errorf("step %d, %s: a recycled run differs from a cold one:\ngot  %.600s\nwant %.600s", step, ScenarioKey(sc), got, want[i])
		}
		pool := pooledSims()
		s := pool[len(pool)-1]
		cfg, err := sc.managerConfig()
		if err != nil {
			t.Fatal(err)
		}
		key := string(appendPlatformKey(nil, cfg))
		if s.key != key {
			t.Fatalf("step %d: the newest free Sim has key %q, want %q", step, s.key, key)
		}
		if _, ok := fresh[key]; !ok {
			fresh[key] = simState(t, NewSim(cfg))
		}
		if got := simState(t, s); got != fresh[key] {
			t.Errorf("step %d, %s: a reset Sim differs from a new one:\ngot  %s\nwant %s", step, ScenarioKey(sc), got, fresh[key])
		}

		d, ok := disturbAt[step]
		if !ok {
			continue
		}
		if d == len(bypass) {
			// A run cancelled mid-way takes the Sim a plain run of its
			// platform just put back, and drops it.
			if _, err := RunContext(context.Background(), paper); err != nil {
				t.Fatal(err)
			}
			before := pooledSims()
			recycled, cold := SimCounts()
			if _, err := RunContext(newMidwayCtx(), paper); !errors.Is(err, context.Canceled) {
				t.Fatalf("step %d: a run cancelled mid-way returned %v", step, err)
			}
			r, c := SimCounts()
			if after := pooledSims(); r != recycled+1 || c != cold || !slices.Equal(after, before[:len(before)-1]) {
				t.Errorf("step %d: the cancelled run went %d recycled, %d cold, and left %d of %d Sims on the free list",
					step, r-recycled, c-cold, len(after), len(before))
			}
			continue
		}
		recycled, cold := SimCounts()
		b := bypass[d]
		before := pooledSims()
		if _, err := RunContext(context.Background(), b.sc); err != nil {
			t.Fatalf("step %d, %s: %v", step, b.name, err)
		}
		r, c := SimCounts()
		if r != recycled || c != cold+1 || !slices.Equal(pooledSims(), before) {
			t.Errorf("step %d: a run with %s did not bypass the free list (%d recycled, %d cold)", step, b.name, r-recycled, c-cold)
		}
	}
}
