// Package stats collects the metrics the paper's evaluation reports:
// forwards and colocations per edge (Fig. 4), data-movement breakdown
// (Fig. 5), memory energy (Fig. 6), accelerator occupancy (Fig. 7), node
// and DAG deadlines met (Figs. 8-10), slowdown (Figs. 9-10), predictor
// accuracy (Table VIII), scheduler latency (Fig. 12), and interconnect
// occupancy (Fig. 13).
package stats

import (
	"math"
	"sort"

	"relief/internal/sim"
)

// Memory energy constants (J/byte). Absolute values are first-order
// (LPDDR5 core+IO ≈ 5 pJ/bit; SRAM scratchpad access ≈ 0.15 pJ/bit); the
// paper's Fig. 6 is normalised to LAX, so only the DRAM:SPAD ratio and the
// traffic counts shape the result.
const (
	EnergyDRAMPerByte = 40e-12
	EnergySPADPerByte = 1.2e-12
)

// EdgeKind classifies how a producer/consumer edge materialised.
type EdgeKind uint8

// Edge materialisations.
const (
	EdgeDRAM       EdgeKind = iota // store to + load from main memory
	EdgeForward                    // SPAD-to-SPAD transfer
	EdgeColocation                 // consumer ran on the producer's accelerator
)

// AppStats aggregates per-application results within a scenario.
type AppStats struct {
	App      string
	Sym      string
	Deadline sim.Time

	Iterations   int // finished DAG instances
	DeadlinesMet int // finished DAG instances that met their deadline
	Runtimes     []sim.Time

	NodesDone        int
	NodesMetDeadline int

	Edges       int
	Forwards    int
	Colocations int

	// Aborted counts DAG instances cancelled by the recovery machinery
	// (fault injection only; see Stats.Faults).
	Aborted int
}

// Slowdown is the ratio of the application's runtime to its deadline
// (paper Fig. 9a). Under continuous contention it is the geometric mean
// over finished iterations; +Inf indicates starvation (no finished
// iterations). Callers that aggregate or serialize slowdowns must not
// feed the +Inf sentinel into means or JSON (encoding/json rejects
// non-finite floats): use FiniteSlowdown / Starved and skip or flag
// starved applications explicitly.
func (a *AppStats) Slowdown() float64 {
	if a.Starved() {
		return math.Inf(1)
	}
	logSum := 0.0
	for _, r := range a.Runtimes {
		s := float64(r) / float64(a.Deadline)
		if s <= 0 {
			s = 1e-9
		}
		logSum += math.Log(s)
	}
	return math.Exp(logSum / float64(len(a.Runtimes)))
}

// Starved reports whether the application finished no iterations, i.e. its
// slowdown is undefined (+Inf).
func (a *AppStats) Starved() bool { return len(a.Runtimes) == 0 }

// FiniteSlowdown returns the application's slowdown and true, or (0,
// false) for a starved application — the aggregation-safe accessor:
// the boolean forces call sites to decide how starvation is represented
// instead of silently propagating +Inf into geomeans and JSON exports.
func (a *AppStats) FiniteSlowdown() (float64, bool) {
	if a.Starved() {
		return 0, false
	}
	return a.Slowdown(), true
}

// Stats is the per-scenario metric sink.
type Stats struct {
	Apps map[string]*AppStats

	// Edge materialisation counts.
	Edges       int
	Forwards    int
	Colocations int

	// Traffic in bytes.
	BaselineBytes  int64 // all loads and stores via main memory (Fig. 5 denominator)
	DRAMReadBytes  int64
	DRAMWriteBytes int64
	SpadXferBytes  int64 // SPAD-to-SPAD forwards
	SpadDMABytes   int64 // scratchpad bytes touched by DMA (energy accounting)

	// Deadlines.
	NodesDone        int
	NodesMetDeadline int

	// Accelerator compute busy time, summed over instances.
	ComputeBusy sim.Time

	// Makespan: initiation of all applications to completion of the last
	// (or the continuous-contention horizon).
	Makespan sim.Time

	// Interconnect occupancy at end of run (0..1).
	InterconnectOccupancy float64

	// Simulator cost counters (not simulation results): events the kernel
	// dispatched for this run and Event structs it heap-allocated. These
	// feed the benchmark harness and deliberately stay out of the golden
	// result digest.
	EventsFired uint64
	EventAllocs uint64

	// Scheduler latency (modeled microcontroller cost per ready-queue
	// operation): sample count, integer sum and maximum, recorded by
	// ObserveSched. Constant size however long the run.
	SchedOps int
	SchedSum sim.Time
	SchedMax sim.Time

	// Predictor error accounting.
	PredErr PredErr

	// Fault injection and recovery accounting (all zero unless a
	// fault.Plan is installed; see docs/FAULTS.md). These fields stay out
	// of the golden result digest.
	Faults FaultStats
}

// FaultStats tallies injected faults and the recovery work they caused.
type FaultStats struct {
	// Injected faults, by class.
	Hangs          int // tasks that never signalled completion
	Slowdowns      int // tasks with degraded compute time
	TransientFails int // tasks whose result failed its completion check
	InstanceDeaths int // accelerator instances permanently lost
	DMAStalls      int // transfers hit by a front-end stall
	DMACorruptions int // transfers delivered with a CRC failure
	DRAMErrors     int // main-memory requests hit by an error burst

	// Recovery work.
	WatchdogFires       int   // watchdog expirations that triggered recovery
	Retries             int   // task re-dispatch attempts
	InvalidatedForwards int   // forwarded/colocated inputs forced back to DRAM
	DAGsAborted         int   // DAG instances cancelled
	RetriedDMABytes     int64 // bytes re-transferred after corruption
	RecoveryDRAMBytes   int64 // extra write-back traffic to preserve inputs for retries

	// MTTR accounting: RecoveryTime sums first-failure-to-completion
	// latency over the Recoveries nodes that eventually succeeded.
	RecoveryTime sim.Time
	Recoveries   int
}

// Any reports whether any fault was injected.
func (f *FaultStats) Any() bool {
	return f.Hangs > 0 || f.Slowdowns > 0 || f.TransientFails > 0 ||
		f.InstanceDeaths > 0 || f.DMAStalls > 0 || f.DMACorruptions > 0 ||
		f.DRAMErrors > 0
}

// MTTR returns the mean time from a node's first failure to its eventual
// successful completion (0 if nothing recovered).
func (f *FaultStats) MTTR() sim.Time {
	if f.Recoveries == 0 {
		return 0
	}
	return f.RecoveryTime / sim.Time(f.Recoveries)
}

// PredErr accumulates signed relative errors for Table VIII.
type PredErr struct {
	ComputeN         int
	ComputeSumSigned float64
	ComputeSumAbs    float64
	DMBytesN         int
	DMBytesSumSigned float64
	DMBytesSumAbs    float64
	MemTimeN         int
	MemTimeSumSigned float64
	MemTimeSumAbs    float64
	BWN              int
	BWSumSigned      float64
	BWSumAbs         float64
}

// Add records a signed relative error sample (predicted vs actual).
func addErr(n *int, sumS, sumA *float64, pred, actual float64) {
	if actual == 0 {
		return
	}
	e := (pred - actual) / actual
	*n++
	*sumS += e
	*sumA += math.Abs(e)
}

// ObserveCompute records a compute-time prediction sample.
func (p *PredErr) ObserveCompute(pred, actual sim.Time) {
	addErr(&p.ComputeN, &p.ComputeSumSigned, &p.ComputeSumAbs, float64(pred), float64(actual))
}

// ObserveDMBytes records a data-movement-bytes prediction sample.
func (p *PredErr) ObserveDMBytes(pred, actual int64) {
	addErr(&p.DMBytesN, &p.DMBytesSumSigned, &p.DMBytesSumAbs, float64(pred), float64(actual))
}

// ObserveMemTime records a memory-access-time prediction sample.
func (p *PredErr) ObserveMemTime(pred, actual sim.Time) {
	addErr(&p.MemTimeN, &p.MemTimeSumSigned, &p.MemTimeSumAbs, float64(pred), float64(actual))
}

// ObserveBW records a bandwidth prediction sample (predicted at insertion
// vs achieved by the node's main-memory transfers).
func (p *PredErr) ObserveBW(pred, actual float64) {
	addErr(&p.BWN, &p.BWSumSigned, &p.BWSumAbs, pred, actual)
}

// MeanSigned returns the mean signed relative errors in percent
// (compute, dmBytes, memTime).
func (p *PredErr) MeanSigned() (compute, dmBytes, memTime float64) {
	return meanPct(p.ComputeN, p.ComputeSumSigned),
		meanPct(p.DMBytesN, p.DMBytesSumSigned),
		meanPct(p.MemTimeN, p.MemTimeSumSigned)
}

// MeanSignedBW returns the mean signed bandwidth prediction error in
// percent (positive = overestimation of achieved bandwidth).
func (p *PredErr) MeanSignedBW() float64 { return meanPct(p.BWN, p.BWSumSigned) }

func meanPct(n int, s float64) float64 {
	if n == 0 {
		return 0
	}
	return 100 * s / float64(n)
}

// New returns an empty metric sink.
func New() *Stats {
	return &Stats{Apps: make(map[string]*AppStats)}
}

// App returns (creating if needed) the per-application bucket.
func (s *Stats) App(app, sym string, deadline sim.Time) *AppStats {
	a, ok := s.Apps[app]
	if !ok {
		a = &AppStats{App: app, Sym: sym, Deadline: deadline}
		s.Apps[app] = a
	}
	return a
}

// AppNames returns the application names in sorted order.
func (s *Stats) AppNames() []string {
	names := make([]string, 0, len(s.Apps))
	for name := range s.Apps {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// RecordEdge classifies one producer/consumer edge.
func (s *Stats) RecordEdge(app *AppStats, kind EdgeKind) {
	s.Edges++
	app.Edges++
	switch kind {
	case EdgeForward:
		s.Forwards++
		app.Forwards++
	case EdgeColocation:
		s.Colocations++
		app.Colocations++
	}
}

// ForwardsPerEdge returns forwards/edges and colocations/edges in percent
// (Fig. 4 metric).
func (s *Stats) ForwardsPerEdge() (fwd, col float64) {
	if s.Edges == 0 {
		return 0, 0
	}
	return 100 * float64(s.Forwards) / float64(s.Edges),
		100 * float64(s.Colocations) / float64(s.Edges)
}

// DataMovement returns the Fig. 5 breakdown in percent of the
// all-through-DRAM baseline: main-memory traffic, SPAD-to-SPAD traffic.
// The remainder (to 100%) is traffic eliminated by colocation and skipped
// write-backs.
func (s *Stats) DataMovement() (dramPct, spadPct float64) {
	if s.BaselineBytes == 0 {
		return 0, 0
	}
	b := float64(s.BaselineBytes)
	return 100 * float64(s.DRAMReadBytes+s.DRAMWriteBytes) / b,
		100 * float64(s.SpadXferBytes) / b
}

// MemoryEnergy returns (dramJoules, spadJoules).
func (s *Stats) MemoryEnergy() (dram, spad float64) {
	return float64(s.DRAMReadBytes+s.DRAMWriteBytes) * EnergyDRAMPerByte,
		float64(s.SpadDMABytes) * EnergySPADPerByte
}

// Occupancy returns the accelerator occupancy: total compute busy time over
// makespan (Fig. 7; can exceed 1 with accelerator-level parallelism).
func (s *Stats) Occupancy() float64 {
	if s.Makespan <= 0 {
		return 0
	}
	return float64(s.ComputeBusy) / float64(s.Makespan)
}

// NodeDeadlinePct returns the percentage of finished nodes that met their
// deadline (Fig. 8).
func (s *Stats) NodeDeadlinePct() float64 {
	if s.NodesDone == 0 {
		return 0
	}
	return 100 * float64(s.NodesMetDeadline) / float64(s.NodesDone)
}

// DAGDeadlinePct returns the percentage of finished DAG instances that met
// their deadline (Figs. 9b, 10b).
func (s *Stats) DAGDeadlinePct() float64 {
	total, met := 0, 0
	for _, a := range s.Apps {
		total += a.Iterations
		met += a.DeadlinesMet
	}
	if total == 0 {
		return 0
	}
	return 100 * float64(met) / float64(total)
}

// ObserveSched records one ready-queue operation's modeled scheduler cost.
func (s *Stats) ObserveSched(c sim.Time) {
	s.SchedOps++
	s.SchedSum += c
	if c > s.SchedMax {
		s.SchedMax = c
	}
}

// SchedLatency returns the average and maximum modeled scheduler cost
// (Fig. 12: average and tail latency).
func (s *Stats) SchedLatency() (avg, tail sim.Time) {
	if s.SchedOps == 0 {
		return 0, 0
	}
	return s.SchedSum / sim.Time(s.SchedOps), s.SchedMax
}

// SlowdownGeomean returns the geometric mean of per-application slowdowns
// across the scenario (the Fig. 10a headline number) together with the
// count of starved applications that were excluded. A single starved
// application would otherwise turn the whole scenario's geomean into +Inf
// and poison any table or JSON document built from it; excluding them and
// reporting the count keeps the aggregate finite and the starvation
// visible. With no finished application at all the geomean is 0 (and
// starved equals the application count).
func (s *Stats) SlowdownGeomean() (geo float64, starved int) {
	logSum, n := 0.0, 0
	for _, name := range s.AppNames() {
		sl, ok := s.Apps[name].FiniteSlowdown()
		if !ok {
			starved++
			continue
		}
		if sl <= 0 {
			sl = 1e-9
		}
		logSum += math.Log(sl)
		n++
	}
	if n == 0 {
		return 0, starved
	}
	return math.Exp(logSum / float64(n)), starved
}

// SlowdownSpread returns the min, median, and max per-application slowdown
// in the scenario (the box edges and median of Fig. 9a) along with the
// variance across applications. Infinite slowdowns (starved applications)
// are included in min/median/max but excluded from the variance.
func (s *Stats) SlowdownSpread() (min, median, max, variance float64) {
	var vals []float64
	for _, a := range s.Apps {
		vals = append(vals, a.Slowdown())
	}
	if len(vals) == 0 {
		return 0, 0, 0, 0
	}
	sort.Float64s(vals)
	min = vals[0]
	max = vals[len(vals)-1]
	median = vals[len(vals)/2]
	if len(vals)%2 == 0 {
		lo, hi := vals[len(vals)/2-1], vals[len(vals)/2]
		if !math.IsInf(hi, 1) {
			median = (lo + hi) / 2
		} else {
			median = lo
		}
	}
	var finite []float64
	for _, v := range vals {
		if !math.IsInf(v, 1) {
			finite = append(finite, v)
		}
	}
	if len(finite) > 1 {
		mean := 0.0
		for _, v := range finite {
			mean += v
		}
		mean /= float64(len(finite))
		for _, v := range finite {
			variance += (v - mean) * (v - mean)
		}
		variance /= float64(len(finite))
	}
	return min, median, max, variance
}
