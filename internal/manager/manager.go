// Package manager implements the hardware accelerator manager of paper
// §II-B/§III-C: a microcontroller-class runtime that parses submitted DAG
// nodes, performs sorted insertion into per-accelerator-type ready queues
// under a pluggable scheduling policy, launches tasks through driver
// functions, services completion interrupts, and orchestrates the data
// forwarding mechanism (scratchpad partitions, ongoing-read reference
// counts, deferred write-backs, and colocation tracking).
package manager

import (
	"fmt"

	"relief/internal/accel"
	"relief/internal/dram"
	"relief/internal/fault"
	"relief/internal/graph"
	"relief/internal/mem"
	"relief/internal/metrics"
	"relief/internal/predict"
	"relief/internal/sched"
	"relief/internal/sim"
	"relief/internal/stats"
	"relief/internal/trace"
	"relief/internal/xbar"
)

// Config parameterises the simulated platform and manager runtime.
type Config struct {
	// Instances is the number of accelerator instances per kind
	// (default: one of each, the paper's 7-accelerator platform).
	Instances [accel.NumKinds]int
	// OutputPartitions is the number of output scratchpad partitions per
	// accelerator (paper: double-buffered output; metadata supports 3).
	OutputPartitions int
	// Interconnect selects topology and bandwidths.
	Interconnect xbar.Config
	// Policy is the scheduling policy. Policies implementing
	// sched.Escalator get RELIEF-style forwarding escalation.
	Policy sched.Policy
	// BW is the memory-bandwidth predictor (default Max at effective DRAM
	// bandwidth).
	BW predict.BWPredictor
	// DM selects the data-movement predictor (default DMMax).
	DM predict.DMMode
	// DisableForwarding turns off the forwarding hardware entirely: every
	// edge goes through main memory (Table II "no fwd" configuration).
	DisableForwarding bool
	// AlwaysWriteBack disables the deferred write-back optimisation
	// (ablation).
	AlwaysWriteBack bool
	// DMASetup is the fixed per-transfer front-end latency (MMR
	// programming by the driver).
	DMASetup sim.Time
	// SchedBase and SchedPerScan model the manager microcontroller's
	// ready-queue insertion cost (Fig. 12): cost = base + perScan * queue
	// entries examined. SchedPerFwd is the extra per-candidate cost of
	// RELIEF's forwarding-list management, feasibility bookkeeping, and
	// forwarding-metadata updates.
	SchedBase, SchedPerScan, SchedPerFwd sim.Time
	// ComputeJitter is the relative amplitude of deterministic per-task
	// compute-time variation (models the paper's 0.03% compute predictor
	// error).
	ComputeJitter float64
	// Trace, if non-nil, records task phases, transfers, and scheduler
	// activity for timeline export.
	Trace *trace.Recorder
	// Metrics, if non-nil, collects simulated-time telemetry: probe-sampled
	// counters and gauges over the manager, interconnect, DRAM, and SPADs,
	// latency histograms, and per-node latency attribution (see
	// internal/metrics and docs/OBSERVABILITY.md). A nil registry costs a
	// pointer test on the hot path, like Trace.
	Metrics *metrics.Registry
	// MetricsInterval is the probe sampling period (0 = the metrics
	// package's 50 µs default).
	MetricsInterval sim.Time
	// DetailedDRAM swaps the fixed-bandwidth main-memory model for the
	// bank-level LPDDR5 controller in internal/dram.
	DetailedDRAM bool
	// DRAMPolicy selects the detailed controller's scheduling discipline.
	DRAMPolicy dram.Policy
	// DRAMChannels overrides the detailed controller's channel count
	// (0 = the paper's single channel).
	DRAMChannels int
	// Fault, if non-nil, installs deterministic fault injection and the
	// recovery machinery (watchdogs, retries, DAG abort). A zero-rate
	// plan is timing-neutral: results are bit-identical to no plan.
	Fault *fault.Plan
	// WatchdogMult scales the per-task watchdog deadline: predicted
	// runtime x WatchdogMult (0 = default 8). A watchdog that expires on
	// a live, progressing task re-arms with a doubled interval, so
	// legitimately slow tasks are never falsely recovered.
	WatchdogMult float64
	// MaxRetries bounds re-dispatch attempts per node before the DAG is
	// aborted (0 = default 3).
	MaxRetries int
	// RetryBackoff is the base re-dispatch delay, doubled per retry
	// (0 = default 2 µs).
	RetryBackoff sim.Time
}

// DefaultConfig mirrors the paper's simulated platform (Table VI): one
// instance of each of the seven accelerators, double-buffered output, a
// shared bus, Max predictors.
func DefaultConfig(policy sched.Policy) Config {
	cfg := Config{
		OutputPartitions: 2,
		Policy:           policy,
		DM:               predict.DMMax,
		DMASetup:         200 * sim.Nanosecond,
		SchedBase:        120 * sim.Nanosecond,
		SchedPerScan:     15 * sim.Nanosecond,
		SchedPerFwd:      300 * sim.Nanosecond,
		ComputeJitter:    0.0005,
	}
	for k := range cfg.Instances {
		cfg.Instances[k] = 1
	}
	total := 0
	for _, c := range cfg.Instances {
		total += c
	}
	cfg.Interconnect = xbar.DefaultConfig(total)
	return cfg
}

// Manager is the hardware manager runtime bound to one simulation.
type Manager struct {
	k    *sim.Kernel
	cfg  Config
	ic   *xbar.Interconnect
	st   *stats.Stats
	dram *dram.Controller // non-nil when DetailedDRAM is enabled

	pred   *predict.Runtime
	policy sched.Policy
	esc    sched.Escalator // non-nil if policy escalates

	queues   [accel.NumKinds][]*graph.Node
	qptrs    sched.Queues
	insts    []*Instance
	byKind   [accel.NumKinds][]*Instance
	freeAt   sim.Time // manager CPU busy-until
	horizon  sim.Time // continuous-contention cutoff (0 = run to completion)
	lastDone sim.Time // completion time of the last finished DAG

	// live indexes the iterations the manager cloned that are not yet
	// freed (iteration.livePos is each one's position), so FreeLive can
	// free those the end of the run cut off.
	live []*iteration

	// Fault injection and recovery state (nil/empty without cfg.Fault).
	inj    *fault.Injector
	active []*graph.DAG // released, unfinished, unaborted DAGs
	deaths int          // permanently dead instances

	// Checkpoint machinery (checkpoint.go). inFlight counts released DAGs
	// that have neither finished nor aborted; resumeAt is the capture time
	// this manager was restored from (0 = cold run).
	inFlight int
	ckpt     *captureArm
	resumeAt sim.Time

	// Telemetry (nil without cfg.Metrics). The histogram pointers are
	// cached so hot-path observations skip the registry map lookups.
	met          *metrics.Registry
	metSchedCost *metrics.Histogram
	metDMAXfer   *metrics.Histogram
	metDMAStall  *metrics.Histogram

	// Callbacks bound once, so scheduling them builds no method value, and
	// the free list of interrupt records (see isrRec).
	launchFn func()
	idleFn   func(kind int) int
	isrFree  *isrRec
}

// isrRec is one pending manager interrupt. Records are recycled through
// the manager's free list, so servicing a node completion or a DAG release
// builds no closure: a completion record carries the finished node, its
// instance and the children it made ready, and a release record the
// released DAG. Rarer interrupts (recovery, abort) carry their handler in
// work instead.
type isrRec struct {
	m     *Manager
	n     *graph.Node     // completion: the finished node
	inst  *Instance       // completion: the instance that ran it
	ready []*graph.Node   // completion: children made ready; reused
	rel   *graph.DAG      // release: the DAG whose roots become ready
	work  func() sim.Time // recovery or abort handler

	deferFn  func() // bound resume: re-raises the record once the core is free
	freeNext *isrRec
}

// iteration is the manager's record of one released DAG (graph.DAG.Ext).
// It stays with the DAG through the DAG's free list, so an iteration that
// reuses a retired DAG also reuses its node states and bound release
// callback. A DAG the manager cloned for a loop or periodic release is
// retired (see maybeRetire) once it has finished and nothing refers to it;
// FreeLive frees the clones still live when the run ends.
type iteration struct {
	m *Manager
	d *graph.DAG
	// origin is the caller's DAG: d itself, or the DAG the manager cloned
	// d from, which carries the policy's deadlines.
	origin *graph.DAG
	// states holds d's node states (graph.Node.Ext). They are zero when d
	// is released: new, or zeroed by Reset when d was freed.
	states []nodeState
	// app is d's application statistics, looked up once at release so
	// launches and completions skip the Stats.Apps map.
	app *stats.AppStats
	// refs counts pending work that refers to d's nodes after they may
	// have finished: queued or running DMA jobs, and recovery's deferred
	// release of the instance a failed attempt ran on.
	refs      int
	releaseFn func() // bound release, scheduled as d's release event
	livePos   int    // position in Manager.live while d is a live clone
	// periodicFn, bound on d's first SubmitPeriodic, is the release event
	// of d's later iterations; nextIter numbers the next one it releases.
	periodicFn func()
	nextIter   int
}

// Reset drops what the record refers to when its DAG is freed, so a free
// DAG pins no finished run.
func (it *iteration) Reset() {
	clear(it.states)
	it.m, it.origin, it.app, it.refs = nil, nil, nil, 0
}

func (it *iteration) release() { it.m.release(it.d) }

// attach returns d's iteration record, reusing the one d carries from an
// earlier life, bound to this manager.
func (m *Manager) attach(d, origin *graph.DAG) *iteration {
	it, _ := d.Ext.(*iteration)
	if it == nil {
		it = &iteration{d: d}
		it.releaseFn = it.release
		d.Ext = it
	}
	it.m, it.origin = m, origin
	return it
}

// iter returns the record attach put on a released DAG.
func iter(d *graph.DAG) *iteration { return d.Ext.(*iteration) }

// attachClone attaches a DAG cloned from origin and indexes it as live.
func (m *Manager) attachClone(d, origin *graph.DAG) *iteration {
	it := m.attach(d, origin)
	it.livePos = len(m.live)
	m.live = append(m.live, it)
	return it
}

// freeClone drops a live clone from the index and frees its DAG.
func (m *Manager) freeClone(it *iteration) {
	last := len(m.live) - 1
	m.live[it.livePos] = m.live[last]
	m.live[it.livePos].livePos = it.livePos
	m.live[last] = nil
	m.live = m.live[:last]
	it.d.Free()
}

// FreeLive frees every DAG the manager cloned for a loop or periodic
// iteration that is still live: unfinished when the run stopped at its
// horizon, finished with write-backs still pending, or aborted. Call it
// once the simulation is over; nothing may run on the manager afterwards.
// The caller's own DAGs are the caller's to free.
func (m *Manager) FreeLive() {
	for _, it := range m.live {
		it.d.Free()
	}
	clear(m.live)
	m.live = m.live[:0]
}

// retiredOutput occupies, in place of a retired iteration's node, every
// partition still holding that node's output: the data stays resident, so
// occupancy is unchanged, but no partition refers into a DAG that a later
// iteration may reuse. Its output counts as written back, so reclaiming
// or losing the partition does nothing further, and nothing writes to it.
var retiredOutput = &graph.Node{Name: "retired", Ext: &nodeState{wbDone: true}}

// maybeRetire frees an iteration the manager cloned once it has finished
// without being aborted and no pending work refers to it, after dropping
// the instances' references into it: a partition's occupant becomes
// retiredOutput and a LastNode becomes nil (a finished DAG's node is
// never a parent of a node still to launch). The caller's own DAG is
// never freed here.
func (m *Manager) maybeRetire(it *iteration) {
	d := it.d
	if it.origin == d || it.refs > 0 || !d.Finished() || d.Aborted {
		return
	}
	for _, inst := range m.insts {
		for _, b := range inst.Parts {
			if b.Node != nil && b.Node.DAG == d {
				b.Node = retiredOutput
			}
		}
		if inst.LastNode != nil && inst.LastNode.DAG == d {
			inst.LastNode = nil
		}
	}
	m.freeClone(it)
}

// nodeState is per-node forwarding bookkeeping (paper Table III/IV fields).
// It lives in the node's iteration record (graph.Node.Ext points into
// iteration.states), so it is reused with its DAG.
type nodeState struct {
	inst *Instance // instance whose scratchpad holds the node's output (nil: none)
	part int       // inst's partition holding it
	// wbDone / wbInFlight track the output's write-back to main memory.
	wbDone, wbInFlight bool
	wbWaiters          []func()
	// fetched counts children that have pulled their edge data; once all
	// have, the intermediate result is dispensable.
	fetched int
	// prediction bookkeeping (Table VIII)
	predMemTime   sim.Time
	predBytes     int64
	predBW        float64
	actualMemTime sim.Time
	actualBytes   int64
	dramBytes     int64    // bytes moved through main memory on this node's behalf
	dramTime      sim.Time // wall time of those transfers
	pendingInputs int
	gateFired     bool

	// ---- latency-attribution bookkeeping (internal/metrics) ----
	// computeStart/computeDur pin the compute phase inside the node's
	// lifetime; dmaPure/dmaStall split observed input-DMA time into the
	// idle-SoC transfer time and the contention remainder.
	computeStart, computeDur sim.Time
	dmaPure, dmaStall        sim.Time

	// ---- recovery state (used only under fault injection) ----
	// attempt numbers launches; callbacks from a superseded attempt are
	// discarded by comparing their captured attempt against it.
	attempt int
	retries int
	verdict fault.Verdict
	// hung marks a task that will never signal completion (hang fault or
	// instance death); only the watchdog can recover it.
	hung bool
	// lost marks an output that died with its instance before write-back:
	// consumers that need it can only abort.
	lost bool
	// failAt is the node's first failure time (MTTR accounting).
	failAt sim.Time
	// avoid is the instance the node last failed on; re-dispatch prefers
	// a sibling.
	avoid    *Instance
	watchdog *sim.Event
	// wdInterval tracks the armed watchdog interval for re-arming.
	wdInterval sim.Time
	retryEv    *sim.Event
	// compEv is the pending completion event, cancelled if the instance
	// dies mid-compute.
	compEv *sim.Event
}

// New builds a manager on the given kernel, collecting metrics into st.
func New(k *sim.Kernel, cfg Config, st *stats.Stats) *Manager {
	return newManager(k, cfg, st, 0)
}

// newManager builds a manager, cold (resumeAt == 0) or restored from a
// checkpoint captured at resumeAt (see Restore in checkpoint.go).
func newManager(k *sim.Kernel, cfg Config, st *stats.Stats, resumeAt sim.Time) *Manager {
	cfg = cfg.withDefaults()
	var dc *dram.Controller
	if cfg.DetailedDRAM && cfg.Interconnect.DRAMServer == nil {
		dcfg := dram.LPDDR5()
		dcfg.Policy = cfg.DRAMPolicy
		if cfg.DRAMChannels > 0 {
			dcfg.Channels = cfg.DRAMChannels
		}
		dc = dram.NewController(k, "dram", dcfg)
		cfg.Interconnect.DRAMServer = dc
	}
	m := &Manager{
		k:    k,
		dram: dc,
		ic:   xbar.New(k, cfg.Interconnect),
	}
	m.launchFn = m.launchPass
	m.idleFn = m.idleCount
	// Feasibility and max-forwards bookkeeping see the live instance
	// count, so permanently dead instances leave every policy's
	// feasibility set.
	m.pred = &predict.Runtime{InstancesOf: func(kind int) int { return m.liveCount(kind) }}
	idx := 0
	for kind := accel.Kind(0); kind < accel.NumKinds; kind++ {
		for i := 0; i < cfg.Instances[kind]; i++ {
			inst := newInstance(m, idx, kind, cfg.OutputPartitions)
			m.insts = append(m.insts, inst)
			m.byKind[kind] = append(m.byKind[kind], inst)
			idx++
		}
	}
	for kind := range m.queues {
		m.qptrs = append(m.qptrs, &m.queues[kind])
	}
	m.configure(cfg, st, resumeAt)
	return m
}

// withDefaults fills the configuration's unset fields: the output
// partitions, the interconnect's port count and the bandwidth predictor.
func (cfg Config) withDefaults() Config {
	if cfg.Policy == nil {
		panic("manager: nil policy")
	}
	if cfg.OutputPartitions <= 0 {
		cfg.OutputPartitions = 2
	}
	total := 0
	for _, c := range cfg.Instances {
		total += c
	}
	cfg.Interconnect.Instances = total
	if cfg.BW == nil {
		cfg.BW = &predict.Max{Peak: cfg.Interconnect.DRAMBandwidth}
	}
	return cfg
}

// configure binds a built or Reset manager to one run: the configuration's
// policy, predictors and observers, the statistics sink, and the fault
// plan with its scripted deaths.
func (m *Manager) configure(cfg Config, st *stats.Stats, resumeAt sim.Time) {
	m.cfg, m.st, m.policy, m.resumeAt = cfg, st, cfg.Policy, resumeAt
	m.esc, _ = cfg.Policy.(sched.Escalator)
	*m.pred = predict.Runtime{
		BW:           cfg.BW,
		DM:           cfg.DM,
		BusBandwidth: cfg.Interconnect.BusBandwidth,
		InstancesOf:  m.pred.InstancesOf,
	}
	if cfg.Fault != nil {
		m.inj = cfg.Fault.NewInjector()
		if m.dram != nil {
			m.dram.SetFault(m.inj.DRAM)
		}
		m.scheduleDeaths(cfg.Fault)
	}
	if cfg.Metrics.Enabled() {
		m.met = cfg.Metrics
		m.registerMetrics()
		m.met.StartProbes(m.k, cfg.MetricsInterval)
	}
}

// Reset returns the manager to its state when built, bound to no run, so
// the simulation can run again on the same platform; the caller resets
// the kernel too. The manager keeps what earlier runs grew: its instances
// with their partitions, DMA queues and free DMA job records, the
// interconnect and DRAM controller (each reset, with their free transfer
// and request records), the ready queues' and live index's arrays, the
// free interrupt records and the bound callbacks. Every other field, one
// added later included, is zeroed. The run must be over and its live
// iterations freed (FreeLive); Reuse binds the manager to its next run.
func (m *Manager) Reset() {
	for _, inst := range m.insts {
		inst.reset()
	}
	for kind := range m.queues {
		clear(m.queues[kind])
		m.queues[kind] = m.queues[kind][:0]
	}
	m.ic.Reset()
	if m.dram != nil {
		m.dram.Reset()
	}
	*m.pred = predict.Runtime{InstancesOf: m.pred.InstancesOf}
	clear(m.live)
	*m = Manager{
		k: m.k, ic: m.ic, dram: m.dram, pred: m.pred,
		queues: m.queues, qptrs: m.qptrs, insts: m.insts, byKind: m.byKind, live: m.live[:0],
		launchFn: m.launchFn, idleFn: m.idleFn, isrFree: m.isrFree,
	}
}

// Reuse binds a manager that Reset emptied to a new cold run, as New binds
// a new one. cfg must describe the platform the manager was built for;
// its policy, predictors, observers and fault plan are the run's own.
func (m *Manager) Reuse(cfg Config, st *stats.Stats) {
	cfg = cfg.withDefaults()
	if m.dram != nil {
		cfg.Interconnect.DRAMServer = m.dram
	}
	m.configure(cfg, st, 0)
}

// Interconnect exposes the interconnect for occupancy reporting.
func (m *Manager) Interconnect() *xbar.Interconnect { return m.ic }

// DRAMController returns the bank-level controller when DetailedDRAM is
// enabled, else nil.
func (m *Manager) DRAMController() *dram.Controller { return m.dram }

// Predictor exposes the runtime predictor (used by experiment harnesses to
// compute prediction baselines).
func (m *Manager) Predictor() *predict.Runtime { return m.pred }

// state returns the manager-side state release attached to a node.
func (m *Manager) state(n *graph.Node) *nodeState { return n.Ext.(*nodeState) }

// idleCount reports the number of idle (and live) instances of a kind.
//
//relief:hotpath
func (m *Manager) idleCount(kind int) int {
	c := 0
	for _, inst := range m.byKind[kind] {
		if !inst.Busy && inst.Health != accel.Dead {
			c++
		}
	}
	return c
}

// liveCount reports the number of instances of a kind that have not died.
func (m *Manager) liveCount(kind int) int {
	c := 0
	for _, inst := range m.byKind[kind] {
		if inst.Health != accel.Dead {
			c++
		}
	}
	return c
}

// RuntimeEstimate is the execution-time estimate used for critical-path
// deadline assignment: profiled compute plus memory time at maximum data
// movement and peak effective bandwidth. This is deliberately independent
// of the configured predictors so every policy sees identical deadlines.
func (m *Manager) RuntimeEstimate(n *graph.Node) sim.Time {
	bytes := n.TotalInputBytes() + n.OutputBytes
	memT := sim.Time(float64(bytes) / m.cfg.Interconnect.DRAMBandwidth * float64(sim.Second))
	return n.Compute + memT
}

// Submit registers a DAG for release at the given absolute time and assigns
// its node deadlines under the policy's deadline mode (clones of d inherit
// them). A DAG is submitted once, to one manager: submit a Clone to run it
// again. Everything submitted before the run starts is a statically
// scheduled release: its event is derivable from the simulation's inputs,
// which is what lets a checkpoint skip serializing the event queue
// (sim.AtReplay).
func (m *Manager) Submit(d *graph.DAG, release sim.Time) error {
	if d.Submitted {
		return fmt.Errorf("manager: %s DAG already submitted; submit a Clone to run it again", d.App)
	}
	if err := graph.AssignDeadlines(d, m.policy.DeadlineMode(), m.RuntimeEstimate); err != nil {
		return err
	}
	d.Submitted = true
	m.st.App(d.App, d.Sym, d.Deadline)
	if release < m.resumeAt {
		// Restored run: this DAG completed before the capture instant; its
		// effects are already in the restored state.
		return nil
	}
	m.k.AtReplay(release, m.attach(d, d).releaseFn)
	return nil
}

// SubmitLoop is Submit under continuous contention (paper §IV-C): each time
// d, or a clone released in its place, finishes before the RunContinuous
// horizon, a clone of it is released at that instant as the next iteration.
// Only d loops; other DAGs of the same application run once.
func (m *Manager) SubmitLoop(d *graph.DAG, release sim.Time) error {
	if err := m.Submit(d, release); err != nil {
		return err
	}
	d.Loop = true
	return nil
}

// SubmitPeriodic releases d every period until the horizon, regardless of
// whether earlier iterations have finished — the frame-queue arrival
// pattern of a camera pipeline or an inference stream (e.g. 60 FPS vision
// = 16.6 ms period). Iteration 0 is d itself; each later iteration is a
// clone of d made at its release (see Clone for its reuse of retired
// iterations). Complements the paper's
// continuous-contention mode, which resubmits on completion.
func (m *Manager) SubmitPeriodic(d *graph.DAG, period, until sim.Time) error {
	if period <= 0 {
		return fmt.Errorf("manager: non-positive period %v", period)
	}
	if until <= 0 {
		return nil
	}
	if err := m.Submit(d, 0); err != nil {
		return err
	}
	it := m.attach(d, d)
	if it.periodicFn == nil {
		it.periodicFn = it.releasePeriodic
	}
	it.nextIter = 1
	for t := period; t < until; t += period {
		if t < m.resumeAt {
			// Restored run: as in Submit (a checkpoint is only taken with no
			// DAG in flight, so every pre-capture release is accounted for).
			it.nextIter++
			continue
		}
		m.k.AtReplay(t, it.periodicFn)
	}
	return nil
}

// releasePeriodic is a periodic DAG's release event: it releases a clone
// of the DAG as the next iteration. The events fire in release order, so
// counting them numbers the iterations.
func (it *iteration) releasePeriodic() {
	next := it.d.Clone()
	next.Iteration = it.nextIter
	it.nextIter++
	it.m.attachClone(next, it.d).release()
}

// release makes d's roots ready. d carries an iteration record (attach).
func (m *Manager) release(d *graph.DAG) {
	it := iter(d)
	if m.maybeCapture(d) {
		// A checkpoint was captured at (or before) this release: the run is
		// draining, and this DAG will be re-derived by the restored run. A
		// clone made for the release is referenced by nothing.
		if it.origin != d {
			m.freeClone(it)
		}
		return
	}
	m.inFlight++
	d.Release = m.k.Now()
	it.app = m.st.App(d.App, d.Sym, d.Deadline)
	if m.cfg.Trace.Enabled() {
		m.cfg.Trace.Instant(trace.Release, fmt.Sprintf("%s#%d", d.App, d.Iteration), "manager", d.Release, nil)
	}
	if len(it.states) != len(d.Nodes) {
		it.states = make([]nodeState, len(d.Nodes))
	}
	for i, n := range d.Nodes {
		n.Deadline = d.Release + n.RelDeadline
		n.Ext = &it.states[i]
	}
	if m.inj != nil {
		m.active = append(m.active, d)
		if m.deaths > 0 {
			if kind, ok := m.missingKind(d); ok {
				m.abortDAG(d, "no live "+kind.String()+" instance")
				return
			}
		}
	}
	r := m.newISR()
	r.rel = d
	m.isr(r)
}

// releaseISR is the interrupt handler of a release record: insert the
// DAG's roots, in node order, into their ready queues. It returns the
// modeled scheduler cost.
func (m *Manager) releaseISR(d *graph.DAG) sim.Time {
	var cost sim.Time
	for _, n := range d.Nodes {
		if n.IsRoot() {
			n.ReadyAt = m.k.Now()
			cost += m.insertPlain(n)
		}
	}
	return cost
}

// insertPlain performs a vanilla policy insertion of a (non-forwarding)
// ready node and returns the modeled cost.
func (m *Manager) insertPlain(n *graph.Node) sim.Time {
	m.preparePrediction(n)
	pos, scanned := m.policy.InsertPos(m.queues[n.Kind], n, m.k.Now())
	sched.Insert(&m.queues[n.Kind], n, pos)
	n.IsFwd = false
	n.State = graph.Ready
	cost := m.cfg.SchedBase + m.cfg.SchedPerScan*sim.Time(scanned)
	m.st.ObserveSched(cost)
	if m.metSchedCost != nil {
		m.metSchedCost.Observe(cost.Microseconds())
	}
	return cost
}

// preparePrediction fills the node's predicted runtime and laxity at
// ready-queue insertion time (the paper predicts once, at insertion).
func (m *Manager) preparePrediction(n *graph.Node) {
	s := m.state(n)
	n.PredRuntime = m.pred.PredictRuntime(n)
	s.predMemTime = m.pred.PredictMemTime(n)
	s.predBW = m.cfg.BW.Predict()
	dram, bus := m.pred.PredictBytes(n)
	s.predBytes = dram + bus
	n.Laxity = n.Deadline - n.PredRuntime
}

// newISR returns an interrupt record from the free list, allocating one
// only when every record is pending.
func (m *Manager) newISR() *isrRec {
	r := m.isrFree
	if r == nil {
		r = &isrRec{m: m}
		r.deferFn = r.resume
		return r
	}
	m.isrFree = r.freeNext
	r.freeNext = nil
	return r
}

func (r *isrRec) resume() { r.m.isr(r) }

// isrWork raises an interrupt whose handler is work.
func (m *Manager) isrWork(work func() sim.Time) {
	r := m.newISR()
	r.work = work
	m.isr(r)
}

// isr serialises manager work on the microcontroller: the record's handler
// runs when the manager core is free, its modeled cost keeps the core busy,
// and the launch pass (driver invocations) happens once the cost has
// elapsed. The record returns to the free list once handled.
func (m *Manager) isr(r *isrRec) {
	now := m.k.Now()
	if now < m.freeAt {
		m.k.At(m.freeAt, r.deferFn)
		return
	}
	var cost sim.Time
	switch {
	case r.work != nil:
		cost = r.work()
	case r.rel != nil:
		cost = m.releaseISR(r.rel)
	default:
		cost = m.completionISR(r)
	}
	clear(r.ready)
	r.n, r.inst, r.ready, r.rel, r.work = nil, nil, r.ready[:0], nil, nil
	r.freeNext = m.isrFree
	m.isrFree = r
	if cost < m.cfg.SchedBase {
		cost = m.cfg.SchedBase
	}
	m.freeAt = now + cost
	m.cfg.Trace.Span(trace.Schedule, "isr", "manager", now, m.freeAt, nil)
	m.k.At(m.freeAt, m.launchFn)
}

// launchPass pops ready-queue heads onto idle accelerators. A pop shifts
// the queue down in place, so later insertions reuse its backing array.
func (m *Manager) launchPass() {
	for kind := range m.queues {
		for len(m.queues[kind]) > 0 {
			q := m.queues[kind]
			n := q[0]
			inst := m.pickInstance(kind, n)
			if inst == nil {
				break
			}
			copy(q, q[1:])
			q[len(q)-1] = nil
			m.queues[kind] = q[:len(q)-1]
			m.launch(n, inst)
		}
	}
}

// pickInstance chooses an idle instance of the kind for n, preferring one
// whose previously executed node is a parent of n with live output — the
// colocation opportunity the scheduler tracks (paper §III-B).
func (m *Manager) pickInstance(kind int, n *graph.Node) *Instance {
	var fallback, avoided *Instance
	avoid := m.state(n).avoid
	for _, inst := range m.byKind[kind] {
		if inst.Busy || inst.Health == accel.Dead {
			continue
		}
		if inst == avoid {
			// The node already failed here; prefer any sibling.
			avoided = inst
			continue
		}
		if fallback == nil {
			fallback = inst
		}
		if inst.LastNode != nil && m.outputLive(inst.LastNode) {
			for _, p := range n.Parents {
				if p == inst.LastNode {
					return inst
				}
			}
		}
	}
	if fallback == nil {
		fallback = avoided // lone survivor: retry in place
	}
	return fallback
}

// outputLive reports whether a node's output still resides in a scratchpad
// partition.
func (m *Manager) outputLive(n *graph.Node) bool {
	s := m.state(n)
	return s.inst != nil && s.inst.Parts[s.part].Node == n
}

func (m *Manager) String() string {
	return fmt.Sprintf("manager(policy=%s, insts=%d)", m.policy.Name(), len(m.insts))
}

// dmaBytesToSPAD tallies scratchpad energy traffic for a transfer
// classification.
func (m *Manager) noteSpadBytes(n int64) { m.st.SpadDMABytes += n }

// observeDRAMTransfer feeds the bandwidth predictor with the achieved
// bandwidth of a DRAM-involving transfer.
func (m *Manager) observeDRAMTransfer(res mem.TransferResult) {
	if bw := res.AchievedBandwidth(); bw > 0 {
		m.cfg.BW.Observe(bw)
	}
}
