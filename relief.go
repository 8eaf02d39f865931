// Package relief is a transaction-level SoC simulator and scheduling
// framework reproducing "RELIEF: Relieving Memory Pressure In SoCs Via Data
// Movement-Aware Accelerator Scheduling" (Gupta & Dwarkadas, HPCA 2024).
//
// It models a mobile SoC with seven elementary loosely-coupled accelerators
// (ISP, grayscale, convolution, elem-matrix, canny-non-max, harris-non-max,
// edge-tracking), a hardware accelerator manager, scratchpad-to-scratchpad
// data forwarding, and eight scheduling policies: the RELIEF policy of the
// paper plus the FCFS, GEDF-D, GEDF-N, LL, LAX, and HetSched baselines and
// the RELIEF-LAX variant.
//
// The typical flow is: build (or load) application DAGs, configure a
// System with a policy, submit the DAGs, run, and inspect the Report:
//
//	sys := relief.NewSystem(relief.Config{Policy: "RELIEF"})
//	dag, _ := relief.BuildWorkload("canny")
//	sys.Submit(dag, 0)
//	report := sys.Run()
//	fmt.Println(report.Forwards, report.Colocations)
//
// The exported DAG/Node types alias the internal graph package, so DAGs
// built through this package interoperate with everything else.
package relief

import (
	"context"
	"fmt"
	"io"
	"slices"

	"relief/internal/accel"
	"relief/internal/ckpt"
	"relief/internal/core"
	"relief/internal/exp"
	"relief/internal/fault"
	"relief/internal/graph"
	"relief/internal/manager"
	"relief/internal/metrics"
	"relief/internal/sched"
	"relief/internal/sim"
	"relief/internal/stats"
	"relief/internal/trace"
	"relief/internal/workload"
)

// Time is a simulation timestamp or duration in picoseconds.
type Time = sim.Time

// Convenient duration units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
)

// DAG is an application task graph; Node is one accelerator task within it.
type (
	DAG  = graph.DAG
	Node = graph.Node
)

// Kind identifies an accelerator type; Op the operation a task requests.
type (
	Kind = accel.Kind
	Op   = accel.Op
)

// The seven elementary accelerators of the platform.
const (
	ISP          = accel.ISP
	Grayscale    = accel.Grayscale
	Convolution  = accel.Convolution
	ElemMatrix   = accel.ElemMatrix
	CannyNonMax  = accel.CannyNonMax
	HarrisNonMax = accel.HarrisNonMax
	EdgeTracking = accel.EdgeTracking
)

// Common task operations (see the accel package for the full set).
const (
	OpDefault = accel.OpDefault
	OpAdd     = accel.OpAdd
	OpSub     = accel.OpSub
	OpMul     = accel.OpMul
	OpDiv     = accel.OpDiv
	OpSqr     = accel.OpSqr
	OpSqrt    = accel.OpSqrt
	OpAtan2   = accel.OpAtan2
	OpTanh    = accel.OpTanh
	OpSigmoid = accel.OpSigmoid
	OpMac     = accel.OpMac
	OpScale   = accel.OpScale
	OpThresh  = accel.OpThresh
)

// DeadlineMode selects how node deadlines derive from the DAG deadline.
type DeadlineMode = graph.DeadlineMode

// Deadline assignment schemes for Policy implementations.
const (
	DeadlineDAG = graph.DeadlineDAG
	DeadlineCPM = graph.DeadlineCPM
	DeadlineSDR = graph.DeadlineSDR
)

// Policy is the scheduling policy interface: it decides where a newly
// ready task is inserted into its per-accelerator-type ready queue.
// Policies additionally implementing the escalator extension (see
// internal/sched.Escalator and the custompolicy example) get RELIEF-style
// treatment of newly ready children.
type Policy = sched.Policy

// NewRELIEF returns the paper's RELIEF policy; NewRELIEFLAX its
// negative-laxity-de-prioritizing variant.
func NewRELIEF() Policy    { return core.New() }
func NewRELIEFLAX() Policy { return core.NewLAX() }

// PolicyByName constructs a policy from its paper name: "FCFS", "GEDF-D",
// "GEDF-N", "LL", "LAX", "HetSched", "RELIEF", or "RELIEF-LAX". The
// simulator's ablation variants are not part of the public API.
func PolicyByName(name string) (Policy, error) {
	if !slices.Contains(exp.FairnessPolicyNames, name) {
		return nil, fmt.Errorf("relief: unknown policy %q", name)
	}
	return exp.NewPolicy(name)
}

// NewDAG starts an empty application DAG with the given name, single-letter
// symbol, and relative deadline. Add nodes with DAG.AddNode, then the
// System finalizes it at submission.
func NewDAG(app, sym string, deadline Time) *DAG {
	return graph.New(app, sym, deadline)
}

// BuildWorkload builds one of the paper's five benchmark DAGs by name:
// "canny", "deblur", "gru", "harris", or "lstm".
func BuildWorkload(name string) (*DAG, error) {
	for a := workload.App(0); a < workload.NumApps; a++ {
		if a.Name() == name {
			return workload.Build(a)
		}
	}
	return nil, fmt.Errorf("relief: unknown workload %q", name)
}

// Config parameterises a System. The zero value plus a policy name gives
// the paper's platform: one instance of each accelerator, double-buffered
// output scratchpads, a shared bus, and Max predictors.
type Config struct {
	// Policy is a policy name for PolicyByName. Ignored if Custom is set.
	Policy string
	// Custom supplies a caller-implemented policy.
	Custom Policy
	// Crossbar switches the interconnect from the shared bus to a
	// crossbar.
	Crossbar bool
	// Instances overrides the number of accelerator instances per kind
	// (nil = one of each); counts must be at least 1.
	Instances map[Kind]int
	// OutputPartitions overrides the per-accelerator output buffering
	// (default 2).
	OutputPartitions int
	// BandwidthPredictor selects the memory bandwidth predictor: "max"
	// (default), "last", "average", or "ewma".
	BandwidthPredictor string
	// PredictDataMovement enables the graph-analysis data-movement
	// predictor instead of the maximum-data-movement default.
	PredictDataMovement bool
	// DisableForwarding turns the forwarding hardware off entirely.
	DisableForwarding bool
	// Trace, if non-nil, records task phases, DMA transfers, and manager
	// activity; export with TraceRecorder.WriteChromeTrace or WriteText.
	Trace *TraceRecorder
}

// TraceRecorder collects a simulation timeline (see internal/trace).
type TraceRecorder = trace.Recorder

// NewTraceRecorder returns an empty timeline recorder to pass in Config.
func NewTraceRecorder() *TraceRecorder { return trace.NewRecorder() }

// MetricsRegistry collects simulated-time telemetry: probe-sampled counters
// and gauges, latency histograms, and per-task latency attribution (see
// internal/metrics and docs/OBSERVABILITY.md). Export the collected state
// with its WriteCSV, WriteJSON, and WritePrometheus methods after Run.
type MetricsRegistry = metrics.Registry

// NewMetricsRegistry returns an empty registry to pass via WithMetrics.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// FaultPlan is a deterministic fault-injection specification (see
// docs/FAULTS.md); FaultRateSet holds its per-event probabilities. A
// zero-rate plan is timing-neutral: results are bit-identical to no plan.
type (
	FaultPlan    = fault.Plan
	FaultRateSet = fault.Rates
)

// FaultProfile builds a plan whose individual rates scale with a single
// headline fault rate (the profile used by the resilience study).
func FaultProfile(rate float64, seed int64) *FaultPlan { return fault.Profile(rate, seed) }

// Option customises a System beyond the Config struct.
type Option struct {
	apply func(*manager.Config)
	sys   func(*System)
}

// WithFaultPlan installs deterministic fault injection plus the recovery
// machinery (per-task watchdogs, bounded retry with backoff, DAG abort).
func WithFaultPlan(p *FaultPlan) Option {
	return Option{apply: func(c *manager.Config) { c.Fault = p }}
}

// WithWatchdogMult scales the per-task watchdog deadline (predicted
// runtime x mult; 0 = default 8).
func WithWatchdogMult(mult float64) Option {
	return Option{apply: func(c *manager.Config) { c.WatchdogMult = mult }}
}

// WithMaxRetries bounds per-node re-dispatch attempts before the DAG is
// aborted (0 = default 3).
func WithMaxRetries(n int) Option {
	return Option{apply: func(c *manager.Config) { c.MaxRetries = n }}
}

// WithRetryBackoff sets the base re-dispatch delay, doubled per retry
// (0 = default 2 µs).
func WithRetryBackoff(d Time) Option {
	return Option{apply: func(c *manager.Config) { c.RetryBackoff = d }}
}

// WithMetrics attaches a telemetry registry to the simulation. Probes are
// read-only: a metricised run produces bit-identical simulation results.
func WithMetrics(r *MetricsRegistry) Option {
	return Option{apply: func(c *manager.Config) { c.Metrics = r }}
}

// WithMetricsInterval sets the probe sampling period (0 = 50 µs default).
func WithMetricsInterval(d Time) Option {
	return Option{apply: func(c *manager.Config) { c.MetricsInterval = d }}
}

// WithCheckpoint arms checkpoint capture: the system snapshots its complete
// state at the first quiescent instant (no work in flight, only replayable
// events pending) at or after armAt. Quiescent instants occur between the
// iterations of SubmitPeriodic workloads; a system whose iterations always
// overlap never quiesces and Checkpoint reports that after the run, as
// does a SubmitLoop workload once its loop has started. See
// docs/CHECKPOINT.md. Tracing cannot cross a checkpoint, so WithCheckpoint
// is incompatible with Config.Trace.
func WithCheckpoint(armAt Time) Option {
	return Option{sys: func(s *System) { s.sim.Manager.ArmCheckpoint(armAt) }}
}

// System is a configured SoC simulation accepting DAG submissions.
type System struct {
	sim *exp.Sim // only Stats is set when construction failed
	ran bool
	err error
}

// NewSystem builds a simulation from cfg plus options. Configuration
// errors (an invalid policy or predictor name, an unknown accelerator kind
// or an instance count below 1) do not panic: they are
// reported by Err and by every subsequent Submit call, so externally
// supplied names can be validated after construction.
func NewSystem(cfg Config, opts ...Option) *System {
	mcfg, err := buildConfig(cfg, opts)
	if err != nil {
		return &System{sim: &exp.Sim{Stats: stats.New()}, err: err}
	}
	return newSystem(exp.NewSim(mcfg), opts)
}

// newSystem wraps a built simulation and applies the system-level options.
func newSystem(sm *exp.Sim, opts []Option) *System {
	s := &System{sim: sm}
	for _, o := range opts {
		if o.sys != nil {
			o.sys(s)
		}
	}
	return s
}

// buildConfig maps the facade Config onto a platform spec, resolves it, and
// applies the config-level options. Both NewSystem and RunFrom use it: a
// restored system must rebuild exactly the platform the checkpointed system
// ran on.
func buildConfig(cfg Config, opts []Option) (manager.Config, error) {
	policy := cfg.Custom
	if policy == nil {
		name := cfg.Policy
		if name == "" {
			name = "RELIEF"
		}
		p, err := PolicyByName(name)
		if err != nil {
			return manager.Config{}, err
		}
		policy = p
	}
	spec := exp.PlatformSpec{
		OutputPartitions:  cfg.OutputPartitions,
		BWPredictor:       cfg.BandwidthPredictor,
		PredictDM:         cfg.PredictDataMovement,
		DisableForwarding: cfg.DisableForwarding,
	}
	if cfg.Crossbar {
		spec.Topology = "xbar"
	}
	spec.Instances = make(map[string]int, len(cfg.Instances))
	for k, n := range cfg.Instances {
		spec.Instances[k.String()] = n
	}
	mcfg, err := spec.Resolve(policy)
	if err != nil {
		return manager.Config{}, err
	}
	mcfg.Trace = cfg.Trace
	for _, o := range opts {
		if o.apply != nil {
			o.apply(&mcfg)
		}
	}
	return mcfg, nil
}

// RunFrom rebuilds a warmed System from a checkpoint envelope produced by
// Checkpoint. cfg and opts must reproduce the checkpointed system's
// configuration (the envelope checksum guards integrity, not compatibility —
// mismatched platforms are detected during restore where possible). The
// caller then re-submits the same workload schedule — identical Submit /
// SubmitPeriodic calls with freshly built template DAGs (a DAG released by
// one System is spent) — and runs as usual; releases and scripted events
// that predate the capture instant are skipped automatically, so the resumed
// run is byte-identical to an uninterrupted one. The returned Time is the
// simulated instant the checkpoint was captured at.
func RunFrom(cfg Config, envelope []byte, opts ...Option) (*System, Time, error) {
	env, err := ckpt.Open(envelope)
	if err != nil {
		return nil, 0, err
	}
	mcfg, err := buildConfig(cfg, opts)
	if err != nil {
		return nil, 0, err
	}
	sm, err := exp.RestoreSim(mcfg, env)
	if err != nil {
		return nil, 0, err
	}
	return newSystem(sm, opts), Time(env.CapturedPs), nil
}

// Err returns the system's construction error (an invalid policy,
// predictor name or instance count), or nil when the system is healthy.
func (s *System) Err() error { return s.err }

// Submit registers a DAG for release at the given time. The DAG is
// finalized (compute times filled, graph validated) if it has not been.
// A DAG is submitted once, to one System: a second submit is an error, so
// submit d.Clone() to run it again.
func (s *System) Submit(d *DAG, release Time) error {
	if err := s.finalize(d); err != nil {
		return err
	}
	return s.sim.Manager.Submit(d, release)
}

// SubmitLoop registers d for release at the given time and, whenever an
// iteration finishes before the RunFor horizon, releases a copy of d as the
// next one (continuous contention). d is the template: it is finalized
// once, and every iteration has its shape and deadlines. As with Submit, d
// is submitted once; clone it to run it again.
func (s *System) SubmitLoop(d *DAG, release Time) error {
	if err := s.finalize(d); err != nil {
		return err
	}
	return s.sim.Manager.SubmitLoop(d, release)
}

// SubmitPeriodic releases d every period until the horizon — frame-queue
// arrivals, e.g. a 60 FPS camera pipeline. d is the template: it is
// finalized once, and each later frame is a copy of it. Run the system
// with RunFor(horizon). As with Submit, d is submitted once; clone it to
// run it again.
func (s *System) SubmitPeriodic(d *DAG, period, horizon Time) error {
	if err := s.finalize(d); err != nil {
		return err
	}
	return s.sim.Manager.SubmitPeriodic(d, period, horizon)
}

// finalize readies d for submission, or reports the construction error.
func (s *System) finalize(d *DAG) error {
	if s.err != nil {
		return s.err
	}
	return d.Finalize()
}

// Run executes the simulation until every submitted DAG completes and
// returns the report. A System can only run once.
func (s *System) Run() *Report {
	// A context that is never done cannot fail the run, and a construction
	// error is reported by Err.
	_ = s.drive(context.Background(), (*manager.Manager).Run)
	return newReport(s.sim.Stats)
}

// RunFor executes the simulation until the horizon (for SubmitLoop
// workloads) and returns the report over finished work.
func (s *System) RunFor(horizon Time) *Report {
	// As in Run, the error is always nil or reported by Err.
	_ = s.drive(context.Background(), func(m *manager.Manager) Time { return m.RunContinuous(horizon) })
	return newReport(s.sim.Stats)
}

// RunContext is Run with cancellation: the simulation aborts promptly once
// ctx is cancelled or times out, returning ctx's error and no report —
// an abandoned run never yields partial statistics. The cancellation
// check is polled on the simulation goroutine (every few thousand kernel
// events), so it is safe to cancel from another goroutine; this is the
// entry point the serving layer drives (see internal/serve).
func (s *System) RunContext(ctx context.Context) (*Report, error) {
	return s.runContext(ctx, (*manager.Manager).Run)
}

// RunForContext is RunFor with cancellation, with the same contract as
// RunContext.
func (s *System) RunForContext(ctx context.Context, horizon Time) (*Report, error) {
	return s.runContext(ctx, func(m *manager.Manager) Time { return m.RunContinuous(horizon) })
}

// runContext drives the system under ctx and reports the run, or the
// system's error: construction or cancellation.
func (s *System) runContext(ctx context.Context, run func(*manager.Manager) Time) (*Report, error) {
	if err := s.Err(); err != nil {
		return nil, err
	}
	if err := s.drive(ctx, run); err != nil {
		return nil, err
	}
	return newReport(s.sim.Stats), nil
}

// drive spends the system's one run on run under ctx. A context already
// done leaves the run unspent; a system that failed to build runs nothing.
func (s *System) drive(ctx context.Context, run func(*manager.Manager) Time) error {
	m := s.sim.Manager
	if m == nil {
		s.mustRunOnce()
		return s.err
	}
	_, err := s.sim.Drive(ctx, func() Time {
		s.mustRunOnce()
		return run(m)
	})
	return err
}

func (s *System) mustRunOnce() {
	if s.ran {
		// Running a System twice is API misuse (the kernel cannot rewind),
		// not a runtime failure the caller could handle.
		panic("relief: System has already run") //lint:allow nopanic double-Run is programmer error, like sync.Once misuse
	}
	s.ran = true
}

// Checkpoint returns the sealed relief-ckpt/2 envelope captured during the
// run (the system must have been built with WithCheckpoint and run to
// completion). It errors if no capture happened — the workload never
// quiesced after the arm instant. Restore with RunFrom.
func (s *System) Checkpoint() ([]byte, error) {
	if err := s.Err(); err != nil {
		return nil, err
	}
	data, at, err := s.sim.Manager.CheckpointData()
	if err != nil {
		return nil, err
	}
	return ckpt.Seal("", "", int64(at), data)
}

// Stats exposes the raw metric sink for advanced use.
func (s *System) Stats() *stats.Stats { return s.sim.Stats }

// WriteGem5Stats dumps the run's statistics in gem5's stats.txt format —
// the output format of the paper's artifact.
func (s *System) WriteGem5Stats(w io.Writer) error { return s.sim.Stats.WriteGem5Style(w) }

// Report summarises a finished simulation.
type Report struct {
	// Edge materialisation.
	Edges       int
	Forwards    int
	Colocations int
	// Traffic and energy.
	DRAMBytes       int64
	SpadToSpadBytes int64
	DRAMEnergyJ     float64
	SPADEnergyJ     float64
	// Deadlines.
	NodesDone        int
	NodesMetDeadline int
	// Timing.
	Makespan Time
	// Resilience (all zero unless a fault plan was installed).
	AbortedDAGs         int
	Retries             int
	WatchdogFires       int
	InstanceDeaths      int
	InvalidatedForwards int
	RecoveryDRAMBytes   int64
	// MTTR is the mean time from a node's first failure to its eventual
	// completion.
	MTTR Time
	// Per-application results, keyed by app name.
	Apps map[string]AppReport

	st *stats.Stats
}

// AppReport summarises one application within a run.
type AppReport struct {
	Iterations   int
	DeadlinesMet int
	// Aborted counts DAG instances cancelled by the recovery machinery.
	Aborted int
	// Slowdown is +Inf when Starved; check the flag (or math.IsInf) before
	// aggregating or serializing it — encoding/json rejects non-finite
	// floats.
	Slowdown float64
	// Starved flags an application with no finished iteration.
	Starved  bool
	Runtimes []Time
}

func newReport(st *stats.Stats) *Report {
	dramE, spadE := st.MemoryEnergy()
	r := &Report{
		Edges:            st.Edges,
		Forwards:         st.Forwards,
		Colocations:      st.Colocations,
		DRAMBytes:        st.DRAMReadBytes + st.DRAMWriteBytes,
		SpadToSpadBytes:  st.SpadXferBytes,
		DRAMEnergyJ:      dramE,
		SPADEnergyJ:      spadE,
		NodesDone:        st.NodesDone,
		NodesMetDeadline: st.NodesMetDeadline,
		Makespan:         st.Makespan,

		AbortedDAGs:         st.Faults.DAGsAborted,
		Retries:             st.Faults.Retries,
		WatchdogFires:       st.Faults.WatchdogFires,
		InstanceDeaths:      st.Faults.InstanceDeaths,
		InvalidatedForwards: st.Faults.InvalidatedForwards,
		RecoveryDRAMBytes:   st.Faults.RecoveryDRAMBytes,
		MTTR:                st.Faults.MTTR(),

		Apps: make(map[string]AppReport),
		st:   st,
	}
	for name, a := range st.Apps {
		r.Apps[name] = AppReport{
			Iterations:   a.Iterations,
			DeadlinesMet: a.DeadlinesMet,
			Aborted:      a.Aborted,
			Slowdown:     a.Slowdown(),
			Starved:      a.Starved(),
			Runtimes:     append([]Time(nil), a.Runtimes...),
		}
	}
	return r
}

// NodeDeadlinePct returns the percentage of finished nodes that met their
// deadline.
func (r *Report) NodeDeadlinePct() float64 { return r.st.NodeDeadlinePct() }

// ForwardsPerEdge returns forwards/edges and colocations/edges in percent.
func (r *Report) ForwardsPerEdge() (fwd, col float64) { return r.st.ForwardsPerEdge() }
