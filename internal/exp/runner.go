// Package exp is the evaluation harness: it runs scheduling scenarios
// (application mix x contention level x policy x platform knobs) and
// regenerates every table and figure of the paper's evaluation section.
package exp

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"relief/internal/ckpt"
	"relief/internal/core"
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

// PolicyNames lists the six policies of the main comparison (Figs. 4-8) in
// the paper's plotting order.
var PolicyNames = []string{"FCFS", "GEDF-D", "GEDF-N", "LAX", "HetSched", "RELIEF"}

// FairnessPolicyNames adds LL and RELIEF-LAX for the QoS/fairness study
// (Figs. 9-10, Table VII).
var FairnessPolicyNames = []string{"FCFS", "GEDF-D", "GEDF-N", "LAX", "RELIEF-LAX", "LL", "HetSched", "RELIEF"}

// NewPolicy constructs a scheduling policy by its paper name.
func NewPolicy(name string) (sched.Policy, error) {
	switch name {
	case "FCFS":
		return sched.FCFS{}, nil
	case "GEDF-D":
		return sched.GEDFD{}, nil
	case "GEDF-N":
		return sched.GEDFN{}, nil
	case "LL":
		return sched.LL{}, nil
	case "LAX":
		return sched.LAX{}, nil
	case "HetSched":
		return sched.HetSched{}, nil
	case "RELIEF":
		return core.New(), nil
	case "RELIEF-LAX":
		return core.NewLAX(), nil
	case "RELIEF-NoFeas":
		return &core.RELIEF{Base: sched.LL{}, DisableFeasibility: true}, nil
	case "RELIEF-Unbounded":
		return &core.RELIEF{Base: sched.LL{}, UnboundedForwards: true}, nil
	case "RELIEF-HetSched":
		return &core.RELIEF{Base: sched.HetSched{}}, nil
	}
	return nil, fmt.Errorf("exp: unknown policy %q", name)
}

// Scenario describes one simulation.
type Scenario struct {
	Mix        []workload.App
	Contention workload.Contention
	Policy     string
	// Platform describes the simulated SoC; its zero value is the paper's
	// platform (Table VI).
	Platform PlatformSpec
	// Trace, if non-nil, records the simulation timeline.
	Trace *trace.Recorder
	// Metrics, if non-nil, collects simulated-time telemetry and latency
	// attribution (internal/metrics). Like Trace, it is excluded from the
	// sweep cache key: metricised runs must call Run directly, not Sweep.
	Metrics *metrics.Registry
	// MetricsInterval overrides the probe period (0 = 50 µs default).
	MetricsInterval sim.Time
	// Faults, if non-nil, installs deterministic fault injection and the
	// recovery machinery (resilience study). A zero-rate plan is
	// timing-neutral: results are bit-identical to no plan.
	Faults *fault.Plan
	// Period, if positive, selects periodic release: a fresh instance of
	// every mix application is released each period until Horizon,
	// regardless of completion (frame-queue arrivals). Periodic scenarios
	// take precedence over Contention and are the only ones that can be
	// checkpointed (docs/CHECKPOINT.md): between iterations the simulation
	// passes through quiescent instants.
	Period sim.Time
	// Horizon is the periodic-release cutoff (0 = the continuous-contention
	// default, 50 ms). Ignored unless Period > 0.
	Horizon sim.Time
}

// EffectiveHorizon returns the periodic run cutoff.
func (sc *Scenario) EffectiveHorizon() sim.Time {
	if sc.Horizon > 0 {
		return sc.Horizon
	}
	return workload.ContinuousHorizon
}

// Result couples a scenario with its measured statistics.
type Result struct {
	Scenario Scenario
	Stats    *stats.Stats
	// End is the simulation end time.
	End sim.Time
	// RowHitRate is the DRAM row-buffer hit rate (detailed DRAM only).
	RowHitRate float64
}

// Run executes the scenario to completion (or the continuous-contention
// horizon) and returns its metrics.
func Run(sc Scenario) (*Result, error) {
	return RunContext(context.Background(), sc)
}

// RunContext is Run with cancellation: once ctx is cancelled or times out
// the simulation aborts promptly (the kernel polls the context every few
// thousand events) and the context's error is returned with a nil Result —
// an abandoned run never leaks partial statistics. This is the entry point
// the serving layer (internal/serve) drives.
//
// A run with no observer and no fault plan takes a finished simulation of
// its platform from a free list when there is one, and puts it back, reset,
// once it returns without error; a recycled run reports exactly what a
// cold one does (docs/MODEL.md, "Simulation lifecycle").
func RunContext(ctx context.Context, sc Scenario) (*Result, error) {
	cfg, err := sc.managerConfig()
	if err != nil {
		return nil, err
	}
	if sc.Trace != nil || sc.Metrics != nil || sc.Faults != nil {
		simsCold.Add(1)
		return NewSim(cfg).runScenario(ctx, sc)
	}
	var buf [128]byte
	key := appendPlatformKey(buf[:0], cfg)
	s := freeSims.take(key)
	if s == nil {
		simsCold.Add(1)
		s = NewSim(cfg)
		s.key = string(key)
	} else {
		simsRecycled.Add(1)
		s.Stats = stats.New()
		s.Manager.Reuse(cfg, s.Stats)
	}
	res, err := s.runScenario(ctx, sc)
	if err != nil {
		return nil, err // a cancelled or failed run's simulation is dropped
	}
	s.Kernel.Reset()
	s.Manager.Reset()
	s.Stats = nil
	freeSims.put(s)
	return res, nil
}

// Sim is the lifecycle every simulation goes through: NewSim or RestoreSim
// builds the event kernel, the manager modelling the platform on it and the
// statistics sink the manager writes; the caller submits a schedule to
// Manager; Drive runs it under cancellation.
type Sim struct {
	Kernel  *sim.Kernel
	Manager *manager.Manager
	Stats   *stats.Stats

	key string // the platform's key (appendPlatformKey) on the free list
}

// NewSim builds a cold simulation of the platform cfg describes.
func NewSim(cfg manager.Config) *Sim {
	k := sim.NewKernel()
	st := stats.New()
	return &Sim{Kernel: k, Manager: manager.New(k, cfg, st), Stats: st}
}

// maxFreeSims bounds the free list of finished simulations in total: it
// holds a few per platform for the workers running it, and a stream of
// distinct platforms only turns it over.
const maxFreeSims = 8

// simList is the free list of finished simulations RunContext recycles,
// reset and keyed by their platform. It is shared by every goroutine, and
// once it is full a new entry drops the oldest.
type simList struct {
	mu   sync.Mutex
	sims []*Sim //relief:guardedby mu
}

var freeSims simList

// simsRecycled and simsCold count RunContext's runs on a simulation from
// the free list and on one built cold (SimCounts).
var simsRecycled, simsCold atomic.Int64

// SimCounts reports how many RunContext runs in this process recycled a
// finished simulation of their platform and how many built one cold:
// those with an observer or a fault plan, and those that found none free.
func SimCounts() (recycled, cold int64) { return simsRecycled.Load(), simsCold.Load() }

// take removes and returns the newest free simulation whose platform key
// is key, or nil.
func (l *simList) take(key []byte) *Sim {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := len(l.sims) - 1; i >= 0; i-- {
		if s := l.sims[i]; s.key == string(key) {
			l.sims = slices.Delete(l.sims, i, i+1)
			return s
		}
	}
	return nil
}

// put adds a reset simulation, dropping the oldest entry when full.
func (l *simList) put(s *Sim) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.sims) == maxFreeSims {
		l.sims = slices.Delete(l.sims, 0, 1)
	}
	l.sims = append(l.sims, s)
}

// errTraceCheckpoint refuses tracing across a capture or restore: the
// timeline would silently miss everything on the other side of it.
var errTraceCheckpoint = errors.New("exp: tracing cannot cross a checkpoint")

// RestoreSim builds a simulation primed with the checkpoint in env (see
// manager.Restore). cfg must describe the platform the checkpoint was taken
// on, and the caller must re-submit the full schedule before driving it.
func RestoreSim(cfg manager.Config, env *ckpt.Envelope) (*Sim, error) {
	if cfg.Trace != nil {
		return nil, errTraceCheckpoint
	}
	k := sim.NewKernel()
	m, st, err := manager.Restore(k, cfg, env.Payload)
	if err != nil {
		return nil, err
	}
	// RunFromCheckpoint checks the horizon against the envelope's instant
	// and the manager resumes at the payload's: they must be one instant.
	if at := m.ResumedFrom(); at != sim.Time(env.CapturedPs) {
		return nil, fmt.Errorf("exp: checkpoint payload captured at %v, its envelope says %v", at, sim.Time(env.CapturedPs))
	}
	return &Sim{Kernel: k, Manager: m, Stats: st}, nil
}

// Drive calls run — Manager.Run, Manager.RunContinuous or Kernel.RunUntil
// on this simulation — with ctx's cancellation wired into the kernel, and
// returns run's end time. A context already done runs nothing; one that
// ends mid-run aborts it within a few thousand events, and Drive then
// returns the context's error: an abandoned run's statistics are partial
// and must be discarded.
func (s *Sim) Drive(ctx context.Context, run func() sim.Time) (sim.Time, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	s.Kernel.SetInterrupt(ctx.Done())
	end := run()
	if s.Kernel.Interrupted() { // only ctx.Done() interrupts, so ctx.Err() is set
		return 0, fmt.Errorf("exp: run cancelled: %w", ctx.Err())
	}
	return end, nil
}

// managerConfig resolves the scenario's platform and attaches its
// observers and fault plan (shared by cold runs, checkpoint warming, and
// restore — a restored run must rebuild exactly the platform the
// checkpoint saw).
func (sc *Scenario) managerConfig() (manager.Config, error) {
	policy, err := NewPolicy(sc.Policy)
	if err != nil {
		return manager.Config{}, err
	}
	cfg, err := sc.Platform.Resolve(policy)
	if err != nil {
		return manager.Config{}, err
	}
	cfg.Fault = sc.Faults
	cfg.Trace = sc.Trace
	cfg.Metrics = sc.Metrics
	cfg.MetricsInterval = sc.MetricsInterval
	return cfg, nil
}

// submitMix registers the scenario's workload schedule with the manager: the
// periodic release grid when Period is set, otherwise one release of each
// mix application at t=0 (looping under continuous contention). Every
// iteration after the first is a clone of the application's one build. A
// restored manager skips everything that completed before its capture
// instant. It returns the DAGs it built, also on error, for freeDAGs once
// the simulation is done with them.
func submitMix(m *manager.Manager, sc Scenario) ([]*graph.DAG, error) {
	dags := make([]*graph.DAG, 0, len(sc.Mix))
	for _, app := range sc.Mix {
		d := workload.MustBuild(app)
		dags = append(dags, d)
		var err error
		switch {
		case sc.Period > 0:
			err = m.SubmitPeriodic(d, sc.Period, sc.EffectiveHorizon())
		case sc.Contention == workload.Continuous:
			err = m.SubmitLoop(d, 0)
		default:
			err = m.Submit(d, 0)
		}
		if err != nil {
			return dags, err
		}
	}
	return dags, nil
}

// freeDAGs ends the simulation's hold on DAGs: it hands the DAGs submitMix
// built, and every loop or periodic iteration the manager cloned that is
// still live, back to their free lists. The simulation must be finished or
// abandoned: nothing may run on it again.
func (s *Sim) freeDAGs(dags []*graph.DAG) {
	s.Manager.FreeLive()
	for _, d := range dags {
		d.Free()
	}
}

// runScenario submits sc's schedule and drives it to sc's end: periodic
// scenarios to their horizon, continuous contention to its cutoff, anything
// else to completion. The Result refers to no DAG, so the submitted ones
// and the iterations still live are freed on every return.
func (s *Sim) runScenario(ctx context.Context, sc Scenario) (*Result, error) {
	dags, err := submitMix(s.Manager, sc)
	defer s.freeDAGs(dags)
	if err != nil {
		return nil, err
	}
	run := s.Manager.Run
	switch {
	case sc.Period > 0:
		run = func() sim.Time { return s.Manager.RunContinuous(sc.EffectiveHorizon()) }
	case sc.Contention == workload.Continuous:
		run = func() sim.Time { return s.Manager.RunContinuous(workload.ContinuousHorizon) }
	}
	end, err := s.Drive(ctx, run)
	if err != nil {
		return nil, err
	}
	res := &Result{Scenario: sc, Stats: s.Stats, End: end}
	if dc := s.Manager.DRAMController(); dc != nil {
		res.RowHitRate = dc.RowHitRate()
	}
	return res, nil
}
