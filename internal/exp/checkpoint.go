package exp

import (
	"context"
	"fmt"

	"relief/internal/ckpt"
	"relief/internal/sim"
)

// RunToCheckpoint warms a periodic scenario and captures its state at the
// first quiescent release at or after warmAt, returning the sealed
// relief-ckpt/2 envelope (see internal/ckpt and docs/CHECKPOINT.md). The
// warm run continues draining (cheaply — every remaining release is a
// no-op) to its horizon; its statistics are discarded. It errors if the
// workload never quiesces after warmAt — a saturated mix whose iterations
// overlap has no capturable instant, and callers should fall back to a
// full run.
func RunToCheckpoint(ctx context.Context, sc Scenario, warmAt sim.Time) ([]byte, error) {
	return warmCheckpoint(ctx, sc, func(s *Sim) { s.Manager.ArmCheckpoint(warmAt) })
}

// warmCheckpoint runs a periodic scenario from cold with the checkpoint
// trigger arm installs on the built simulation, and seals the state the
// manager captured under the scenario's keys.
func warmCheckpoint(ctx context.Context, sc Scenario, arm func(*Sim)) ([]byte, error) {
	if sc.Period <= 0 {
		return nil, fmt.Errorf("exp: checkpointing requires a periodic scenario (Period > 0)")
	}
	if sc.Trace != nil {
		return nil, errTraceCheckpoint
	}
	cfg, err := sc.managerConfig()
	if err != nil {
		return nil, err
	}
	s := NewSim(cfg)
	arm(s)
	if _, err := s.runScenario(ctx, sc); err != nil {
		return nil, err
	}
	data, at, err := s.Manager.CheckpointData()
	if err != nil {
		return nil, err
	}
	return ckpt.Seal(ScenarioKey(sc), ForkKey(sc), int64(at), data)
}

// RunFromCheckpoint resumes a warmed simulation and runs it to the
// scenario's horizon. The scenario must match the checkpoint's fork key —
// everything except the horizon — and its horizon must lie beyond the
// capture instant. The result is byte-identical to an uninterrupted run of
// the same scenario.
func RunFromCheckpoint(ctx context.Context, sc Scenario, env *ckpt.Envelope) (*Result, error) {
	if sc.Period <= 0 {
		return nil, fmt.Errorf("exp: checkpointing requires a periodic scenario (Period > 0)")
	}
	if fk := ForkKey(sc); env.ForkKey != fk {
		return nil, fmt.Errorf("exp: checkpoint fork key mismatch:\n  checkpoint %q\n  scenario   %q", env.ForkKey, fk)
	}
	capturedAt := sim.Time(env.CapturedPs)
	if capturedAt >= sc.EffectiveHorizon() {
		return nil, fmt.Errorf("exp: checkpoint captured at %v, at or beyond the %v horizon", capturedAt, sc.EffectiveHorizon())
	}
	cfg, err := sc.managerConfig()
	if err != nil {
		return nil, err
	}
	s, err := RestoreSim(cfg, env)
	if err != nil {
		return nil, err
	}
	return s.runScenario(ctx, sc)
}
