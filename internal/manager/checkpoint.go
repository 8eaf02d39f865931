package manager

// Checkpoint/restore of a warmed simulation (docs/CHECKPOINT.md).
//
// A checkpoint is only taken at a *quiescent instant*: the top of a DAG
// release when no released DAG is still in flight and every event left in
// the kernel queue is replayable from the simulation's inputs (pending
// periodic releases, scripted instance deaths — see sim.AtReplay). At such
// an instant the live state of the run collapses to accumulated accounting:
// statistics, busy-time integrals, bank row buffers, predictor observation
// history, and the fault injector's PRNG position. None of the cyclic
// runtime structures (DAGs, node states, scratchpad residency) need to be
// serialized — finished DAGs are never referenced again, and the reclaim
// paths that could observe stale scratchpad residents are provably no-ops
// for completed work — so a restored run re-creates the event queue by
// re-submitting the schedule and continues bit-identically.
//
// Sequence numbers: the restored kernel continues numbering from the
// captured value, so re-created release events carry sequence numbers that
// are uniformly shifted from the uninterrupted run's but relatively ordered
// the same (deaths re-armed first, then releases in submission order,
// before any dynamically scheduled event — exactly the cold ordering).
// Dispatch compares (at, seq) and absolute values are observable nowhere,
// so dispatch order — and therefore every result byte — is unchanged.

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"relief/internal/accel"
	"relief/internal/dram"
	"relief/internal/fault"
	"relief/internal/graph"
	"relief/internal/predict"
	"relief/internal/sim"
	"relief/internal/stats"
	"relief/internal/xbar"
)

// Checkpoint is the complete serializable state of a quiescent simulation.
// All fields are exported for gob.
type Checkpoint struct {
	// CapturedAt is the quiescent instant (a DAG release time).
	CapturedAt sim.Time
	// Kernel is the clock and sequence counter.
	Kernel sim.KernelState
	// Stats is the accumulated statistics object, less its Apps map: gob
	// encodes a map in iteration order, so the map travels as Apps.
	Stats *stats.Stats
	// Apps is Stats.Apps sorted by name, so one state encodes to one byte
	// sequence. Restore rebuilds the map from it.
	Apps []*stats.AppStats
	// FreeAt is the manager microcontroller's busy-until time.
	FreeAt sim.Time
	// LastDone is the completion time of the last finished DAG.
	LastDone sim.Time
	// Deaths counts permanently dead instances.
	Deaths int
	// Instances carries per-accelerator accumulated state, in index order.
	Instances []InstanceState
	// Interconnect is the link/occupancy accounting.
	Interconnect xbar.State
	// DRAM is the bank-level controller state (nil without DetailedDRAM).
	DRAM *dram.ControllerState
	// BW is the bandwidth predictor's observation history.
	BW predict.BWState
	// Injector is the fault injector's PRNG draw position (zero without a
	// fault plan).
	Injector fault.InjectorState
}

// InstanceState is one accelerator instance's serializable state. Scratchpad
// residency (Parts, LastNode) is deliberately absent: at a quiescent instant
// every resident output belongs to a finished DAG, and such residents are
// unreachable — cross-DAG nodes never appear among a new node's parents, and
// the partition-reclaim writeback test is a no-op for any node that is
// either written back or fully fetched (all completed work is one or the
// other). Restoring empty scratchpads is therefore bit-identical.
type InstanceState struct {
	Kind        int
	ComputeBusy sim.Time
	Health      int
	NextPart    int
}

// captureArm is the pending-capture state installed by ArmCheckpoint.
type captureArm struct {
	armAt sim.Time
	done  bool
	data  []byte
	at    sim.Time
	err   error
}

// ArmCheckpoint asks the manager to capture a checkpoint at the first
// quiescent DAG release at or after time at, then skip all remaining
// releases (the run drains cheaply to its horizon). Must be called before
// the run starts. Only releases scheduled before the run can capture:
// Submit's, and SubmitPeriodic's for every iteration (each a clone of its
// template). SubmitLoop releases each later clone when the previous one
// finishes, so once a loop has started the run reports no checkpoint.
func (m *Manager) ArmCheckpoint(at sim.Time) {
	m.ckpt = &captureArm{armAt: at}
}

// CheckpointData returns the gob-encoded checkpoint captured during the run
// and its capture time. It errors if no checkpoint was armed, the run never
// reached a quiescent release after the arm time, or the capture itself
// failed.
func (m *Manager) CheckpointData() ([]byte, sim.Time, error) {
	if m.ckpt == nil {
		return nil, 0, fmt.Errorf("manager: no checkpoint armed")
	}
	if !m.ckpt.done {
		return nil, 0, fmt.Errorf("manager: run never quiesced at a release after %v (workload saturated or horizon too short); no checkpoint", m.ckpt.armAt)
	}
	return m.ckpt.data, m.ckpt.at, m.ckpt.err
}

// ResumedFrom returns the capture time of the checkpoint this manager was
// restored from (zero for a cold run).
func (m *Manager) ResumedFrom() sim.Time { return m.resumeAt }

// maybeCapture runs at the top of every DAG release when a checkpoint is
// armed. It reports true when the release must not proceed: either the
// capture just happened here (this release and everything after it will be
// re-derived by the restored run) or it already has (the run is draining).
func (m *Manager) maybeCapture(d *graph.DAG) bool {
	a := m.ckpt
	if a == nil {
		return false
	}
	if a.done {
		return true
	}
	// A looping DAG's later iterations are released when the previous one
	// finishes, not from the schedule: a restored run could not re-derive
	// such a release.
	if m.k.Now() < a.armAt || m.inFlight != 0 || m.k.PendingNonReplay() != 0 || d.Loop && d.Iteration > 0 {
		return false
	}
	a.done = true
	a.at = m.k.Now()
	a.data, a.err = m.capture()
	return true
}

// capture serializes the quiescent state. The encode happens immediately —
// by value — so nothing the draining run mutates afterwards can leak in.
func (m *Manager) capture() ([]byte, error) {
	st := *m.st
	st.Apps = nil
	ck := Checkpoint{
		CapturedAt: m.k.Now(),
		Kernel:     m.k.CaptureState(),
		Stats:      &st,
		FreeAt:     m.freeAt,
		LastDone:   m.lastDone,
		Deaths:     m.deaths,
		BW:         predict.CaptureBW(m.cfg.BW),
		Injector:   m.inj.CaptureState(),
	}
	for _, name := range m.st.AppNames() {
		ck.Apps = append(ck.Apps, m.st.Apps[name])
	}
	for _, inst := range m.insts {
		if inst.Busy || inst.dmaBusy || inst.curNode != nil {
			return nil, fmt.Errorf("manager: instance %s busy at capture", inst.Lane())
		}
		ck.Instances = append(ck.Instances, InstanceState{
			Kind:        int(inst.Kind),
			ComputeBusy: inst.ComputeBusy,
			Health:      int(inst.Health),
			NextPart:    inst.NextPart,
		})
	}
	ics, err := m.ic.CaptureState()
	if err != nil {
		return nil, err
	}
	ck.Interconnect = ics
	if m.dram != nil {
		ds, err := m.dram.CaptureState()
		if err != nil {
			return nil, err
		}
		ck.DRAM = &ds
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&ck); err != nil {
		return nil, fmt.Errorf("manager: checkpoint encode: %w", err)
	}
	return buf.Bytes(), nil
}

// Restore builds a manager primed with a captured checkpoint on a fresh
// kernel. The configuration must describe the same platform the checkpoint
// was taken on (same instances, topology, predictors, fault plan); the
// caller then re-submits the full workload schedule — the manager skips
// everything that completed before the capture instant — and runs to the
// horizon as usual. The restored run's results are byte-identical to the
// uninterrupted run's.
func Restore(k *sim.Kernel, cfg Config, data []byte) (*Manager, *stats.Stats, error) {
	var ck Checkpoint
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&ck); err != nil {
		return nil, nil, fmt.Errorf("manager: checkpoint decode: %w", err)
	}
	if ck.Stats == nil || ck.CapturedAt <= 0 {
		return nil, nil, fmt.Errorf("manager: checkpoint has no captured state")
	}
	// capture() reads both from the same clock, so they always agree.
	if ck.Kernel.Now != ck.CapturedAt {
		return nil, nil, fmt.Errorf("manager: checkpoint kernel clock %v differs from its capture instant %v", ck.Kernel.Now, ck.CapturedAt)
	}
	// The manager's clocks are times the run has reached by the capture.
	// FreeAt too: while the core is busy past now, its launch pass is a
	// pending event that is not replayable, and capture requires none.
	if ck.FreeAt < 0 || ck.FreeAt > ck.CapturedAt || ck.LastDone < 0 || ck.LastDone > ck.CapturedAt {
		return nil, nil, fmt.Errorf("manager: checkpoint manager times (free at %v, last done %v) outside [0, %v]", ck.FreeAt, ck.LastDone, ck.CapturedAt)
	}
	ck.Stats.Apps = make(map[string]*stats.AppStats, len(ck.Apps))
	for _, a := range ck.Apps {
		if ck.Stats.Apps[a.App] != nil {
			return nil, nil, fmt.Errorf("manager: checkpoint lists application %q twice", a.App)
		}
		ck.Stats.Apps[a.App] = a
	}
	if err := k.RestoreState(ck.Kernel); err != nil {
		return nil, nil, err
	}
	m := newManager(k, cfg, ck.Stats, ck.CapturedAt)
	m.freeAt = ck.FreeAt
	m.lastDone = ck.LastDone
	m.deaths = ck.Deaths
	if len(ck.Instances) != len(m.insts) {
		return nil, nil, fmt.Errorf("manager: restore platform has %d instances, checkpoint has %d", len(m.insts), len(ck.Instances))
	}
	dead := 0
	for i, is := range ck.Instances {
		inst := m.insts[i]
		if int(inst.Kind) != is.Kind {
			return nil, nil, fmt.Errorf("manager: restore instance %d kind mismatch with checkpoint", i)
		}
		if is.NextPart < 0 || is.NextPart >= len(inst.Parts) {
			return nil, nil, fmt.Errorf("manager: checkpoint instance %d next partition %d outside [0, %d)", i, is.NextPart, len(inst.Parts))
		}
		if is.Health < 0 || is.Health > int(accel.Dead) {
			return nil, nil, fmt.Errorf("manager: checkpoint instance %d has invalid health %d", i, is.Health)
		}
		if is.ComputeBusy < 0 {
			return nil, nil, fmt.Errorf("manager: checkpoint instance %d has negative compute busy time %v", i, is.ComputeBusy)
		}
		if is.Health == int(accel.Dead) {
			dead++
		}
		inst.ComputeBusy = is.ComputeBusy
		inst.Health = accel.Health(is.Health)
		inst.NextPart = is.NextPart
	}
	// killInstance counts every death exactly once.
	if ck.Deaths != dead {
		return nil, nil, fmt.Errorf("manager: checkpoint counts %d instance deaths but has %d dead instances", ck.Deaths, dead)
	}
	if err := m.ic.RestoreState(ck.Interconnect); err != nil {
		return nil, nil, err
	}
	if (m.dram != nil) != (ck.DRAM != nil) {
		return nil, nil, fmt.Errorf("manager: restore DRAM model mismatch with checkpoint")
	}
	if m.dram != nil {
		if err := m.dram.RestoreState(*ck.DRAM, ck.CapturedAt); err != nil {
			return nil, nil, err
		}
	}
	if err := predict.RestoreBW(m.cfg.BW, ck.BW); err != nil {
		return nil, nil, err
	}
	if cfg.Fault != nil {
		in, err := cfg.Fault.RestoreInjector(ck.Injector)
		if err != nil {
			return nil, nil, err
		}
		m.inj = in
		if m.dram != nil {
			m.dram.SetFault(in.DRAM)
		}
	} else if ck.Injector != (fault.InjectorState{}) {
		return nil, nil, fmt.Errorf("manager: checkpoint carries fault state but configuration has no fault plan")
	}
	return m, ck.Stats, nil
}
