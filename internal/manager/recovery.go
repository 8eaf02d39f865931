package manager

// Recovery machinery for injected faults (docs/FAULTS.md): per-task
// watchdogs sized from the predicted runtime, bounded retry with
// exponential backoff onto a sibling instance, invalidation of forwarded
// scratchpad state the failed attempt may have consumed, and DAG-level
// graceful degradation once retries are exhausted or a required
// accelerator kind has permanently died. None of this code runs — and no
// events are armed — unless Config.Fault is set.

import (
	"fmt"
	"sort"

	"relief/internal/accel"
	"relief/internal/fault"
	"relief/internal/graph"
	"relief/internal/sim"
	"relief/internal/trace"
)

// Recovery parameter defaults (Config fields override).
const (
	defaultWatchdogMult = 8.0
	defaultMaxRetries   = 3
	defaultRetryBackoff = 2 * sim.Microsecond
	// minWatchdog floors the watchdog interval so a mispredicted
	// near-zero runtime cannot arm a hair-trigger timer.
	minWatchdog = sim.Microsecond
)

// scheduleDeaths arms the plan's scripted permanent instance deaths.
func (m *Manager) scheduleDeaths(p *fault.Plan) {
	idxs := make([]int, 0, len(p.DieAt))
	for i := range p.DieAt {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		if i < 0 || i >= len(m.insts) {
			continue
		}
		if t := p.DieAt[i]; m.resumeAt > 0 && t <= m.resumeAt {
			// Restored run: this death fired before the capture instant;
			// the instance's Dead health is part of the restored state.
			continue
		}
		inst := m.insts[i]
		// Replayable: the schedule comes from the plan, so a checkpoint can
		// skip serializing these events (see sim.AtReplay).
		m.k.AtReplay(p.DieAt[i], func() { m.killInstance(inst) })
	}
}

// armWatchdog starts the per-task recovery timer for one launch attempt.
// The deadline is the predicted runtime scaled by WatchdogMult: generous
// enough that ordinary prediction error never trips it, tight enough that
// a hung task is recovered within a few task lifetimes.
func (m *Manager) armWatchdog(n *graph.Node, inst *Instance, att int) {
	ns := m.state(n)
	pred := n.PredRuntime
	if pred <= 0 {
		pred = m.RuntimeEstimate(n)
	}
	mult := m.cfg.WatchdogMult
	if mult <= 0 {
		mult = defaultWatchdogMult
	}
	iv := sim.Time(float64(pred) * mult)
	if iv < minWatchdog {
		iv = minWatchdog
	}
	ns.wdInterval = iv
	ns.watchdog = m.k.Schedule(iv, func() { m.watchdogFired(n, inst, att) })
}

func (m *Manager) disarmWatchdog(ns *nodeState) {
	if ns.watchdog != nil {
		m.k.Cancel(ns.watchdog)
		ns.watchdog = nil
	}
}

// watchdogFired handles a watchdog expiry. Expiries on tasks that are
// still making progress (a slowed task, or plain misprediction) are false
// alarms: the timer re-arms with a doubled interval and never perturbs
// the task, so recovery only ever triggers on genuinely hung work.
func (m *Manager) watchdogFired(n *graph.Node, inst *Instance, att int) {
	ns := m.state(n)
	ns.watchdog = nil
	if ns.attempt != att || n.State != graph.Running || n.DAG.Aborted {
		return
	}
	if !ns.hung {
		ns.wdInterval *= 2
		ns.watchdog = m.k.Schedule(ns.wdInterval, func() { m.watchdogFired(n, inst, att) })
		return
	}
	m.st.Faults.WatchdogFires++
	if m.cfg.Trace.Enabled() {
		m.cfg.Trace.Instant(trace.Watchdog, n.String(), inst.Lane(), m.k.Now(), nil)
	}
	m.recover(n, inst, "hang")
}

// computeFault materialises the launch verdicts that prevent the compute
// phase from ever signalling completion. Returns true when no completion
// event must be scheduled (the watchdog owns the task from here).
func (m *Manager) computeFault(n *graph.Node, inst *Instance) bool {
	ns := m.state(n)
	switch ns.verdict {
	case fault.VerdictHang:
		ns.hung = true
		m.st.Faults.Hangs++
		if m.cfg.Trace.Enabled() {
			m.cfg.Trace.Instant(trace.Fault, "hang:"+n.String(), inst.Lane(), m.k.Now(), nil)
		}
		return true
	case fault.VerdictDie:
		// The instance dies taking the task with it; killInstance marks
		// the task hung so the watchdog recovers it onto a sibling.
		m.killInstance(inst)
		return true
	}
	return false
}

// recover handles one failed attempt of a node: free the accelerator,
// invalidate any forwarded input state the attempt consumed (forcing the
// retry to refetch consistent data from main memory), and re-dispatch
// after an exponentially growing backoff — or abort the DAG once the
// retry budget is spent.
func (m *Manager) recover(n *graph.Node, inst *Instance, cause string) {
	ns := m.state(n)
	m.disarmWatchdog(ns)
	now := m.k.Now()
	freeInst := func() {
		// The deferred handler compares against n, so n's iteration
		// stays unretired until it has run.
		it := iter(n.DAG)
		it.refs++
		m.isrWork(func() sim.Time {
			inst.Busy = false
			if inst.curNode == n {
				inst.curNode = nil
			}
			it.refs--
			m.maybeRetire(it)
			return 0
		})
	}
	if n.DAG.Aborted {
		freeInst()
		return
	}
	if ns.failAt == 0 {
		ns.failAt = now
	}
	freeInst()
	ns.avoid = inst
	n.State = graph.Waiting
	ns.retries++
	maxR := m.cfg.MaxRetries
	if maxR <= 0 {
		maxR = defaultMaxRetries
	}
	if ns.retries > maxR {
		m.abortDAG(n.DAG, fmt.Sprintf("retries exhausted on %s (%s)", n.Name, cause))
		return
	}
	m.st.Faults.Retries++

	// The failed attempt may have consumed forwarded or colocated parent
	// data mid-fault: invalidate those scratchpad copies so the retry
	// reads a consistent image from main memory, writing back first when
	// main memory doesn't have one yet.
	for _, p := range n.Parents {
		ps := m.state(p)
		if ps.lost {
			m.abortDAG(n.DAG, fmt.Sprintf("output of %s lost with its instance", p.Name))
			return
		}
		if !m.outputLive(p) {
			continue
		}
		m.st.Faults.InvalidatedForwards++
		if !ps.wbDone && !ps.wbInFlight {
			m.st.Faults.RecoveryDRAMBytes += p.OutputBytes
			m.startWriteback(p, ps.inst, false)
		}
		ps.inst.Parts[ps.part].Node = nil
	}

	bo := m.cfg.RetryBackoff
	if bo <= 0 {
		bo = defaultRetryBackoff
	}
	bo <<= uint(ns.retries - 1)
	if m.cfg.Trace.Enabled() {
		m.cfg.Trace.Span(trace.Retry, n.String()+" ("+cause+")", inst.Lane(), now, now+bo, nil)
	}
	ns.retryEv = m.k.Schedule(bo, func() {
		ns.retryEv = nil
		if n.DAG.Aborted {
			return
		}
		ns.pendingInputs = 0
		ns.gateFired = false
		ns.hung = false
		ns.verdict = fault.VerdictNone
		m.isrWork(func() sim.Time { return m.insertPlain(n) })
	})
}

// killInstance permanently removes an accelerator instance: its current
// task is stranded for the watchdog, unwritten outputs in its scratchpad
// are lost, and — when it was the last of its kind — every active DAG
// that still needs the kind is aborted so the simulation cannot wedge.
func (m *Manager) killInstance(inst *Instance) {
	if inst.Health == accel.Dead {
		return
	}
	inst.Health = accel.Dead
	m.deaths++
	m.st.Faults.InstanceDeaths++
	if m.cfg.Trace.Enabled() {
		m.cfg.Trace.Instant(trace.Fault, "death", inst.Lane(), m.k.Now(), nil)
	}
	for _, buf := range inst.Parts {
		if o := buf.Node; o != nil {
			os := m.state(o)
			if !os.wbDone && !os.wbInFlight {
				os.lost = true
			}
			buf.Node = nil
		}
	}
	if cur := inst.curNode; cur != nil {
		cs := m.state(cur)
		if cs.compEv != nil {
			m.k.Cancel(cs.compEv)
			cs.compEv = nil
		}
		cs.hung = true
	}
	if m.liveCount(int(inst.Kind)) == 0 {
		doomed := append([]*graph.DAG(nil), m.active...)
		for _, d := range doomed {
			if m.dagNeedsKind(d, inst.Kind) {
				m.abortDAG(d, "no live "+inst.Kind.String()+" instance")
			}
		}
	}
}

// abortDAG cancels an unfinished DAG cleanly: pending nodes leave every
// ready queue, timers are disarmed, scratchpad claims are released, and
// stranded accelerators are freed. In-flight transfers and computes drain
// through the abort guards in inputDone/complete, so no events leak and
// the simulation always terminates.
func (m *Manager) abortDAG(d *graph.DAG, reason string) {
	if d.Aborted || d.Finished() {
		return
	}
	d.Aborted = true
	d.AbortReason = reason
	m.inFlight--
	m.dropActive(d)
	m.st.Faults.DAGsAborted++
	iter(d).app.Aborted++
	if m.cfg.Trace.Enabled() {
		m.cfg.Trace.Instant(trace.Abort,
			fmt.Sprintf("%s#%d: %s", d.App, d.Iteration, reason), "manager", m.k.Now(), nil)
	}
	for kind := range m.queues {
		q := m.queues[kind][:0]
		for _, n := range m.queues[kind] {
			if n.DAG != d {
				q = append(q, n)
			}
		}
		m.queues[kind] = q
	}
	for _, n := range d.Nodes {
		ns := m.state(n)
		m.disarmWatchdog(ns)
		if ns.retryEv != nil {
			m.k.Cancel(ns.retryEv)
			ns.retryEv = nil
		}
		if m.outputLive(n) {
			ns.inst.Parts[ns.part].Node = nil
		}
	}
	// Hung tasks have no future event to release their accelerator; free
	// them here. Tasks mid-input or mid-compute self-release on abort.
	freed := false
	for _, inst := range m.insts {
		if n := inst.curNode; n != nil && n.DAG == d {
			ns := m.state(n)
			if ns.gateFired && ns.compEv == nil {
				inst.Busy = false
				inst.curNode = nil
				freed = true
			}
		}
	}
	if freed {
		m.isrWork(func() sim.Time { return 0 })
	}
}

// dropActive removes a finished or aborted DAG from the active list.
func (m *Manager) dropActive(d *graph.DAG) {
	if m.inj == nil {
		return
	}
	for i, x := range m.active {
		if x == d {
			m.active = append(m.active[:i], m.active[i+1:]...)
			return
		}
	}
}

// missingKind returns an accelerator kind the DAG still needs but has no
// live instance of.
func (m *Manager) missingKind(d *graph.DAG) (accel.Kind, bool) {
	for _, n := range d.Nodes {
		if n.State != graph.Done && m.liveCount(int(n.Kind)) == 0 {
			return n.Kind, true
		}
	}
	return 0, false
}

// dagNeedsKind reports whether any unfinished node of d runs on kind.
func (m *Manager) dagNeedsKind(d *graph.DAG, kind accel.Kind) bool {
	for _, n := range d.Nodes {
		if n.Kind == kind && n.State != graph.Done {
			return true
		}
	}
	return false
}
