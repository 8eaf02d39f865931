package manager

import (
	"fmt"

	"relief/internal/accel"
	"relief/internal/fault"
	"relief/internal/graph"
	"relief/internal/mem"
	"relief/internal/sim"
	"relief/internal/stats"
	"relief/internal/trace"
	"relief/internal/xbar"
)

// Instance is one physical accelerator: a fixed-function unit with a DMA
// engine and a multi-buffered output scratchpad (paper Table IV metadata).
type Instance struct {
	m     *Manager
	Index int // interconnect endpoint id
	Kind  accel.Kind
	Busy  bool
	// LastNode is the previously executed node, tracked for colocation.
	LastNode *graph.Node
	// Parts are the output scratchpad partitions (multi-buffering).
	Parts []*OutBuf
	// NextPart rotates through output partitions.
	NextPart int
	// ComputeBusy accumulates pure compute time for occupancy (Fig. 7).
	ComputeBusy sim.Time
	// Health tracks the instance through fault injection; a Dead instance
	// is permanently unschedulable.
	Health accel.Health

	// curNode is the node currently launched on the instance (nil when
	// idle), tracked so instance death can strand it for the watchdog.
	curNode *graph.Node
	// compPart and compDur are curNode's output partition and compute
	// time while its compute phase runs; compFn, the bound computeDone,
	// completes it. An instance computes one node at a time: a transient
	// failure still completes the event, and death cancels it.
	compPart int
	compDur  sim.Time
	compFn   func()

	dmaQueue []*dmaJob // queued jobs, dmaQueue[dmaHead:] live
	dmaHead  int
	dmaBusy  bool
	dmaFree  *dmaJob // recycled job records
}

// OutBuf is one output scratchpad partition.
type OutBuf struct {
	// Node whose output occupies the partition (nil = free/invalidated).
	Node *graph.Node
	// OngoingReads counts consumers currently forwarding from the
	// partition; the partition cannot be overwritten while non-zero
	// (write-after-read protection, paper Table IV ongoing_reads).
	OngoingReads int
	drainWaiters []func()
}

// dmaKind selects what a finished DMA job does.
type dmaKind uint8

const (
	dmaForward   dmaKind = iota // consumer reads a producer's scratchpad
	dmaDRAMRead                 // consumer reads main memory
	dmaWriteback                // producer output copied to main memory
)

// dmaJob is one transfer on an instance's DMA engine. Jobs are recycled
// per instance: the record carries everything its completion needs, and
// the completion callback is bound once per record, so programming a DMA
// builds no closure.
type dmaJob struct {
	inst    *Instance
	kind    dmaKind
	path    []mem.Server
	bytes   int64
	attempt int // corruption-triggered re-runs so far

	n    *graph.Node // consumer (forward, DRAM read) or producer (write-back)
	part int         // input gates: the consumer's output partition
	att  int         // input gates: the consumer's launch attempt
	p    *graph.Node // forward: the producer
	pbuf *OutBuf     // forward: the producer partition being read
	// finish marks a write-back whose node is finalised once written.
	finish bool

	doneFn   func(mem.TransferResult) // bound j.done
	freeNext *dmaJob
}

func newInstance(m *Manager, index int, kind accel.Kind, partitions int) *Instance {
	inst := &Instance{m: m, Index: index, Kind: kind}
	inst.compFn = inst.computeDone
	for i := 0; i < partitions; i++ {
		inst.Parts = append(inst.Parts, &OutBuf{})
	}
	return inst
}

// reset returns the instance to its state when built (Manager.Reset),
// keeping its partitions, its DMA queue's array and its free job records.
func (inst *Instance) reset() {
	for _, b := range inst.Parts {
		*b = OutBuf{}
	}
	clear(inst.dmaQueue)
	*inst = Instance{m: inst.m, Index: inst.Index, Kind: inst.Kind, Parts: inst.Parts, compFn: inst.compFn,
		dmaQueue: inst.dmaQueue[:0], dmaFree: inst.dmaFree}
}

// Lane returns the instance's display label for traces.
func (inst *Instance) Lane() string {
	return fmt.Sprintf("%s#%d", inst.Kind, inst.Index)
}

// newDMA returns a job record of the given kind for a transfer of
// bytes over path, recycled from the instance's free list when possible.
func (inst *Instance) newDMA(kind dmaKind, path []mem.Server, bytes int64, n *graph.Node) *dmaJob {
	j := inst.dmaFree
	if j == nil {
		j = &dmaJob{inst: inst}
		j.doneFn = j.done
	} else {
		inst.dmaFree = j.freeNext
		j.freeNext = nil
	}
	j.kind, j.path, j.bytes, j.n = kind, path, bytes, n
	iter(n.DAG).refs++
	return j
}

// enqueueDMA serialises a job on the instance's single DMA engine.
func (inst *Instance) enqueueDMA(j *dmaJob) {
	inst.dmaQueue = append(inst.dmaQueue, j)
	if !inst.dmaBusy {
		inst.dmaBusy = true
		inst.nextDMA()
	}
}

// maxDMARetries bounds corruption-triggered re-transfers per job so a
// pathological corruption rate cannot loop forever.
const maxDMARetries = 8

// nextDMA starts the queue head, or idles the engine. The queue compacts
// lazily, like Resource's FIFO.
func (inst *Instance) nextDMA() {
	if inst.dmaHead == len(inst.dmaQueue) {
		inst.dmaQueue = inst.dmaQueue[:0]
		inst.dmaHead = 0
		inst.dmaBusy = false
		return
	}
	j := inst.dmaQueue[inst.dmaHead]
	inst.dmaQueue[inst.dmaHead] = nil
	inst.dmaHead++
	if inst.dmaHead > 64 && inst.dmaHead*2 > len(inst.dmaQueue) {
		n := copy(inst.dmaQueue, inst.dmaQueue[inst.dmaHead:])
		clear(inst.dmaQueue[n:])
		inst.dmaQueue = inst.dmaQueue[:n]
		inst.dmaHead = 0
	}
	inst.startDMA(j)
}

// startDMA runs one attempt of a DMA job. Main-memory jobs are eligible
// for injected DRAM error stalls when the fixed-bandwidth memory model is
// in use.
func (inst *Instance) startDMA(j *dmaJob) {
	m := inst.m
	var fi mem.FaultInjector
	setup := m.cfg.DMASetup
	if m.inj != nil {
		fi = m.inj
		if j.kind != dmaForward && m.dram == nil {
			// Fixed-bandwidth memory model: charge injected DRAM error
			// bursts as front-end stall (the detailed controller injects
			// them itself via SetFault).
			setup += m.inj.DRAM(j.bytes)
		}
	}
	mem.StartTransferFI(m.k, j.path, j.bytes, setup, fi, j.doneFn)
}

// done completes a DMA attempt. An injected CRC failure re-runs the job
// (the engine detects the corruption at transfer end and retries, charging
// the repeat traffic to recovery stats); otherwise the job's completion
// runs, the record is recycled and the engine moves on.
func (j *dmaJob) done(res mem.TransferResult) {
	inst := j.inst
	m := inst.m
	if res.Corrupt && j.attempt < maxDMARetries {
		m.st.Faults.RetriedDMABytes += j.bytes
		if m.cfg.Trace.Enabled() {
			m.cfg.Trace.Instant(trace.Fault, "dma-crc", inst.Lane(), res.End, nil)
		}
		j.attempt++
		inst.startDMA(j)
		return
	}
	switch j.kind {
	case dmaForward:
		m.forwardDone(j, res)
	case dmaDRAMRead:
		m.dramReadDone(j, res)
	case dmaWriteback:
		m.writebackDone(j, res)
	}
	it := iter(j.n.DAG)
	*j = dmaJob{inst: inst, doneFn: j.doneFn, freeNext: inst.dmaFree}
	inst.dmaFree = j
	it.refs--
	m.maybeRetire(it)
	inst.nextDMA()
}

// readDrained registers fn to run once no consumer is reading the
// partition.
func (b *OutBuf) readDrained(fn func()) {
	if b.OngoingReads == 0 {
		fn()
		return
	}
	b.drainWaiters = append(b.drainWaiters, fn)
}

func (b *OutBuf) endRead() {
	b.OngoingReads--
	if b.OngoingReads == 0 {
		ws := b.drainWaiters
		b.drainWaiters = nil
		for _, fn := range ws {
			fn()
		}
	}
}

// launch drives a node onto the instance: the driver programs input DMA
// transfers (forwarding from producer scratchpads when the data is still
// live, falling back to main memory otherwise), reclaims the output
// partition (writing back a still-needed previous result first), then runs
// the computation.
func (m *Manager) launch(n *graph.Node, inst *Instance) {
	inst.Busy = true
	inst.curNode = n
	n.State = graph.Running
	n.StartAt = m.k.Now()
	if m.cfg.Trace.Enabled() {
		m.cfg.Trace.Begin(trace.TaskInput, n.String(), inst.Lane(), n.StartAt, nil)
	}
	ns := m.state(n)
	ns.pendingInputs = 1 // sentinel, released after all gates are set up
	ns.gateFired = false
	ns.hung = false
	ns.computeStart, ns.computeDur = 0, 0
	ns.dmaPure, ns.dmaStall = 0, 0
	ns.attempt++
	att := ns.attempt
	if m.inj != nil {
		ns.verdict = m.inj.Task()
		m.armWatchdog(n, inst, att)
	}

	// Output partition reclaim.
	part := inst.NextPart
	inst.NextPart = (inst.NextPart + 1) % len(inst.Parts)
	buf := inst.Parts[part]
	if old := buf.Node; old != nil {
		os := m.state(old)
		if !m.cfg.DisableForwarding && !os.wbDone && !os.wbInFlight &&
			!old.IsLeaf() && os.fetched < len(old.Children) {
			// Unconsumed intermediate result about to be overwritten:
			// write it back to main memory first.
			m.startWriteback(old, inst, false)
		}
		if os.wbInFlight {
			ns.pendingInputs++
			os.wbWaiters = append(os.wbWaiters, func() { m.inputDone(n, inst, part, att) })
		}
		if buf.OngoingReads > 0 {
			ns.pendingInputs++
			buf.readDrained(func() { m.inputDone(n, inst, part, att) })
		}
	}

	// Input edges.
	m.st.BaselineBytes += n.TotalInputBytes() + n.OutputBytes
	app := iter(n.DAG).app
	for i, p := range n.Parents {
		bytes := n.EdgeInBytes[i]
		m.fetchEdge(n, inst, part, p, bytes, app, att)
	}
	if n.ExtraInputBytes > 0 {
		ns.pendingInputs++
		m.dramReadStarted(n, inst, part, n.ExtraInputBytes, att)
	}

	m.inputDone(n, inst, part, att) // release the sentinel
}

// fetchEdge classifies one producer edge (colocation / forward / main
// memory) and programs the consumer-side DMA accordingly.
func (m *Manager) fetchEdge(n *graph.Node, inst *Instance, part int, p *graph.Node, bytes int64, app *stats.AppStats, att int) {
	ns := m.state(n)
	ps := m.state(p)
	live := !m.cfg.DisableForwarding && m.outputLive(p)
	switch {
	case live && ps.inst == inst:
		// Colocation: the consumer runs on the producer's accelerator and
		// the data is already in the local scratchpad — no data movement.
		m.st.RecordEdge(app, stats.EdgeColocation)
		ps.fetched++
	case live:
		// Forward: consumer DMA reads directly from the producer's
		// scratchpad over the interconnect.
		m.st.RecordEdge(app, stats.EdgeForward)
		ps.fetched++
		pbuf := ps.inst.Parts[ps.part]
		pbuf.OngoingReads++
		ns.pendingInputs++
		j := inst.newDMA(dmaForward, m.ic.Path(ps.inst.Index, inst.Index), bytes, n)
		j.part, j.att, j.p, j.pbuf = part, att, p, pbuf
		inst.enqueueDMA(j)
	default:
		// The producer's result lives only in main memory. If its
		// write-back is still in flight the read waits for it.
		m.st.RecordEdge(app, stats.EdgeDRAM)
		ps.fetched++
		ns.pendingInputs++
		if ps.wbInFlight {
			ps.wbWaiters = append(ps.wbWaiters, func() {
				m.dramReadStarted(n, inst, part, bytes, att)
			})
		} else {
			m.dramReadStarted(n, inst, part, bytes, att)
		}
	}
}

// forwardDone completes a scratchpad-to-scratchpad input transfer.
func (m *Manager) forwardDone(j *dmaJob, res mem.TransferResult) {
	j.pbuf.endRead()
	if m.cfg.Trace.Enabled() {
		m.cfg.Trace.Span(trace.Forward, j.p.String()+"->"+j.n.String(), j.inst.Lane(), res.Start, res.End, nil)
	}
	m.st.SpadXferBytes += j.bytes
	m.noteSpadBytes(2 * j.bytes) // producer read + consumer write
	ns := m.state(j.n)
	ns.actualMemTime += res.End - res.Start
	ns.actualBytes += j.bytes
	if m.met != nil {
		m.noteDMAInput(ns, j.path, j.bytes, res)
	}
	m.inputDone(j.n, j.inst, j.part, j.att)
}

// dramReadStarted issues a main-memory input read that was already counted
// in pendingInputs.
func (m *Manager) dramReadStarted(n *graph.Node, inst *Instance, part int, bytes int64, att int) {
	j := inst.newDMA(dmaDRAMRead, m.ic.Path(xbar.EndpointDRAM, inst.Index), bytes, n)
	j.part, j.att = part, att
	inst.enqueueDMA(j)
}

// dramReadDone completes a main-memory input read.
func (m *Manager) dramReadDone(j *dmaJob, res mem.TransferResult) {
	ns := m.state(j.n)
	m.st.DRAMReadBytes += j.bytes
	m.noteSpadBytes(j.bytes) // consumer scratchpad write
	m.observeDRAMTransfer(res)
	ns.actualMemTime += res.End - res.Start
	ns.actualBytes += j.bytes
	ns.dramBytes += j.bytes
	ns.dramTime += res.End - res.Start
	if m.met != nil {
		m.noteDMAInput(ns, j.path, j.bytes, res)
	}
	m.inputDone(j.n, j.inst, j.part, j.att)
}

// inputDone decrements the launch gate; when it reaches zero the
// computation starts. att is the launch attempt the callback belongs to:
// transfers programmed for a superseded attempt (recovered by the
// watchdog while their data was still in flight) complete their physical
// bookkeeping but no longer gate anything.
func (m *Manager) inputDone(n *graph.Node, inst *Instance, part int, att int) {
	ns := m.state(n)
	if att != ns.attempt {
		return
	}
	ns.pendingInputs--
	if ns.pendingInputs > 0 || ns.gateFired {
		return
	}
	ns.gateFired = true
	// The partition is now being overwritten: invalidate the previous
	// occupant so late consumers fall back to main memory.
	inst.Parts[part].Node = nil
	if n.DAG.Aborted {
		// The DAG was cancelled while inputs streamed in: release the
		// accelerator, run nothing.
		m.isrWork(func() sim.Time {
			inst.Busy = false
			inst.curNode = nil
			return 0
		})
		return
	}
	if ns.hung || inst.Health == accel.Dead {
		// The instance died during the input phase; the watchdog will
		// recover the task.
		ns.hung = true
		return
	}
	if m.inj != nil && m.computeFault(n, inst) {
		return
	}
	dur := m.jitteredCompute(n)
	if ns.verdict == fault.VerdictSlow {
		dur = sim.Time(float64(dur) * m.inj.SlowFactor())
		m.st.Faults.Slowdowns++
		if m.cfg.Trace.Enabled() {
			m.cfg.Trace.Instant(trace.Fault, "slow:"+n.String(), inst.Lane(), m.k.Now(), nil)
		}
	}
	inst.ComputeBusy += dur
	ns.computeStart = m.k.Now()
	ns.computeDur = dur
	if m.cfg.Trace.Enabled() {
		m.cfg.Trace.End(trace.TaskInput, n.String(), inst.Lane(), m.k.Now())
		m.cfg.Trace.Span(trace.TaskCompute, n.String(), inst.Lane(), m.k.Now(), m.k.Now()+dur, nil)
	}
	inst.compPart, inst.compDur = part, dur
	ns.compEv = m.k.Schedule(dur, inst.compFn)
}

// computeDone is the compute-completion event of the instance's current
// node.
func (inst *Instance) computeDone() {
	inst.m.complete(inst.curNode, inst, inst.compPart, inst.compDur)
}

// jitteredCompute applies the deterministic per-task compute-time variation.
func (m *Manager) jitteredCompute(n *graph.Node) sim.Time {
	if m.cfg.ComputeJitter == 0 {
		return n.Compute
	}
	h := splitmix64(uint64(n.ID+1)*0x9E3779B97F4A7C15 ^
		hashString(n.DAG.App) ^ uint64(n.DAG.Iteration)<<32)
	// Map to [-1, 1).
	f := float64(int64(h>>11))/float64(1<<52) - 1
	return sim.Time(float64(n.Compute) * (1 + m.cfg.ComputeJitter*f))
}

func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func hashString(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// complete handles a task-completion interrupt: record the output's
// location, update colocation tracking, advance children, make the
// write-back decision, and free the accelerator.
func (m *Manager) complete(n *graph.Node, inst *Instance, part int, computeDur sim.Time) {
	ns := m.state(n)
	ns.compEv = nil
	m.disarmWatchdog(ns)
	inst.curNode = nil
	if n.DAG.Aborted {
		m.isrWork(func() sim.Time {
			inst.Busy = false
			return 0
		})
		return
	}
	if ns.verdict == fault.VerdictFail {
		// The task ran to the end but its result failed validation
		// (transient fault): discard and retry.
		m.st.Faults.TransientFails++
		if m.cfg.Trace.Enabled() {
			m.cfg.Trace.Instant(trace.Fault, "fail:"+n.String(), inst.Lane(), m.k.Now(), nil)
		}
		m.recover(n, inst, "transient failure")
		return
	}
	ns.inst = inst
	ns.part = part
	inst.Parts[part].Node = n
	inst.LastNode = n
	m.st.PredErr.ObserveCompute(n.Compute, computeDur)

	r := m.newISR()
	r.n, r.inst = n, inst
	for _, c := range n.Children {
		c.CompletedParents++
		if c.CompletedParents == len(c.Parents) {
			c.ReadyAt = m.k.Now()
			r.ready = append(r.ready, c)
		}
	}
	m.isr(r)
}

// completionISR is the interrupt handler of a completion record: enqueue
// the children the node made ready, possibly escalating them, and make the
// write-back decision. It returns the modeled scheduler cost.
func (m *Manager) completionISR(r *isrRec) sim.Time {
	n, inst, ready := r.n, r.inst, r.ready
	// The finishing accelerator is idle from the scheduler's point of
	// view: its instance count participates in max_forwards and in the
	// next-in-line write-back test.
	inst.Busy = false
	var cost sim.Time
	if m.esc != nil && len(ready) > 0 {
		for _, c := range ready {
			m.preparePrediction(c)
		}
		scanned := m.esc.EnqueueReady(m.qptrs, ready, m.idleFn, m.k.Now())
		c := m.cfg.SchedBase + m.cfg.SchedPerFwd + m.cfg.SchedPerScan*sim.Time(scanned/len(ready))
		for range ready {
			m.st.ObserveSched(c)
			if m.metSchedCost != nil {
				m.metSchedCost.Observe(c.Microseconds())
			}
			cost += c
		}
	} else {
		for _, c := range ready {
			cost += m.insertPlain(c)
		}
	}

	// Write-back decision (paper §III-C2 manager runtime): leaves always
	// write back (the final output must reach main memory); intermediates
	// write back immediately unless every child is next in line for
	// execution.
	switch {
	case n.IsLeaf():
		m.startWriteback(n, inst, true)
	case m.cfg.AlwaysWriteBack || m.cfg.DisableForwarding || !m.allChildrenNextInLine(n):
		m.startWriteback(n, inst, false)
		m.finishNode(n)
	default:
		m.finishNode(n)
	}
	return cost
}

// allChildrenNextInLine reports whether every child of n sits within the
// first idle-instance positions of its ready queue, i.e. is guaranteed to
// run next and forward the data.
func (m *Manager) allChildrenNextInLine(n *graph.Node) bool {
	for _, c := range n.Children {
		if c.State != graph.Ready {
			return false
		}
		q := m.queues[c.Kind]
		limit := m.idleCount(int(c.Kind))
		if limit > len(q) {
			limit = len(q)
		}
		found := false
		for i := 0; i < limit; i++ {
			if q[i] == c {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// startWriteback DMA-copies a node's output from its scratchpad partition
// to main memory. finish finalises the node once the output is written (at
// once if it already was, or is being written by an earlier request).
func (m *Manager) startWriteback(n *graph.Node, inst *Instance, finish bool) {
	ns := m.state(n)
	if ns.wbDone || ns.wbInFlight {
		if finish {
			m.finishNode(n)
		}
		return
	}
	ns.wbInFlight = true
	j := inst.newDMA(dmaWriteback, m.ic.Path(inst.Index, xbar.EndpointDRAM), n.OutputBytes, n)
	j.finish = finish
	inst.enqueueDMA(j)
}

// writebackDone completes a write-back: wake readers waiting on the
// main-memory copy, then finalise the node if asked.
func (m *Manager) writebackDone(j *dmaJob, res mem.TransferResult) {
	n := j.n
	ns := m.state(n)
	if m.cfg.Trace.Enabled() {
		m.cfg.Trace.Span(trace.Writeback, n.String(), j.inst.Lane(), res.Start, res.End, nil)
	}
	ns.wbInFlight = false
	ns.wbDone = true
	m.st.DRAMWriteBytes += n.OutputBytes
	m.noteSpadBytes(n.OutputBytes) // producer scratchpad read
	m.observeDRAMTransfer(res)
	ns.actualMemTime += res.End - res.Start
	ns.actualBytes += n.OutputBytes
	ns.dramBytes += n.OutputBytes
	ns.dramTime += res.End - res.Start
	if m.met != nil {
		m.noteDMAXfer(j.path, n.OutputBytes, res)
	}
	ws := ns.wbWaiters
	ns.wbWaiters = nil
	for _, fn := range ws {
		fn()
	}
	if j.finish {
		m.finishNode(n)
	}
}

// finishNode finalises a node: deadline accounting, predictor error
// accounting, DAG completion, and continuous-contention resubmission.
func (m *Manager) finishNode(n *graph.Node) {
	now := m.k.Now()
	n.State = graph.Done
	n.FinishAt = now
	n.ActualRuntime = now - n.StartAt
	ns := m.state(n)

	m.st.NodesDone++
	app := iter(n.DAG).app
	app.NodesDone++
	if now <= n.Deadline {
		m.st.NodesMetDeadline++
		app.NodesMetDeadline++
	}
	m.st.PredErr.ObserveDMBytes(ns.predBytes, ns.actualBytes)
	m.st.PredErr.ObserveMemTime(ns.predMemTime, ns.actualMemTime)
	if ns.dramTime > 0 {
		achieved := float64(ns.dramBytes) / ns.dramTime.Seconds()
		m.st.PredErr.ObserveBW(ns.predBW, achieved)
	}
	if ns.failAt > 0 {
		// The node recovered from at least one fault: time from first
		// failure to completion is its repair time (MTTR numerator).
		m.st.Faults.RecoveryTime += now - ns.failAt
		m.st.Faults.Recoveries++
	}
	if m.met != nil {
		m.observeAttribution(n, ns, now)
	}

	d := n.DAG
	if d.NodeDone(now) {
		m.inFlight--
		m.dropActive(d)
		app.Iterations++
		app.Runtimes = append(app.Runtimes, d.Runtime())
		if d.MetDeadline() {
			app.DeadlinesMet++
		}
		if m.lastDone < now {
			m.lastDone = now
		}
		it := iter(d)
		if d.Loop && m.horizon > 0 && now < m.horizon {
			// The clone carries the caller's deadlines.
			next := it.origin.Clone()
			next.Iteration = d.Iteration + 1
			next.Loop = true
			m.k.At(now, m.attachClone(next, it.origin).releaseFn)
		}
		m.maybeRetire(it)
	}
}

// Run drains the simulation (all submitted DAGs to completion) and records
// makespan and interconnect occupancy. Returns the end time.
func (m *Manager) Run() sim.Time {
	m.k.Run()
	if m.lastDone == 0 {
		return m.finish(m.k.Now())
	}
	return m.finish(m.lastDone)
}

// RunContinuous runs with DAG resubmission until the horizon (paper §IV-C:
// 50 ms, results for finished tasks only).
func (m *Manager) RunContinuous(horizon sim.Time) sim.Time {
	m.horizon = horizon
	m.k.RunUntil(horizon)
	return m.finish(horizon)
}

// finish records the end-of-run statistics — the final probe sample,
// makespan, busy time, interconnect occupancy, kernel event counters and
// the fault injector's low-level counters — and returns the end time.
func (m *Manager) finish(makespan sim.Time) sim.Time {
	m.met.FinalSample(m.k.Now())
	m.st.Makespan = makespan
	m.st.ComputeBusy = 0
	for _, inst := range m.insts {
		m.st.ComputeBusy += inst.ComputeBusy
	}
	m.st.InterconnectOccupancy = m.ic.Occupancy()
	m.st.EventsFired = m.k.Fired()
	m.st.EventAllocs = m.k.EventAllocs()
	if m.inj != nil {
		c := m.inj.Counts()
		m.st.Faults.DMAStalls = c.DMAStalls
		m.st.Faults.DMACorruptions = c.DMACorruptions
		m.st.Faults.DRAMErrors = c.DRAMErrors
	}
	return m.k.Now()
}

// Instances exposes the accelerator instances (read-only use).
func (m *Manager) Instances() []*Instance { return m.insts }
