// Package mem models the SoC's shared-bandwidth resources: the LPDDR main
// memory channel and (via internal/xbar) interconnect links, plus
// energy accounting for DRAM and scratchpad traffic.
//
// A Resource is a FIFO bandwidth server. Transfers are decomposed into
// chunks before they are offered to a resource, so concurrent DMA streams
// interleave at chunk granularity, approximating the fair bandwidth sharing
// of a real memory controller without per-cycle simulation. When a transfer
// is the sole occupant of every resource on its path, the chunk loop is
// replaced by a closed-form claim (see coalesce.go) that yields identical
// timing with two events instead of two per chunk.
//
// Transfer records, with their embedded claim, are recycled through a free
// list on the first Resource of each path, so a simulation in steady state
// starts, claims, materializes and finishes transfers without allocating
// (TestTransferSteadyStateDoesNotAllocate). The list belongs to the
// resource, and therefore to one simulation: simulations running on
// parallel goroutines never share records.
package mem

import (
	"fmt"

	"relief/internal/sim"
)

// GB is 10^9 bytes, matching the GB/s units used in the paper.
const GB = 1e9

// Server is anything that drains byte requests over time: the simple
// bandwidth Resource here, or the bank-level DRAM controller in
// internal/dram. Transfer paths are built from Servers.
type Server interface {
	Name() string
	// Enqueue schedules n bytes for service; done fires when they drain.
	Enqueue(n int64, done func())
	// ServiceTime is the unloaded service time for n bytes.
	ServiceTime(n int64) sim.Time
	// BusyTime is the cumulative time spent serving.
	BusyTime() sim.Time
	// BytesServed is the total bytes drained.
	BytesServed() int64
}

// Resource is a FIFO server with a fixed service bandwidth. The zero value
// is not usable; construct with NewResource.
type Resource struct {
	k         *sim.Kernel
	name      string
	psPerByte float64

	q       []request // waiting requests, q[head:] live
	head    int
	cur     request // request in service (cur.done != nil)
	busy    bool
	busyAcc sim.Time // accumulated busy time
	busyAt  sim.Time // start of current busy period
	bytes   int64    // total bytes served

	servedFn func() // cached bound method, so serving never allocates
	occ      *Occupancy
	claim    *claim    // active analytic claim holding this resource, if any
	free     *transfer // recycled transfer records homed here (first Resource on their path)

	// OnBusyChange, if non-nil, fires whenever the resource transitions
	// between idle and busy. Resources with a callback are never claimed
	// analytically, since a claim fires no per-chunk transitions.
	OnBusyChange func(busy bool)
}

type request struct {
	bytes int64
	done  func()
}

// NewResource creates a bandwidth server named name with the given
// bandwidth in bytes per second.
func NewResource(k *sim.Kernel, name string, bytesPerSec float64) *Resource {
	if bytesPerSec <= 0 {
		panic(fmt.Sprintf("mem: resource %s: non-positive bandwidth", name))
	}
	r := &Resource{
		k:         k,
		name:      name,
		psPerByte: float64(sim.Second) / bytesPerSec,
	}
	r.servedFn = r.served
	return r
}

// Reset returns the resource to its state when built, attached to the same
// occupancy tracker, for another simulation on the same kernel. It keeps
// the FIFO's array and the free list of transfer records, so the next
// simulation starts with what this one grew. A request or transfer still
// in flight is dropped, not finished: the kernel's Reset drops its events.
func (r *Resource) Reset() {
	clear(r.q)
	*r = Resource{k: r.k, name: r.name, psPerByte: r.psPerByte, q: r.q[:0], servedFn: r.servedFn, occ: r.occ, free: r.free}
}

// Name returns the resource's name.
func (r *Resource) Name() string { return r.name }

// Bandwidth returns the service bandwidth in bytes per second.
func (r *Resource) Bandwidth() float64 { return float64(sim.Second) / r.psPerByte }

// SetOccupancy attaches the resource to a union-occupancy tracker. Busy
// transitions are reported to the tracker, and analytic claims over this
// resource coordinate through it.
func (r *Resource) SetOccupancy(o *Occupancy) { r.occ = o }

// ServiceTime returns how long serving n bytes takes at full bandwidth.
func (r *Resource) ServiceTime(n int64) sim.Time {
	if n <= 0 {
		return 0
	}
	t := sim.Time(float64(n) * r.psPerByte)
	if t < 1 {
		t = 1
	}
	return t
}

// Enqueue schedules n bytes for service; done fires when the bytes have
// drained. Zero-byte requests complete on the next event dispatch.
func (r *Resource) Enqueue(n int64, done func()) {
	if n <= 0 {
		r.k.Schedule(0, done)
		return
	}
	if r.claim != nil {
		// A second stream wants the resource: fold the analytic claim back
		// to chunk-wise state so FIFO interleaving resumes exactly.
		r.claim.materialize()
	}
	r.push(request{bytes: n, done: done})
	if !r.busy {
		r.setBusy(true)
		r.serveNext()
	}
}

// push appends a request to the FIFO.
//
//relief:hotpath
func (r *Resource) push(req request) {
	r.q = append(r.q, req) //lint:allow hotalloc FIFO growth is amortized and bounded by in-flight chunks
}

// popFront removes and returns the FIFO head, compacting lazily.
//
//relief:hotpath
func (r *Resource) popFront() request {
	req := r.q[r.head]
	r.q[r.head] = request{}
	r.head++
	if r.head == len(r.q) {
		r.q = r.q[:0]
		r.head = 0
	} else if r.head > 64 && r.head*2 > len(r.q) {
		// Compact once the dead prefix dominates, to bound memory.
		n := copy(r.q, r.q[r.head:])
		for i := n; i < len(r.q); i++ {
			r.q[i] = request{}
		}
		r.q = r.q[:n]
		r.head = 0
	}
	return req
}

// serveNext starts service of the FIFO head, if any.
//
//relief:hotpath
func (r *Resource) serveNext() {
	if r.head == len(r.q) {
		r.cur = request{}
		r.setBusy(false)
		return
	}
	r.cur = r.popFront()
	r.k.Schedule(r.ServiceTime(r.cur.bytes), r.servedFn)
}

// served completes the request in service: credit bytes, notify, serve the
// next waiting request (in that order, matching FIFO enqueue-during-done
// semantics).
//
//relief:hotpath
func (r *Resource) served() {
	req := r.cur
	r.cur = request{}
	r.bytes += req.bytes
	req.done()
	r.serveNext()
}

func (r *Resource) setBusy(b bool) {
	if r.busy == b {
		return
	}
	r.busy = b
	if b {
		r.busyAt = r.k.Now()
	} else {
		r.busyAcc += r.k.Now() - r.busyAt
	}
	if r.occ != nil {
		r.occ.linkBusy(b)
	}
	if r.OnBusyChange != nil {
		r.OnBusyChange(b)
	}
}

// BusyTime returns the total time the resource has spent serving requests,
// including the current busy period if one is in progress.
func (r *Resource) BusyTime() sim.Time {
	if r.claim != nil {
		return r.busyAcc + r.claim.stageBusyUpTo(r, r.k.Now())
	}
	if r.busy {
		return r.busyAcc + (r.k.Now() - r.busyAt)
	}
	return r.busyAcc
}

// BytesServed returns the total bytes drained through the resource.
func (r *Resource) BytesServed() int64 {
	if r.claim != nil {
		return r.bytes + r.claim.stageBytesDone(r, r.k.Now())
	}
	return r.bytes
}

// QueueLen reports the number of waiting requests (not counting the one in
// service).
func (r *Resource) QueueLen() int {
	if r.claim != nil {
		return r.claim.stageQueueLen(r, r.k.Now())
	}
	return len(r.q) - r.head
}
