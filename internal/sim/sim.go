// Package sim provides a deterministic discrete-event simulation kernel.
//
// Time is measured in integer picoseconds (type Time) so that sub-nanosecond
// bus beats can be represented exactly. Events scheduled for the same tick
// fire in the order they were scheduled, which makes every simulation run
// bit-for-bit reproducible.
//
// The kernel is built for throughput: the ready queue is an inlined 4-ary
// min-heap specialised to *Event (no container/heap interface boxing), and
// fired events are recycled through a free list, so steady-state
// Schedule/dispatch cycles perform no heap allocation.
package sim

import "fmt"

// Time is a simulation timestamp or duration in picoseconds.
type Time int64

// Common durations.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Microseconds returns t expressed in microseconds as a float64.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Milliseconds returns t expressed in milliseconds as a float64.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// Seconds returns t expressed in seconds as a float64.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

func (t Time) String() string {
	switch {
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", t.Milliseconds())
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", t.Microseconds())
	case t >= Nanosecond:
		return fmt.Sprintf("%.3fns", float64(t)/float64(Nanosecond))
	default:
		return fmt.Sprintf("%dps", int64(t))
	}
}

// Event is a handle for a scheduled callback. It can be cancelled any time
// before it fires. Once the event has fired the kernel recycles the handle
// for a later Schedule/At call, so a handle must not be retained (or
// cancelled) after its callback has run.
type Event struct {
	at        Time
	born      Time // clock value when the event was scheduled
	seq       uint64
	fn        func()
	next      *Event // free-list link while recycled
	queued    bool
	cancelled bool
	weak      bool
	replay    bool
}

// At returns the time the event is scheduled to fire.
func (e *Event) At() Time { return e.at }

// interruptStride is how many dispatched events pass between polls of an
// installed interrupt channel. It is a power of two so the poll gate is a
// single mask test on the hot dispatch loop.
const interruptStride = 4096

// Kernel is an event-driven simulation engine. The zero value is not usable;
// call NewKernel.
type Kernel struct {
	now        Time
	curBorn    Time // born time of the event currently dispatching
	seq        uint64
	queue      []*Event // 4-ary min-heap ordered by (at, seq)
	live       int      // queued events that are not cancelled
	replayLive int      // live events that are replayable (AtReplay)
	free       *Event   // recycled Event free list
	fired      uint64
	allocs     uint64 // Event allocations (free-list misses)
	halted     bool

	// intr, if non-nil, is polled every interruptStride dispatches; once
	// it is closed the run aborts (see SetInterrupt).
	intr        <-chan struct{}
	interrupted bool
}

// NewKernel returns a kernel with the clock at zero.
func NewKernel() *Kernel {
	return &Kernel{}
}

// Now returns the current simulation time.
func (k *Kernel) Now() Time { return k.now }

// CurrentBorn returns the time at which the currently dispatching event was
// scheduled. Because sequence numbers grow monotonically with the clock, an
// event scheduled strictly before CurrentBorn and firing at the current
// tick is guaranteed to have already fired. Analytic models use this to
// replay same-tick event orderings exactly (see internal/mem's claims).
func (k *Kernel) CurrentBorn() Time { return k.curBorn }

// Fired reports how many events have been dispatched so far.
func (k *Kernel) Fired() uint64 { return k.fired }

// Scheduled reports how many events have ever been scheduled.
func (k *Kernel) Scheduled() uint64 { return k.seq }

// EventAllocs reports how many Event structs were heap-allocated, i.e. how
// often Schedule/At missed the free list. In steady state this stops
// growing: the ratio Scheduled/EventAllocs is the pool's reuse factor. A
// kernel that Reset recycled starts with the pool its earlier runs grew,
// so its count falls with no change to the events it fires.
func (k *Kernel) EventAllocs() uint64 { return k.allocs }

// Reset returns the kernel to NewKernel's state, clock and counters at
// zero, for another simulation. It keeps the Event pool and the heap's
// array: every queued event goes back on the pool with its callback
// cleared, so the reset kernel pins nothing of the run it held, and
// handles to those events must not be used again.
func (k *Kernel) Reset() {
	for i, e := range k.queue {
		k.recycle(e)
		k.queue[i] = nil
	}
	*k = Kernel{queue: k.queue[:0], free: k.free}
}

// Schedule arranges for fn to run delay picoseconds from now. A negative
// delay is treated as zero. The returned event may be cancelled.
func (k *Kernel) Schedule(delay Time, fn func()) *Event {
	if delay < 0 {
		delay = 0
	}
	return k.At(k.now+delay, fn)
}

// At arranges for fn to run at absolute time t (clamped to now).
func (k *Kernel) At(t Time, fn func()) *Event {
	return k.at(t, fn, false, false)
}

// AtReplay arranges for fn to run at absolute time t like At, but marks the
// event replayable: one whose schedule is derivable from the simulation's
// inputs alone (pre-planned periodic releases, scripted fault deaths), so a
// restored run can re-create it instead of serializing the closure. Replay
// events are ordinary in every other respect — they keep the run alive and
// fire in (at, seq) order. PendingNonReplay excludes them, which is how the
// checkpoint machinery recognises a quiescent instant: the only future the
// simulation has left is one that can be replayed from the inputs.
func (k *Kernel) AtReplay(t Time, fn func()) *Event {
	return k.at(t, fn, false, true)
}

// ScheduleWeak arranges for fn to run delay picoseconds from now as a weak
// event. Weak events fire only while ordinary events remain queued: when a
// weak event reaches the top of the heap with no ordinary event left behind
// it, the run is over and the event is discarded without firing — and,
// crucially, without advancing the clock. Weak events are excluded from
// Pending. They exist for observers (e.g. periodic metrics probes) that must
// piggyback on a simulation without ever extending it; their callbacks
// should read state only, not schedule ordinary events.
func (k *Kernel) ScheduleWeak(delay Time, fn func()) *Event {
	if delay < 0 {
		delay = 0
	}
	return k.at(k.now+delay, fn, true, false)
}

// at is the scheduling slow half of Schedule/At/ScheduleWeak: pool an
// Event, stamp it, and push it. In steady state the free list always hits,
// so the path stays allocation-free.
//
//relief:hotpath
func (k *Kernel) at(t Time, fn func(), weak, replay bool) *Event {
	if fn == nil {
		panic("sim: nil event function")
	}
	if t < k.now {
		t = k.now
	}
	e := k.free
	if e != nil {
		k.free = e.next
		e.next = nil
		e.cancelled = false
	} else {
		e = &Event{} //lint:allow hotalloc pool refill on a free-list miss, counted by k.allocs
		k.allocs++
	}
	e.at = t
	e.born = k.now
	e.seq = k.seq
	e.fn = fn
	e.queued = true
	e.weak = weak
	e.replay = replay
	k.seq++
	if !weak {
		k.live++
		if replay {
			k.replayLive++
		}
	}
	k.push(e)
	return e
}

// Cancel removes a pending event. Cancelling an already-cancelled event is
// a no-op; a fired event's handle must not be passed here (handles are
// recycled after dispatch).
func (k *Kernel) Cancel(e *Event) {
	if e == nil || e.cancelled {
		return
	}
	e.cancelled = true
	if e.queued {
		// Removal is lazy: the event stays queued and is discarded when it
		// reaches the top of the heap.
		e.fn = nil
		if !e.weak {
			k.live--
			if e.replay {
				k.replayLive--
			}
		}
	}
}

// Halt stops the current Run/RunUntil loop after the in-flight event returns.
func (k *Kernel) Halt() { k.halted = true }

// SetInterrupt installs an abort channel polled once every few thousand
// dispatched events (cheap enough for the hot loop). Once done is closed
// the run halts after the in-flight event and Interrupted reports true.
// Pass a context's Done channel; nil (as from context.Background) installs
// nothing, so the dispatch loop stays poll-free.
//
// Interrupts exist for host-side cancellation (timeouts, client
// disconnects): an interrupted run is abandoned wholesale, never resumed,
// so determinism of completed runs is unaffected.
func (k *Kernel) SetInterrupt(done <-chan struct{}) {
	k.intr = done
	k.interrupted = false
}

// Interrupted reports whether the last Run/RunUntil was aborted by the
// interrupt channel installed with SetInterrupt.
func (k *Kernel) Interrupted() bool { return k.interrupted }

// Pending reports how many non-cancelled ordinary (non-weak) events are
// queued.
func (k *Kernel) Pending() int { return k.live }

// PendingNonReplay reports how many pending ordinary events are NOT
// replayable (see AtReplay). Zero means every queued obligation can be
// re-created from the simulation's inputs — the condition the checkpoint
// machinery requires before capturing state.
func (k *Kernel) PendingNonReplay() int { return k.live - k.replayLive }

// KernelState is the serializable kernel state captured at a quiescent
// instant: the clock and the next sequence number. The event queue itself is
// deliberately absent — a checkpoint is only taken when every pending event
// is replayable (PendingNonReplay() == 0), so a restored run re-creates the
// queue from the simulation's inputs. Restoring Seq preserves bit-identical
// dispatch: re-created events receive sequence numbers that are uniformly
// shifted but relatively ordered exactly as in the uninterrupted run.
// Dispatch order compares (at, seq), and absolute seq values are observable
// nowhere else, so the shift cannot change any result. Fired/alloc counters
// are simulator-cost metrics, not simulation state, and start from zero in a
// restored kernel.
type KernelState struct {
	Now Time
	Seq uint64
}

// CaptureState snapshots the kernel's serializable state (see KernelState).
func (k *Kernel) CaptureState() KernelState {
	return KernelState{Now: k.now, Seq: k.seq}
}

// maxRestoreSeq bounds a restored sequence number. No run reaches it: at a
// billion events a second it takes over a century of host time. Above it,
// a crafted state could leave too little headroom, and sequence numbers
// that wrap past MaxUint64 would dispatch later events ahead of earlier
// ones at the same instant.
const maxRestoreSeq = 1 << 62

// RestoreState primes a fresh kernel with a captured state: the clock jumps
// to the capture instant and sequence numbering continues from the captured
// value. It must be called before any event is scheduled on the kernel.
func (k *Kernel) RestoreState(s KernelState) error {
	if k.seq != 0 || len(k.queue) != 0 || k.fired != 0 {
		return fmt.Errorf("sim: RestoreState on a used kernel (%d events scheduled)", k.seq)
	}
	if s.Seq > maxRestoreSeq {
		return fmt.Errorf("sim: restore sequence number %d above %d, more events than any run schedules", s.Seq, uint64(maxRestoreSeq))
	}
	k.now = s.Now
	k.seq = s.Seq
	return nil
}

// Run dispatches events until the queue is empty or Halt is called.
// It returns the final simulation time.
func (k *Kernel) Run() Time {
	return k.RunUntil(-1)
}

// RunUntil dispatches events with timestamps <= limit (limit < 0 means no
// limit) until the queue drains, Halt is called, or the next event lies
// beyond the limit. When stopping because of the limit the clock is advanced
// to the limit.
//
//relief:hotpath
func (k *Kernel) RunUntil(limit Time) Time {
	k.halted = false
	for len(k.queue) > 0 && !k.halted {
		next := k.queue[0]
		if limit >= 0 && next.at > limit {
			k.now = limit
			return k.now
		}
		k.pop()
		next.queued = false
		// Cancelled events and trailing weak events (nothing ordinary left
		// to outlast them) are discarded without advancing the clock.
		if next.cancelled || (next.weak && k.live == 0) {
			k.recycle(next)
			continue
		}
		if !next.weak {
			k.live--
			if next.replay {
				k.replayLive--
			}
		}
		k.now = next.at
		k.curBorn = next.born
		k.fired++
		fn := next.fn
		fn()
		k.recycle(next)
		if k.intr != nil && k.fired%interruptStride == 0 && k.interruptClosed() {
			k.interrupted = true
			k.halted = true
		}
	}
	if limit >= 0 && k.now < limit && !k.halted {
		k.now = limit
	}
	return k.now
}

// interruptClosed reports whether the SetInterrupt channel is closed.
func (k *Kernel) interruptClosed() bool {
	select {
	case <-k.intr:
		return true
	default:
		return false
	}
}

// recycle returns a dispatched or discarded event to the free list.
//
//relief:hotpath
func (k *Kernel) recycle(e *Event) {
	e.fn = nil
	e.next = k.free
	k.free = e
}

// less orders events by (time, sequence) for deterministic dispatch. The
// order is total (seq is unique), so dispatch order is independent of heap
// shape.
func less(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push inserts e into the 4-ary heap.
//
//relief:hotpath
func (k *Kernel) push(e *Event) {
	q := append(k.queue, e) //lint:allow hotalloc heap growth is amortized; steady state never grows

	i := len(q) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !less(e, q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = e
	k.queue = q
}

// pop removes the minimum event from the 4-ary heap.
//
//relief:hotpath
func (k *Kernel) pop() {
	q := k.queue
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	q = q[:n]
	if n > 0 {
		i := 0
		for {
			c := i<<2 + 1
			if c >= n {
				break
			}
			m := c
			end := c + 4
			if end > n {
				end = n
			}
			for j := c + 1; j < end; j++ {
				if less(q[j], q[m]) {
					m = j
				}
			}
			if !less(q[m], last) {
				break
			}
			q[i] = q[m]
			i = m
		}
		q[i] = last
	}
	k.queue = q
}
