package mem

import "relief/internal/sim"

// coalesceEnabled gates analytic transfer claims. Tests flip it to compare
// the claim path against the chunk-wise reference implementation.
var coalesceEnabled = true

// claim serves a whole transfer analytically while it is the sole occupant
// of every resource on its path. Store-and-forward chunk pipelining over
// idle FIFO stages has a closed-form schedule, so instead of 2 events per
// chunk per stage the claim fires one completion event — and, if any other
// stream touches a claimed resource (or any resource sharing the path's
// union-occupancy tracker) before that, materialize() reconstructs the
// exact chunk-wise state the reference implementation would have at that
// instant: per-stage in-service chunk, waiting queue, busy accounting,
// bytes served, and union-occupancy state. Timing is bit-identical in
// both directions because every quantity below is integer picosecond
// arithmetic over the same per-chunk service times the chunk loop uses.
//
// Schedule. Let tau[s] = ServiceTime(DefaultChunkBytes) at stage s,
// lam[s] = ServiceTime(last chunk), and for the C-1 uniform chunks
// (i < C-1):
//
//	end(i, s) = t0 + sum(tau[0..s]) + i*max(tau[0..s])
//
// which satisfies the pipeline recurrence end(i,s) = max(end(i-1,s),
// end(i,s-1)) + tau[s] by induction (the max telescopes into the prefix
// maximum). The final, possibly short chunk follows the recurrence
// directly via lastStart/lastEnd.
type claim struct {
	k      *sim.Kernel
	t      *transfer
	stages []*Resource
	t0     sim.Time // instant the first chunk would have been enqueued
	full   int64    // uniform chunk size
	last   int64    // final chunk size (1..full)
	C      int      // chunk count (C-1 uniform chunks + the final one)

	tau, lam  []sim.Time // per-stage service time of a full / final chunk
	sum, max  []sim.Time // prefix sum / prefix max of tau
	lastStart []sim.Time // per-stage service start of the final chunk
	lastEnd   []sim.Time // per-stage service end of the final chunk

	occ      *Occupancy
	watched  []int // stage indices attached to occ
	ev       *sim.Event
	released bool

	// The claim is embedded in its transfer record and recycled with it:
	// every slice above keeps its capacity, and materialize's scratch
	// slices and the completion callback are bound once per record.
	completeFn func()
	views      []stageView
	inSvc      []int
}

// grow gives every per-stage slice of the claim room for S stages; slices
// of one element type share a backing array.
func (c *claim) grow(S int) {
	c.stages = make([]*Resource, 0, S)
	ts := make([]sim.Time, 6*S)
	c.tau, c.lam = ts[0:S:S], ts[S:2*S:2*S]
	c.sum, c.max = ts[2*S:3*S:3*S], ts[3*S:4*S:4*S]
	c.lastStart, c.lastEnd = ts[4*S:5*S:5*S], ts[5*S:]
	is := make([]int, 2*S)
	c.watched, c.inSvc = is[0:0:S], is[S:S]
	c.views = make([]stageView, S)
}

// tryClaim installs an analytic claim for t if every stage on its path is
// an idle, unclaimed, callback-free Resource and the path's occupancy
// tracker is quiet. It returns false (and leaves no trace) when any
// condition fails, in which case the caller proceeds chunk-wise. The claim
// is t's embedded record, so installing one allocates nothing.
//
//relief:hotpath
func tryClaim(t *transfer) bool {
	if !coalesceEnabled {
		return false
	}
	S := len(t.path)
	c := &t.cl
	stages := c.stages[:S]
	watched := c.watched[:0]
	var occ *Occupancy
	for s, srv := range t.path {
		r, ok := srv.(*Resource)
		if !ok {
			return false // e.g. the bank-level DRAM controller
		}
		if r.busy || r.claim != nil || len(r.q) != r.head || r.OnBusyChange != nil {
			return false
		}
		for _, prev := range stages[:s] {
			if prev == r {
				return false
			}
		}
		if r.occ != nil {
			if occ == nil {
				occ = r.occ
			} else if occ != r.occ {
				return false
			}
			if len(watched) == 2 {
				return false
			}
			watched = watched[:len(watched)+1]
			watched[len(watched)-1] = s
		}
		stages[s] = r
	}
	if occ != nil && (occ.active > 0 || occ.cl != nil) {
		return false
	}

	c.stages = stages
	c.t0 = t.k.Now()
	c.full = DefaultChunkBytes
	c.last = t.chunkSize(t.nChunks - 1)
	c.C = t.nChunks
	c.occ = occ
	c.ev = nil
	c.released = false
	c.tau = c.tau[:S]
	c.lam = c.lam[:S]
	c.sum = c.sum[:S]
	c.max = c.max[:S]
	c.lastStart = c.lastStart[:S]
	c.lastEnd = c.lastEnd[:S]
	for s, r := range stages {
		c.tau[s] = r.ServiceTime(c.full)
		c.lam[s] = r.ServiceTime(c.last)
		c.sum[s] = c.tau[s]
		c.max[s] = c.tau[s]
		if s > 0 {
			c.sum[s] += c.sum[s-1]
			if c.max[s-1] > c.max[s] {
				c.max[s] = c.max[s-1]
			}
		}
	}
	U := c.C - 1
	for s := range stages {
		var at sim.Time
		if s == 0 {
			at = c.t0
			if U > 0 {
				at = c.endOf(U-1, 0)
			}
		} else {
			at = c.lastEnd[s-1]
			if U > 0 {
				if e := c.endOf(U-1, s); e > at {
					at = e
				}
			}
		}
		c.lastStart[s] = at
		c.lastEnd[s] = at + c.lam[s]
	}
	c.watched = watched
	if len(watched) == 2 {
		// Two watched stages are only claimable when their union busy time
		// is provably the single interval [t0, lastEnd]: both stages must
		// form one contiguous busy period each (stage 0 always does) with
		// no union gap between them. Equal-bandwidth crossbar ports satisfy
		// this; anything else falls back to chunk-wise service.
		if S != 2 || watched[0] != 0 || watched[1] != 1 {
			return false
		}
		if c.max[1] != c.tau[1] {
			return false
		}
		if U > 0 && c.lastStart[1] != c.endOf(U-1, 1) {
			return false
		}
	}

	for _, r := range stages {
		r.claim = c
	}
	if occ != nil {
		occ.cl = c
		occ.Claims++
	}
	c.ev = c.k.At(c.lastEnd[S-1], c.completeFn)
	return true
}

func (c *claim) size(i int) int64 {
	if i == c.C-1 {
		return c.last
	}
	return c.full
}

// endOf returns when stage s finishes serving chunk i.
func (c *claim) endOf(i, s int) sim.Time {
	if i == c.C-1 {
		return c.lastEnd[s]
	}
	return c.t0 + c.sum[s] + sim.Time(i)*c.max[s]
}

// startOf returns when stage s begins serving chunk i.
func (c *claim) startOf(i, s int) sim.Time {
	if i == c.C-1 {
		return c.lastStart[s]
	}
	return c.endOf(i, s) - c.tau[s]
}

// completionFired reports whether the chunk-wise reference would already
// have dispatched chunk i's completion at stage s, relative to the event
// currently firing. A completion at a tick strictly before now has fired;
// one landing exactly at now has fired iff the reference scheduled it
// before the current event was scheduled — events fire in (time, seq)
// order and sequence numbers grow with the clock, so a completion
// scheduled at service start startOf(i,s) precedes the current event
// exactly when startOf(i,s) < CurrentBorn(). (Equal schedule ticks are
// resolved as not-yet-fired; the creation order within a single tick is
// not reconstructible, and the full-grid golden test bounds the risk.)
func (c *claim) completionFired(i, s int, now sim.Time) bool {
	end := c.endOf(i, s)
	if end != now {
		return end < now
	}
	return c.startOf(i, s) < c.k.CurrentBorn()
}

// doneChunks counts the chunks whose completion at stage s has fired.
func (c *claim) doneChunks(s int, now sim.Time) int {
	U := c.C - 1
	d := 0
	if U > 0 {
		if q := now - (c.t0 + c.sum[s]); q > 0 {
			d = int((int64(q)-1)/int64(c.max[s])) + 1
			if d > U {
				d = U
			}
		}
	}
	// The next chunk may be completing exactly at this tick.
	if d < U && c.endOf(d, s) == now && c.completionFired(d, s, now) {
		d++
	}
	if d == U && (c.lastEnd[s] < now || (c.lastEnd[s] == now && c.completionFired(c.C-1, s, now))) {
		d++
	}
	return d
}

// arrivedFired reports whether chunk i's arrival at stage s has been
// delivered: arrivals ride the upstream completion event (or, for the
// chunks after the first at stage 0, the previous chunk's stage-0
// completion), so the same fired test applies.
func (c *claim) arrivedFired(i, s int, now sim.Time) bool {
	if s == 0 {
		if i == 0 {
			return true // enqueued at t0 by the event that created the claim
		}
		return c.completionFired(i-1, 0, now)
	}
	return c.completionFired(i, s-1, now)
}

// arrived counts chunks delivered to stage s.
func (c *claim) arrived(s int, now sim.Time) int {
	if s == 0 {
		d := c.doneChunks(0, now)
		if d > c.C-1 {
			d = c.C - 1
		}
		return d + 1 // chunk i+1 arrives when chunk i completes; chunk 0 at t0
	}
	return c.doneChunks(s-1, now)
}

// stageView is the exact chunk-wise state of one stage at an instant.
type stageView struct {
	done     int      // chunks completed strictly before now
	inSvc    bool     // a chunk is in service (its end may equal now)
	svcEnd   sim.Time // completion time of the in-service chunk
	queued   int      // chunks arrived and waiting behind the in-service one
	busyUpTo sim.Time // cumulative busy time through now, open period included
	busyAt   sim.Time // start of the open busy period (valid iff inSvc)
}

func (c *claim) view(s int, now sim.Time) stageView {
	v := stageView{done: c.doneChunks(s, now)}
	if v.done < c.C {
		// Chunk v.done is in service iff its arrival was delivered: the
		// previous same-stage completion has fired by construction of
		// v.done, and service start is the max of the two, so no separate
		// startOf <= now check is needed.
		if c.arrivedFired(v.done, s, now) {
			v.inSvc = true
			v.svcEnd = c.endOf(v.done, s)
		}
	}
	v.queued = c.arrived(s, now) - v.done
	if v.inSvc {
		v.queued--
	}
	// Service is FIFO and non-preemptive, so cumulative busy time is the
	// sum of completed service times plus the in-service elapsed time.
	nd := v.done
	if U := c.C - 1; nd > U {
		nd = U
	}
	v.busyUpTo = sim.Time(nd) * c.tau[s]
	if v.done == c.C {
		v.busyUpTo += c.lam[s]
	}
	if v.inSvc {
		v.busyUpTo += now - c.startOf(v.done, s)
		v.busyAt = c.periodStart(v.done, s)
	}
	return v
}

// periodStart returns the beginning of the contiguous busy period that
// contains chunk i at stage s: consecutive chunks merge into one period
// when each starts exactly when its predecessor ends.
func (c *claim) periodStart(i, s int) sim.Time {
	U := c.C - 1
	backToBack := c.max[s] == c.tau[s] // uniform chunks leave no gap
	if i == c.C-1 {
		if U > 0 && c.lastStart[s] == c.endOf(U-1, s) {
			if backToBack {
				return c.startOf(0, s)
			}
			return c.startOf(U-1, s)
		}
		return c.lastStart[s]
	}
	if backToBack {
		return c.startOf(0, s)
	}
	return c.startOf(i, s)
}

func (c *claim) bytesDone(done int) int64 {
	n := done
	if U := c.C - 1; n > U {
		n = U
	}
	b := int64(n) * c.full
	if done == c.C {
		b += c.last
	}
	return b
}

// stageIndex locates r on the claimed path.
func (c *claim) stageIndex(r *Resource) int {
	for s, st := range c.stages {
		if st == r {
			return s
		}
	}
	panic("mem: resource not part of its claim")
}

// stageBusyUpTo, stageBytesDone and stageQueueLen answer mid-claim queries
// on a claimed resource without materializing it.
func (c *claim) stageBusyUpTo(r *Resource, now sim.Time) sim.Time {
	return c.view(c.stageIndex(r), now).busyUpTo
}

func (c *claim) stageBytesDone(r *Resource, now sim.Time) int64 {
	return c.bytesDone(c.view(c.stageIndex(r), now).done)
}

func (c *claim) stageQueueLen(r *Resource, now sim.Time) int {
	return c.view(c.stageIndex(r), now).queued
}

// unionBusyUpTo returns the watched stages' union busy time accumulated by
// this claim through now.
func (c *claim) unionBusyUpTo(now sim.Time) sim.Time {
	switch len(c.watched) {
	case 0:
		return 0
	case 1:
		return c.view(c.watched[0], now).busyUpTo
	default:
		// Verified single interval [t0, lastEnd] at claim time.
		end := c.lastEnd[c.watched[1]]
		if now > end {
			now = end
		}
		if now < c.t0 {
			return 0
		}
		return now - c.t0
	}
}

// complete fires at the analytically computed end of the transfer: settle
// every stage's counters, release the claim, and finish the transfer. The
// stages were never marked busy, so all busy time lands in busyAcc here —
// queries mid-claim saw the same totals via the stage views.
//
//relief:hotpath
func (c *claim) complete() {
	if c.released {
		return
	}
	c.released = true
	c.ev = nil // fired: the kernel recycles the handle
	for s, r := range c.stages {
		r.claim = nil
		r.bytes += c.t.n
		r.busyAcc += sim.Time(c.C-1)*c.tau[s] + c.lam[s]
	}
	if c.occ != nil {
		c.occ.cl = nil
		if len(c.watched) == 1 {
			s := c.watched[0]
			c.occ.acc += sim.Time(c.C-1)*c.tau[s] + c.lam[s]
		} else if len(c.watched) == 2 {
			c.occ.acc += c.lastEnd[c.watched[1]] - c.t0
		}
	}
	c.t.finish()
}

// materialize folds the claim back into exact chunk-wise state at the
// current instant, so another stream enqueueing on (or near) the path
// observes precisely the FIFO queues, busy periods and counters the
// reference implementation would have produced, and bandwidth sharing
// proceeds identically from here on.
func (c *claim) materialize() {
	if c.released {
		return
	}
	c.released = true
	if c.occ != nil {
		c.occ.Conflicts++
	}
	now := c.k.Now()
	c.k.Cancel(c.ev)
	c.ev = nil // the cancelled handle is the kernel's again
	for _, r := range c.stages {
		r.claim = nil
	}
	if c.occ != nil {
		c.occ.cl = nil
	}
	t := c.t
	views := c.views[:len(c.stages)]
	// If the final completion fired at this very tick before the current
	// event, the reference already delivered the transfer's done callback;
	// do the same once the counters below are settled.
	finished := c.doneChunks(len(c.stages)-1, now) == c.C
	inSvc := c.inSvc[:0]
	for s, r := range c.stages {
		v := c.view(s, now)
		views[s] = v
		t.next[s] = v.done
		r.bytes += c.bytesDone(v.done)
		if v.inSvc {
			r.busy = true
			r.busyAt = v.busyAt
			r.busyAcc += v.busyUpTo - (now - v.busyAt)
			i := v.done
			r.cur = request{bytes: c.size(i), done: t.stageDone[s]}
			inSvc = inSvc[:len(inSvc)+1]
			inSvc[len(inSvc)-1] = s
			for q := i + 1; q <= i+v.queued; q++ {
				r.push(request{bytes: c.size(q), done: t.stageDone[s]})
			}
		} else {
			r.busyAcc += v.busyUpTo
		}
	}
	// Schedule the in-service completions in the order the reference would
	// fire them. All these events get fresh sequence numbers, so same-tick
	// completions fire in the order scheduled here; the reference fires
	// them ordered by schedule time (earlier service start first), and for
	// lock-step stages that tie exactly, the downstream completion was
	// created first (advance enqueues downstream before the same stage
	// schedules its next chunk), so it precedes.
	for x := 1; x < len(inSvc); x++ {
		for y := x; y > 0; y-- {
			a, b := views[inSvc[y-1]], views[inSvc[y]]
			sa, sb := c.startOf(a.done, inSvc[y-1]), c.startOf(b.done, inSvc[y])
			if a.svcEnd < b.svcEnd || (a.svcEnd == b.svcEnd && (sa < sb || (sa == sb && inSvc[y-1] > inSvc[y]))) {
				break
			}
			inSvc[y-1], inSvc[y] = inSvc[y], inSvc[y-1]
		}
	}
	for _, s := range inSvc {
		c.k.At(views[s].svcEnd, c.stages[s].servedFn)
	}
	if c.occ != nil {
		c.restoreUnion(views, now)
	}
	if finished {
		t.finish()
	}
}

// restoreUnion reconstructs the union tracker at materialization. The
// claim only existed while no event-driven link was active, so o.active is
// 0 here and the claim's own union state replaces it wholesale.
func (c *claim) restoreUnion(views []stageView, now sim.Time) {
	o := c.occ
	switch len(c.watched) {
	case 1:
		v := views[c.watched[0]]
		if v.inSvc {
			o.acc += v.busyUpTo - (now - v.busyAt)
			o.active = 1
			o.since = v.busyAt
		} else {
			o.acc += v.busyUpTo
		}
	case 2:
		// Single union interval open since t0; a watched stage is
		// mid-service whenever any chunk remains, so the interval only
		// closes when the whole transfer already finished at this tick.
		o.active = 0
		for _, s := range c.watched {
			if views[s].inSvc {
				o.active++
			}
		}
		if o.active > 0 {
			o.since = c.t0
		} else {
			o.acc += c.lastEnd[c.watched[1]] - c.t0
		}
	}
}
