package mem

import "relief/internal/sim"

// Occupancy tracks the union busy time of a set of resources: the total
// simulated time during which at least one attached resource was serving.
// The interconnect attaches its links (bus or crossbar ports, not DRAM) so
// it can report the paper's Fig. 13 occupancy metric.
//
// The tracker also anchors analytic transfer claims (see coalesce.go): at
// most one claim may be active per tracker, and any event-driven busy
// transition materializes the claim before the union state is updated, so
// the union accounting never mixes event-driven intervals with analytic
// ones.
type Occupancy struct {
	k      *sim.Kernel
	active int      // attached resources currently busy (event-driven)
	since  sim.Time // start of the current union busy period
	acc    sim.Time // accumulated closed union busy periods
	cl     *claim   // active analytic claim over attached resources, if any

	// Claims counts analytic transfer claims anchored on this tracker;
	// Conflicts the subset folded back to chunk-wise state early because a
	// second stream touched the path (a direct measure of DMA path
	// collisions, exported by the metrics layer).
	Claims, Conflicts int64
}

// NewOccupancy returns an empty union tracker.
func NewOccupancy(k *sim.Kernel) *Occupancy {
	return &Occupancy{k: k}
}

// Reset empties the tracker for another simulation on the same kernel.
func (o *Occupancy) Reset() { *o = Occupancy{k: o.k} }

// linkBusy records a busy transition of an attached resource.
func (o *Occupancy) linkBusy(busy bool) {
	if o.cl != nil {
		// An event-driven transition while a claim is analytic means the
		// claim is no longer the sole traffic; fold it back to event-driven
		// state first so the union below composes correctly.
		o.cl.materialize() //lint:allow hotalloc claim conflict fold-back is a cold path; sole-occupant steady state never takes it
	}
	if busy {
		if o.active == 0 {
			o.since = o.k.Now()
		}
		o.active++
	} else {
		o.active--
		if o.active == 0 {
			o.acc += o.k.Now() - o.since
		}
	}
}

// Busy returns the total union busy time through the current instant,
// including the open period (event-driven or analytic) if one is active.
func (o *Occupancy) Busy() sim.Time {
	b := o.acc
	if o.cl != nil {
		b += o.cl.unionBusyUpTo(o.k.Now())
	}
	if o.active > 0 {
		b += o.k.Now() - o.since
	}
	return b
}
