package mem

import (
	"fmt"

	"relief/internal/sim"
)

// ResourceState is the serializable state of a Resource at a quiescent
// instant (no request in service, empty FIFO, no analytic claim): the
// accumulated accounting that outlives individual transfers. Capture refuses
// a non-quiescent resource — in-flight chunk events cannot be serialized, and
// the checkpoint machinery guarantees they never exist at capture time.
type ResourceState struct {
	BusyAcc sim.Time
	Bytes   int64
}

// CaptureState snapshots the resource's accumulated accounting. It errors if
// the resource is mid-service: a checkpoint is only legal at a quiescent
// instant.
func (r *Resource) CaptureState() (ResourceState, error) {
	if r.busy || r.claim != nil || r.head != len(r.q) {
		return ResourceState{}, fmt.Errorf("mem: resource %s busy at capture", r.name)
	}
	return ResourceState{BusyAcc: r.busyAcc, Bytes: r.bytes}, nil
}

// RestoreState primes a freshly constructed resource with captured
// accounting. It rejects negative accumulators, which no run can produce,
// before touching the resource.
func (r *Resource) RestoreState(s ResourceState) error {
	if s.BusyAcc < 0 || s.Bytes < 0 {
		return fmt.Errorf("mem: restore resource %s negative busy time %d or bytes %d", r.name, s.BusyAcc, s.Bytes)
	}
	r.busyAcc = s.BusyAcc
	r.bytes = s.Bytes
	return nil
}

// OccupancyState is the serializable state of an Occupancy tracker at a
// quiescent instant (no open busy period, no active claim).
type OccupancyState struct {
	Acc       sim.Time
	Claims    int64
	Conflicts int64
}

// CaptureState snapshots the tracker's accumulated accounting, erroring if a
// busy period or analytic claim is open.
func (o *Occupancy) CaptureState() (OccupancyState, error) {
	if o.active != 0 || o.cl != nil {
		return OccupancyState{}, fmt.Errorf("mem: occupancy busy at capture")
	}
	return OccupancyState{Acc: o.acc, Claims: o.Claims, Conflicts: o.Conflicts}, nil
}

// RestoreState primes a fresh tracker with captured accounting. It
// rejects negative accumulators, which no run can produce, before touching
// the tracker.
func (o *Occupancy) RestoreState(s OccupancyState) error {
	if s.Acc < 0 || s.Claims < 0 || s.Conflicts < 0 {
		return fmt.Errorf("mem: restore occupancy negative busy time %d, claims %d or conflicts %d", s.Acc, s.Claims, s.Conflicts)
	}
	o.acc = s.Acc
	o.Claims = s.Claims
	o.Conflicts = s.Conflicts
	return nil
}
