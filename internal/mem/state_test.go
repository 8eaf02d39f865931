package mem

import (
	"strings"
	"testing"

	"relief/internal/sim"
)

// TestRestoreStateRejectsNegativeAccounting: a crafted checkpoint with a
// negative accumulator, which no run can produce, must be refused, and the
// refused restore must leave the resource or tracker untouched. A negative
// link busy time used to be accepted silently.
func TestRestoreStateRejectsNegativeAccounting(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*ResourceState, *OccupancyState)
		want   string
	}{
		{"BusyAcc", func(r *ResourceState, _ *OccupancyState) { r.BusyAcc = -1 }, "resource bus negative busy time -1"},
		{"Bytes", func(r *ResourceState, _ *OccupancyState) { r.Bytes = -1 }, "bytes -1"},
		{"Acc", func(_ *ResourceState, o *OccupancyState) { o.Acc = -1 }, "occupancy negative busy time -1"},
		{"Claims", func(_ *ResourceState, o *OccupancyState) { o.Claims = -1 }, "claims -1"},
		{"Conflicts", func(_ *ResourceState, o *OccupancyState) { o.Conflicts = -1 }, "conflicts -1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rs := ResourceState{BusyAcc: 5 * sim.Nanosecond, Bytes: 100}
			occ := OccupancyState{Acc: 5 * sim.Nanosecond, Claims: 2, Conflicts: 1}
			tc.mutate(&rs, &occ)
			k := sim.NewKernel()
			r := NewResource(k, "bus", 1*GB)
			o := NewOccupancy(k)
			rerr, oerr := r.RestoreState(rs), o.RestoreState(occ)
			err := rerr
			if err == nil {
				err = oerr
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("RestoreState errors = %v, %v; want one containing %q", rerr, oerr, tc.want)
			}
			if rerr != nil && (r.BusyTime() != 0 || r.BytesServed() != 0) {
				t.Errorf("refused restore changed the resource: busy %v, bytes %d", r.BusyTime(), r.BytesServed())
			}
			if oerr != nil && (o.Busy() != 0 || o.Claims != 0 || o.Conflicts != 0) {
				t.Errorf("refused restore changed the tracker: busy %v, claims %d, conflicts %d", o.Busy(), o.Claims, o.Conflicts)
			}
		})
	}

	// Non-negative accounting restores and reads back.
	k := sim.NewKernel()
	r, o := NewResource(k, "bus", 1*GB), NewOccupancy(k)
	if err := r.RestoreState(ResourceState{BusyAcc: sim.Microsecond, Bytes: 1000}); err != nil {
		t.Fatalf("restoring a valid resource state: %v", err)
	}
	if err := o.RestoreState(OccupancyState{Acc: sim.Microsecond, Claims: 2, Conflicts: 1}); err != nil {
		t.Fatalf("restoring a valid tracker state: %v", err)
	}
	if r.BusyTime() != sim.Microsecond || r.BytesServed() != 1000 || o.Busy() != sim.Microsecond || o.Claims != 2 || o.Conflicts != 1 {
		t.Errorf("restored state did not read back: busy %v, bytes %d, occ %v, claims %d, conflicts %d",
			r.BusyTime(), r.BytesServed(), o.Busy(), o.Claims, o.Conflicts)
	}
}
