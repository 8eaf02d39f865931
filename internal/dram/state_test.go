package dram

import (
	"strings"
	"testing"

	"relief/internal/sim"
)

// TestRestoreStateRejectsImpossibleState: a crafted checkpoint with a
// counter or time no run can produce must be refused, and a refused
// restore must leave the controller serving requests. A negative cursor
// used to be accepted and panicked on the first Enqueue with a negative
// channel index.
func TestRestoreStateRejectsImpossibleState(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*ControllerState)
		want   string
	}{
		{"negative cursor", func(s *ControllerState) { s.Cursor = -4096 }, "cursor"},
		{"negative bytes", func(s *ControllerState) { s.Bytes = -1 }, "bytes"},
		{"negative row hits", func(s *ControllerState) { s.RowHits = -1 }, "row hits"},
		{"negative row misses", func(s *ControllerState) { s.RowMisses = -1 }, "row misses"},
		{"negative refreshes", func(s *ControllerState) { s.Refreshes = -1 }, "refreshes"},
		{"negative busy time", func(s *ControllerState) { s.Channels[0].BusyAcc = -1 }, "busy time"},
		{"negative next refresh", func(s *ControllerState) { s.Channels[1].NextRefresh = -sim.Nanosecond }, "next refresh"},
		{"open row below closed", func(s *ControllerState) { s.Channels[0].Banks[3].OpenRow = -2 }, "open row"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := sim.NewKernel()
			cfg := LPDDR5()
			cfg.Channels = 2
			c := NewController(k, "dram", cfg)
			s, err := c.CaptureState()
			if err != nil {
				t.Fatal(err)
			}
			tc.mutate(&s)
			err = c.RestoreState(s)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("RestoreState error = %v, want one naming %q", err, tc.want)
			}
			done := false
			c.Enqueue(4096, func() { done = true })
			k.Run()
			if !done {
				t.Fatal("request after a refused restore never completed")
			}
		})
	}

	// The closed-row marker itself and a captured state still restore.
	k := sim.NewKernel()
	c := NewController(k, "dram", LPDDR5())
	s, err := c.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	s.Channels[0].Banks[0].OpenRow = -1
	if err := c.RestoreState(s); err != nil {
		t.Fatalf("restoring a captured state: %v", err)
	}
}
