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
		{"next refresh off the tREFI grid", func(s *ControllerState) { s.Channels[0].NextRefresh += sim.Nanosecond }, "multiple of tREFI"},
		{"next refresh at zero", func(s *ControllerState) { s.Channels[1].NextRefresh = 0 }, "multiple of tREFI"},
		{"next refresh past capture", func(s *ControllerState) { s.Channels[0].NextRefresh = 3 * LPDDR5().TREFI }, "past the capture"},
		{"open row beyond cursor", func(s *ControllerState) {
			s.Cursor = 64 * 2048
			s.Channels[1].Banks[5] = BankState{OpenRow: 2, Valid: true}
		}, "last the cursor has addressed"},
		{"open row before any request", func(s *ControllerState) { s.Channels[0].Banks[0] = BankState{OpenRow: 0, Valid: true} }, "last the cursor has addressed"},
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
			err = c.RestoreState(s, k.Now())
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

	// With refresh off the schedule never leaves 0.
	cfg := LPDDR5()
	cfg.TREFI = 0
	off := NewController(sim.NewKernel(), "dram", cfg)
	s, err := off.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	s.Channels[0].NextRefresh = cfg.TRFC
	if err := off.RestoreState(s, 0); err == nil || !strings.Contains(err.Error(), "refresh off") {
		t.Fatalf("RestoreState error = %v, want one naming refresh off", err)
	}

	// The closed-row marker itself and a captured state still restore.
	k := sim.NewKernel()
	c := NewController(k, "dram", LPDDR5())
	s, err = c.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	s.Channels[0].Banks[0].OpenRow = -1
	if err := c.RestoreState(s, k.Now()); err != nil {
		t.Fatalf("restoring a captured state: %v", err)
	}
}

// TestRestoreStateAcceptsCapturedState: states captured after real traffic
// sit inside every restore bound — the refresh schedule on its grid and at
// most one tREFI ahead, open rows at or below the cursor's last row —
// with refresh on and off, one and three channels, and captures taken
// right after a burst of traffic and after a long idle gap.
func TestRestoreStateAcceptsCapturedState(t *testing.T) {
	for _, refi := range []sim.Time{0, LPDDR5().TREFI} {
		for _, channels := range []int{1, 3} {
			for _, idle := range []sim.Time{0, 50 * LPDDR5().TREFI} {
				cfg := LPDDR5()
				cfg.TREFI, cfg.Channels = refi, channels
				k := sim.NewKernel()
				c := NewController(k, "dram", cfg)
				for i := int64(1); i <= 40; i++ {
					c.Enqueue(i*997, func() {})
				}
				end := k.Run()
				if idle > 0 {
					k.At(end+idle, func() { c.Enqueue(100, func() {}) })
					k.Run()
				}
				s, err := c.CaptureState()
				if err != nil {
					t.Fatal(err)
				}
				fresh := NewController(sim.NewKernel(), "dram", cfg)
				if err := fresh.RestoreState(s, k.Now()); err != nil {
					t.Errorf("refi=%v channels=%d idle=%v: restoring a captured state: %v", refi, channels, idle, err)
				}
			}
		}
	}
}
