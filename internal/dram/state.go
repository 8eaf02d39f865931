package dram

import (
	"fmt"

	"relief/internal/sim"
)

// BankState is one bank's serializable row-buffer state.
type BankState struct {
	OpenRow int64
	Valid   bool
}

// ChannelState is one channel's serializable state at a quiescent instant
// (no burst in service, empty queue): bank row buffers, accumulated busy
// time, and the refresh schedule position.
type ChannelState struct {
	Banks       []BankState
	BusyAcc     sim.Time
	NextRefresh sim.Time
}

// ControllerState is the controller's serializable state: the synthetic
// address cursor (row/bank placement of future requests depends on it),
// served-byte and row/refresh statistics, and per-channel state.
type ControllerState struct {
	Cursor    int64
	Bytes     int64
	RowHits   int64
	RowMisses int64
	Refreshes int64
	Channels  []ChannelState
}

// CaptureState snapshots the controller at a quiescent instant, erroring if
// any channel still has bursts queued or in flight.
func (c *Controller) CaptureState() (ControllerState, error) {
	s := ControllerState{
		Cursor:    c.cursor,
		Bytes:     c.bytes,
		RowHits:   c.RowHits,
		RowMisses: c.RowMisses,
		Refreshes: c.Refreshes,
	}
	for _, ch := range c.channels {
		if ch.serving || ch.bursts > 0 || ch.fin != nil {
			return ControllerState{}, fmt.Errorf("dram: channel %d busy at capture", ch.idx)
		}
		cs := ChannelState{BusyAcc: ch.busyAcc, NextRefresh: ch.nextRefresh}
		for _, b := range ch.banks {
			cs.Banks = append(cs.Banks, BankState{OpenRow: b.openRow, Valid: b.valid})
		}
		s.Channels = append(s.Channels, cs)
	}
	return s, nil
}

// RestoreState primes a freshly constructed controller (same geometry) with
// state captured at capturedAt. It rejects counters and times a run can
// never produce before touching the controller, so a crafted checkpoint
// errors instead of indexing out of range on the first request or
// silently shifting later results: negative values, an open row below the
// closed marker -1, a refresh schedule off the tREFI grid or more than one
// tREFI past the capture, and an open row beyond the last row the cursor
// has addressed.
func (c *Controller) RestoreState(s ControllerState, capturedAt sim.Time) error {
	if len(s.Channels) != len(c.channels) {
		return fmt.Errorf("dram: restore channel count %d, checkpoint has %d", len(c.channels), len(s.Channels))
	}
	for _, f := range [...]struct {
		name string
		v    int64
	}{
		{"cursor", s.Cursor}, {"bytes", s.Bytes}, {"row hits", s.RowHits},
		{"row misses", s.RowMisses}, {"refreshes", s.Refreshes},
	} {
		if f.v < 0 {
			return fmt.Errorf("dram: restore negative %s %d", f.name, f.v)
		}
	}
	// Rows are opened only by requests laid out below the cursor. With no
	// byte addressed yet, lastRow is -1 and no bank may be open.
	lastRow := int64(-1)
	if s.Cursor > 0 {
		lastRow = (s.Cursor - 1) / c.cfg.PageBytes / int64(len(c.channels)) / int64(c.cfg.Banks)
	}
	for i, cs := range s.Channels {
		if len(cs.Banks) != len(c.channels[i].banks) {
			return fmt.Errorf("dram: restore bank count %d, checkpoint has %d", len(c.channels[i].banks), len(cs.Banks))
		}
		if cs.BusyAcc < 0 || cs.NextRefresh < 0 {
			return fmt.Errorf("dram: restore channel %d negative busy time %d or next refresh %d", i, cs.BusyAcc, cs.NextRefresh)
		}
		if err := c.checkNextRefresh(cs.NextRefresh, capturedAt); err != nil {
			return fmt.Errorf("dram: restore channel %d %w", i, err)
		}
		for j, b := range cs.Banks {
			if b.OpenRow < -1 {
				return fmt.Errorf("dram: restore channel %d bank %d open row %d below -1", i, j, b.OpenRow)
			}
			if b.Valid && b.OpenRow > lastRow {
				return fmt.Errorf("dram: restore channel %d bank %d open row %d beyond row %d, the last the cursor has addressed", i, j, b.OpenRow, lastRow)
			}
		}
	}
	c.cursor = s.Cursor
	c.bytes = s.Bytes
	c.RowHits = s.RowHits
	c.RowMisses = s.RowMisses
	c.Refreshes = s.Refreshes
	for i, cs := range s.Channels {
		ch := c.channels[i]
		ch.busyAcc = cs.BusyAcc
		ch.nextRefresh = cs.NextRefresh
		for j, b := range cs.Banks {
			ch.banks[j] = bank{openRow: b.OpenRow, valid: b.Valid}
		}
	}
	return nil
}

// checkNextRefresh bounds a restored refresh schedule. With refresh off
// it never moves from 0. With refresh on it starts at tREFI and only ever
// advances by whole tREFIs, and at a quiescent capture no run has planned
// past the capture instant, so it is at most one tREFI beyond it.
func (c *Controller) checkNextRefresh(next, capturedAt sim.Time) error {
	trefi := c.cfg.TREFI
	if trefi == 0 {
		if next != 0 {
			return fmt.Errorf("next refresh %d with refresh off", next)
		}
		return nil
	}
	if next <= 0 || next%trefi != 0 {
		return fmt.Errorf("next refresh %d not a positive multiple of tREFI %d", next, trefi)
	}
	if next > capturedAt+trefi {
		return fmt.Errorf("next refresh %d more than tREFI %d past the capture instant %d", next, trefi, capturedAt)
	}
	return nil
}
