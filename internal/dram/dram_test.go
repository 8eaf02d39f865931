package dram

import (
	"testing"
	"testing/quick"

	"relief/internal/mem"
	"relief/internal/sim"
)

func TestImplementsServer(t *testing.T) {
	var _ mem.Server = (*Controller)(nil)
}

func TestPolicyString(t *testing.T) {
	if FRFCFS.String() != "fr-fcfs" || FCFS.String() != "fcfs" {
		t.Fatal("policy names wrong")
	}
}

func TestInvalidGeometryPanics(t *testing.T) {
	partial := LPDDR5()
	partial.PageBytes = 2048 + 32 // not a whole number of 64-byte bursts
	longRefresh := LPDDR5()
	longRefresh.TREFI = longRefresh.TRFC // refresh stalls would compound
	for name, cfg := range map[string]Config{"zero": {}, "partial-burst page": partial, "tRFC at tREFI": longRefresh} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid geometry accepted")
				}
			}()
			NewController(sim.NewKernel(), "bad", cfg)
		})
	}
}

func TestZeroByteRequestCompletes(t *testing.T) {
	k := sim.NewKernel()
	c := NewController(k, "dram", LPDDR5())
	ran := false
	c.Enqueue(0, func() { ran = true })
	k.Run()
	if !ran {
		t.Fatal("zero-byte request never completed")
	}
}

// TestSequentialStreamBandwidth: one sequential stream achieves close to
// the calibrated ~6.4 GB/s effective bandwidth.
func TestSequentialStreamBandwidth(t *testing.T) {
	k := sim.NewKernel()
	c := NewController(k, "dram", LPDDR5())
	const total = 1 << 20 // 1 MiB
	var end sim.Time
	c.Enqueue(total, func() { end = k.Now() })
	k.Run()
	bw := float64(total) / end.Seconds()
	if bw < 5.5e9 || bw > 8e9 {
		t.Errorf("sequential bandwidth = %.2f GB/s, want ~6.4", bw/1e9)
	}
	if hr := c.RowHitRate(); hr < 0.9 {
		t.Errorf("sequential stream row-hit rate = %.2f, want > 0.9", hr)
	}
	if c.BytesServed() != total {
		t.Errorf("BytesServed = %d", c.BytesServed())
	}
	if c.BusyTime() != end {
		t.Errorf("BusyTime = %v, want %v (continuously busy)", c.BusyTime(), end)
	}
}

// TestRowMissesCostMore: a stream of single-burst requests scattered across
// rows is slower than a dense stream of equal size.
func TestRowMissesCostMore(t *testing.T) {
	run := func(requests int, perReq int64) sim.Time {
		k := sim.NewKernel()
		c := NewController(k, "dram", LPDDR5())
		remaining := requests
		var end sim.Time
		for i := 0; i < requests; i++ {
			c.Enqueue(perReq, func() {
				remaining--
				if remaining == 0 {
					end = k.Now()
				}
			})
		}
		k.Run()
		return end
	}
	cfg := LPDDR5()
	dense := run(1, 64*cfg.PageBytes)              // few row misses
	scattered := run(int(64*cfg.PageBytes/64), 64) // cursor still sequential...
	_ = scattered
	// Scattered-by-row: issue bursts that each land on a fresh row by
	// spacing requests a full bank-stride apart.
	k := sim.NewKernel()
	c := NewController(k, "dram", LPDDR5())
	n := 128
	remaining := n
	var end sim.Time
	for i := 0; i < n; i++ {
		// Advance the allocation cursor a whole row set between bursts.
		c.cursor += cfg.PageBytes * int64(cfg.Banks)
		c.Enqueue(64, func() {
			remaining--
			if remaining == 0 {
				end = k.Now()
			}
		})
	}
	k.Run()
	perBurstScattered := float64(end) / float64(n)
	perBurstDense := float64(dense) / float64(64*cfg.PageBytes/64)
	if perBurstScattered < 2*perBurstDense {
		t.Errorf("row-missing bursts (%.0fps) not much slower than dense (%.0fps)",
			perBurstScattered, perBurstDense)
	}
	if c.RowHitRate() > 0.05 {
		t.Errorf("scattered stream hit rate = %.2f, want ~0", c.RowHitRate())
	}
}

// TestFRFCFSBeatsFCFSUnderInterleaving: two interleaved streams finish
// sooner with FR-FCFS because row hits are served first.
func TestFRFCFSBeatsFCFSUnderInterleaving(t *testing.T) {
	run := func(p Policy) sim.Time {
		k := sim.NewKernel()
		cfg := LPDDR5()
		cfg.Policy = p
		c := NewController(k, "dram", cfg)
		// Interleave many small requests from two "streams" by alternating
		// cursor jumps, creating row-conflict patterns FCFS serves in
		// arrival order.
		const reqs = 64
		remaining := 2 * reqs
		var end sim.Time
		done := func() {
			remaining--
			if remaining == 0 {
				end = k.Now()
			}
		}
		for i := 0; i < reqs; i++ {
			c.Enqueue(256, done) // stream A: sequential-ish
			c.cursor += cfg.PageBytes*int64(cfg.Banks)/2 + 64
			c.Enqueue(256, done) // stream B: far away
		}
		k.Run()
		return end
	}
	fr := run(FRFCFS)
	fc := run(FCFS)
	if fr > fc {
		t.Errorf("FR-FCFS (%v) slower than FCFS (%v)", fr, fc)
	}
}

// TestRequestCompletionCounts: every request's done fires exactly once.
func TestRequestCompletionCounts(t *testing.T) {
	k := sim.NewKernel()
	c := NewController(k, "dram", LPDDR5())
	count := 0
	for i := 0; i < 50; i++ {
		c.Enqueue(int64(1+i*137), func() { count++ })
	}
	k.Run()
	if count != 50 {
		t.Fatalf("completed %d of 50 requests", count)
	}
	if c.QueueLen() != 0 {
		t.Fatalf("queue not drained: %d", c.QueueLen())
	}
}

// TestServiceTimeLowerBound: actual service is never faster than the
// unloaded estimate.
func TestQuickServiceLowerBound(t *testing.T) {
	f := func(raw uint32) bool {
		n := int64(raw%1_000_000) + 1
		k := sim.NewKernel()
		c := NewController(k, "dram", LPDDR5())
		var end sim.Time
		c.Enqueue(n, func() { end = k.Now() })
		k.Run()
		return end >= c.ServiceTime(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestIdleGapAccounting: busy time excludes idle gaps between bursts.
func TestIdleGapAccounting(t *testing.T) {
	k := sim.NewKernel()
	c := NewController(k, "dram", LPDDR5())
	c.Enqueue(64, func() {})
	k.Run()
	firstBusy := c.BusyTime()
	k.Schedule(10*sim.Microsecond, func() { c.Enqueue(64, func() {}) })
	k.Run()
	if c.BusyTime() >= 10*sim.Microsecond {
		t.Errorf("BusyTime %v includes the idle gap", c.BusyTime())
	}
	if c.BusyTime() <= firstBusy {
		t.Error("second burst not accounted")
	}
}

// TestMultiChannelScales: two channels roughly double concurrent-stream
// throughput.
func TestMultiChannelScales(t *testing.T) {
	run := func(channels int) sim.Time {
		k := sim.NewKernel()
		cfg := LPDDR5()
		cfg.Channels = channels
		cfg.TREFI = 0 // isolate channel scaling
		c := NewController(k, "dram", cfg)
		const total = 1 << 20
		remaining := 4
		var end sim.Time
		for i := 0; i < 4; i++ {
			c.Enqueue(total/4, func() {
				remaining--
				if remaining == 0 {
					end = k.Now()
				}
			})
		}
		k.Run()
		return end
	}
	one := run(1)
	two := run(2)
	if float64(two) > 0.7*float64(one) {
		t.Errorf("2 channels (%v) not meaningfully faster than 1 (%v)", two, one)
	}
}

// TestRefreshCostsThroughput: refresh steals ~tRFC/tREFI of bandwidth and
// closes rows.
func TestRefreshCostsThroughput(t *testing.T) {
	run := func(refresh bool) (sim.Time, int64) {
		k := sim.NewKernel()
		cfg := LPDDR5()
		if !refresh {
			cfg.TREFI = 0
		}
		c := NewController(k, "dram", cfg)
		var end sim.Time
		c.Enqueue(1<<20, func() { end = k.Now() })
		k.Run()
		return end, c.Refreshes
	}
	without, r0 := run(false)
	with, r1 := run(true)
	if r0 != 0 {
		t.Fatalf("refresh fired with TREFI=0: %d", r0)
	}
	if r1 == 0 {
		t.Fatal("no refreshes over a 160us stream")
	}
	// Refresh adds ~tRFC/tREFI of stall but also pre-closes rows (the
	// precharge is folded into tRFC), so the net effect on a streaming
	// access pattern is small in either direction — assert it stays
	// within a few percent.
	delta := float64(with-without) / float64(without)
	if delta < -0.05 || delta > 0.12 {
		t.Errorf("refresh changed stream time by %.1f%%, expect a few percent", 100*delta)
	}
}
