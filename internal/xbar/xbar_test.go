package xbar

import (
	"testing"

	"relief/internal/mem"
	"relief/internal/sim"
)

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig(7)
	if cfg.Topology != Bus {
		t.Errorf("default topology = %v, want bus", cfg.Topology)
	}
	if cfg.BusBandwidth != 14.9*mem.GB {
		t.Errorf("bus bandwidth = %v, want 14.9 GB/s", cfg.BusBandwidth)
	}
	if cfg.DRAMBandwidth != 6.4*mem.GB {
		t.Errorf("dram bandwidth = %v, want 6.4 GB/s", cfg.DRAMBandwidth)
	}
}

func TestTopologyString(t *testing.T) {
	if Bus.String() != "bus" || Crossbar.String() != "xbar" {
		t.Error("topology names wrong")
	}
}

func TestBusPaths(t *testing.T) {
	k := sim.NewKernel()
	ic := New(k, DefaultConfig(3))
	// DRAM -> SPAD traverses dram then bus.
	p := ic.Path(EndpointDRAM, 1)
	if len(p) != 2 || p[0] != ic.DRAM() || p[1].Name() != "bus" {
		t.Errorf("dram->spad path wrong: %v", names(p))
	}
	// SPAD -> DRAM traverses bus then dram.
	p = ic.Path(1, EndpointDRAM)
	if len(p) != 2 || p[0].Name() != "bus" || p[1] != ic.DRAM() {
		t.Errorf("spad->dram path wrong: %v", names(p))
	}
	// SPAD -> SPAD stays on the bus.
	p = ic.Path(0, 2)
	if len(p) != 1 || p[0].Name() != "bus" {
		t.Errorf("spad->spad path wrong: %v", names(p))
	}
}

func TestCrossbarPaths(t *testing.T) {
	cfg := DefaultConfig(3)
	cfg.Topology = Crossbar
	ic := New(sim.NewKernel(), cfg)
	p := ic.Path(0, 2)
	if len(p) != 2 || p[0].Name() != "port0" || p[1].Name() != "port2" {
		t.Errorf("xbar spad->spad path wrong: %v", names(p))
	}
	p = ic.Path(EndpointDRAM, 1)
	if len(p) != 2 || p[0] != ic.DRAM() || p[1].Name() != "port1" {
		t.Errorf("xbar dram->spad path wrong: %v", names(p))
	}
	p = ic.Path(2, EndpointDRAM)
	if len(p) != 2 || p[0].Name() != "port2" || p[1] != ic.DRAM() {
		t.Errorf("xbar spad->dram path wrong: %v", names(p))
	}
}

func names(rs []mem.Server) []string {
	var out []string
	for _, r := range rs {
		out = append(out, r.Name())
	}
	return out
}

// TestCrossbarParallelism: two disjoint producer/consumer transfers run
// concurrently on the crossbar but serialise on the bus.
func TestCrossbarParallelism(t *testing.T) {
	run := func(topo Topology) sim.Time {
		cfg := DefaultConfig(4)
		cfg.Topology = topo
		cfg.BusBandwidth = 1 * mem.GB
		k := sim.NewKernel()
		ic := New(k, cfg)
		const bytes = 64 * mem.DefaultChunkBytes
		done := 0
		var end sim.Time
		for _, pair := range [][2]int{{0, 1}, {2, 3}} {
			mem.StartTransfer(k, ic.Path(pair[0], pair[1]), bytes, 0, func(tr mem.TransferResult) {
				done++
				if tr.End > end {
					end = tr.End
				}
			})
		}
		k.Run()
		if done != 2 {
			t.Fatalf("%v: %d transfers completed, want 2", topo, done)
		}
		return end
	}
	busEnd := run(Bus)
	xbarEnd := run(Crossbar)
	if xbarEnd*18/10 > busEnd {
		t.Errorf("crossbar (%v) not meaningfully faster than bus (%v) for disjoint pairs", xbarEnd, busEnd)
	}
}

func TestOccupancyUnion(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.BusBandwidth = 1 * mem.GB
	k := sim.NewKernel()
	ic := New(k, cfg)
	const bytes = 1000 // 1us on the bus
	mem.StartTransfer(k, ic.Path(0, 1), bytes, 0, func(mem.TransferResult) {})
	k.Run()
	// Let the clock idle past the transfer to dilute occupancy 50%.
	k.Schedule(1*sim.Microsecond, func() {})
	k.Run()
	occ := ic.Occupancy()
	if occ < 0.45 || occ > 0.55 {
		t.Errorf("occupancy = %v, want ~0.5", occ)
	}
}

func TestOccupancyZeroAtStart(t *testing.T) {
	ic := New(sim.NewKernel(), DefaultConfig(1))
	if ic.Occupancy() != 0 {
		t.Error("occupancy nonzero before any event")
	}
}

// TestRestoreStatePassesOnMemErrors: a crafted state with a negative link,
// occupancy or DRAM accumulator is refused by the interconnect's restore,
// not silently applied.
func TestRestoreStatePassesOnMemErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*State)
	}{
		{"link", func(s *State) { s.Links[1].BusyAcc = -1 }},
		{"occupancy", func(s *State) { s.Occ.Claims = -1 }},
		{"dram", func(s *State) { s.DRAM.Bytes = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(2)
			cfg.Topology = Crossbar
			s, err := New(sim.NewKernel(), cfg).CaptureState()
			if err != nil {
				t.Fatal(err)
			}
			tc.mutate(&s)
			if err := New(sim.NewKernel(), cfg).RestoreState(s); err == nil {
				t.Fatal("RestoreState accepted a negative accumulator")
			}
		})
	}
}
