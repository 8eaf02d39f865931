// Package xbar models the SoC interconnect between accelerator scratchpads
// and main memory. Two topologies are provided, matching the paper's
// cost/performance extremes (§IV-B, §V-H): a full-duplex shared bus that
// serialises all transactions, and a crossbar switch that lets disjoint
// producer/consumer pairs transfer concurrently, contending only at
// endpoint ports.
package xbar

import (
	"fmt"

	"relief/internal/mem"
	"relief/internal/sim"
)

// Topology selects the interconnect structure.
type Topology uint8

// Topologies.
const (
	Bus Topology = iota
	Crossbar
)

func (t Topology) String() string {
	switch t {
	case Bus:
		return "bus"
	case Crossbar:
		return "xbar"
	}
	return fmt.Sprintf("topology(%d)", uint8(t))
}

// EndpointDRAM addresses main memory in Path calls; accelerator instances
// are addressed by their non-negative instance index.
const EndpointDRAM = -1

// Interconnect wires accelerator SPAD ports and the DRAM controller
// together and yields the resource path a DMA transfer must traverse.
type Interconnect struct {
	topo  Topology
	dram  mem.Server
	bus   *mem.Resource // Bus topology
	ports []mem.Server  // Crossbar topology, one per accelerator instance

	// paths holds every endpoint pair's resource path, built once in New:
	// the path from src to dst is paths[(src+1)*endpoints + dst+1].
	paths     [][]mem.Server
	endpoints int // instances plus DRAM

	k *sim.Kernel
	// union-occupancy tracking across interconnect resources (not DRAM)
	occ *mem.Occupancy
}

// Config sets the interconnect's bandwidth parameters.
type Config struct {
	Topology Topology
	// BusBandwidth is the link bandwidth in bytes/s (paper: 16 B full-duplex
	// bus, 14.9 GB/s peak). Crossbar ports run at the same link speed.
	BusBandwidth float64
	// DRAMBandwidth is the effective main-memory bandwidth in bytes/s
	// (paper platform: LPDDR5-6400, 12.8 GB/s peak; ~6.4 GB/s achieved by a
	// single DMA stream, which is what the Table II memory times imply).
	DRAMBandwidth float64
	// Instances is the number of accelerator instances (crossbar ports).
	Instances int
	// DRAMServer, if non-nil, replaces the default fixed-bandwidth DRAM
	// resource — e.g. the bank-level LPDDR controller from internal/dram.
	DRAMServer mem.Server
}

// DefaultConfig mirrors the paper's simulated platform (Table VI).
func DefaultConfig(instances int) Config {
	return Config{
		Topology:      Bus,
		BusBandwidth:  14.9 * mem.GB,
		DRAMBandwidth: 6.4 * mem.GB,
		Instances:     instances,
	}
}

// New builds the interconnect.
func New(k *sim.Kernel, cfg Config) *Interconnect {
	ic := &Interconnect{
		topo: cfg.Topology,
		dram: cfg.DRAMServer,
		k:    k,
		occ:  mem.NewOccupancy(k),
	}
	if ic.dram == nil {
		ic.dram = mem.NewResource(k, "dram", cfg.DRAMBandwidth)
	}
	watch := func(r *mem.Resource) {
		r.SetOccupancy(ic.occ)
	}
	switch cfg.Topology {
	case Bus:
		ic.bus = mem.NewResource(k, "bus", cfg.BusBandwidth)
		watch(ic.bus)
	case Crossbar:
		ic.ports = make([]mem.Server, cfg.Instances)
		for i := range ic.ports {
			port := mem.NewResource(k, fmt.Sprintf("port%d", i), cfg.BusBandwidth)
			watch(port)
			ic.ports[i] = port
		}
	default:
		panic("xbar: unknown topology")
	}
	ic.buildPaths(cfg.Instances)
	return ic
}

// Reset returns the interconnect to its state when built, for another
// simulation on the same kernel: its links, the DRAM resource it owns and
// the union-occupancy tracker are emptied, and the paths are kept. An
// injected DRAM server (the bank-level controller) is its owner's to
// reset.
func (ic *Interconnect) Reset() {
	ic.occ.Reset()
	if ic.bus != nil {
		ic.bus.Reset()
	}
	for _, p := range ic.ports {
		p.(*mem.Resource).Reset()
	}
	if dr, ok := ic.dram.(*mem.Resource); ok {
		dr.Reset()
	}
}

// buildPaths lays out the path of every (src, dst) pair over the endpoints
// DRAM and 0..instances-1, all sharing one backing array.
func (ic *Interconnect) buildPaths(instances int) {
	ic.endpoints = instances + 1
	ic.paths = make([][]mem.Server, ic.endpoints*ic.endpoints)
	backing := make([]mem.Server, 0, 2*len(ic.paths))
	for src := EndpointDRAM; src < instances; src++ {
		for dst := EndpointDRAM; dst < instances; dst++ {
			start := len(backing)
			first, second := ic.route(src, dst)
			backing = append(backing, first)
			if second != nil {
				backing = append(backing, second)
			}
			ic.paths[(src+1)*ic.endpoints+dst+1] = backing[start:len(backing):len(backing)]
		}
	}
}

// Topology returns the configured topology.
func (ic *Interconnect) Topology() Topology { return ic.topo }

// DRAM returns the main-memory resource.
func (ic *Interconnect) DRAM() mem.Server { return ic.dram }

// Path returns the ordered resources a transfer from src to dst traverses.
// Endpoints are instance indices or EndpointDRAM. Every path is built once
// in New and the same slice is returned to every caller, so it is
// read-only: a caller must never modify or append to it.
func (ic *Interconnect) Path(src, dst int) []mem.Server {
	if src < EndpointDRAM || dst < EndpointDRAM || src >= ic.endpoints-1 || dst >= ic.endpoints-1 {
		panic(fmt.Sprintf("xbar: path %d->%d outside %d instances", src, dst, ic.endpoints-1))
	}
	return ic.paths[(src+1)*ic.endpoints+dst+1]
}

// route returns the one or two resources (second nil for one) a transfer
// from src to dst traverses in the topology.
func (ic *Interconnect) route(src, dst int) (first, second mem.Server) {
	switch ic.topo {
	case Bus:
		switch {
		case src == EndpointDRAM && dst == EndpointDRAM:
			return ic.dram, nil
		case src == EndpointDRAM:
			return ic.dram, ic.bus
		case dst == EndpointDRAM:
			return ic.bus, ic.dram
		default:
			return ic.bus, nil
		}
	case Crossbar:
		switch {
		case src == EndpointDRAM && dst == EndpointDRAM:
			return ic.dram, nil
		case src == EndpointDRAM:
			return ic.dram, ic.ports[dst]
		case dst == EndpointDRAM:
			return ic.ports[src], ic.dram
		default:
			return ic.ports[src], ic.ports[dst]
		}
	}
	panic("xbar: unknown topology")
}

// Occupancy returns the fraction of elapsed time for which at least one
// interconnect link had a transaction in flight (paper Fig. 13 metric).
func (ic *Interconnect) Occupancy() float64 {
	now := ic.k.Now()
	if now == 0 {
		return 0
	}
	return float64(ic.occ.Busy()) / float64(now)
}

// ClaimStats reports analytic DMA claim activity over the interconnect's
// links: claims installed, and conflicts — claims folded back to chunk-wise
// service early because a second stream touched the path. The conflict
// count is a direct measure of DMA path collisions on the interconnect.
func (ic *Interconnect) ClaimStats() (claims, conflicts int64) {
	return ic.occ.Claims, ic.occ.Conflicts
}

// State is the interconnect's serializable state at a quiescent instant:
// accumulated accounting for the links, the union-occupancy tracker, and —
// when the interconnect owns the DRAM server (no external controller was
// injected) — the DRAM resource. An externally supplied DRAM server (the
// bank-level controller) captures its own state.
type State struct {
	Links []mem.ResourceState // bus (one entry) or crossbar ports (one per instance)
	Occ   mem.OccupancyState
	DRAM  *mem.ResourceState // nil when cfg.DRAMServer was injected
}

// CaptureState snapshots the interconnect at a quiescent instant, erroring
// if any link or the DRAM resource is mid-transfer.
func (ic *Interconnect) CaptureState() (State, error) {
	var s State
	capture := func(r *mem.Resource) error {
		rs, err := r.CaptureState()
		if err != nil {
			return err
		}
		s.Links = append(s.Links, rs)
		return nil
	}
	if ic.bus != nil {
		if err := capture(ic.bus); err != nil {
			return State{}, err
		}
	}
	for _, p := range ic.ports {
		if err := capture(p.(*mem.Resource)); err != nil {
			return State{}, err
		}
	}
	occ, err := ic.occ.CaptureState()
	if err != nil {
		return State{}, err
	}
	s.Occ = occ
	if dr, ok := ic.dram.(*mem.Resource); ok {
		rs, err := dr.CaptureState()
		if err != nil {
			return State{}, err
		}
		s.DRAM = &rs
	}
	return s, nil
}

// RestoreState primes a freshly constructed interconnect (same topology and
// instance count) with captured accounting.
func (ic *Interconnect) RestoreState(s State) error {
	var links []*mem.Resource
	if ic.bus != nil {
		links = append(links, ic.bus)
	}
	for _, p := range ic.ports {
		links = append(links, p.(*mem.Resource))
	}
	if len(links) != len(s.Links) {
		return fmt.Errorf("xbar: restore link count %d, checkpoint has %d", len(links), len(s.Links))
	}
	for i, l := range links {
		if err := l.RestoreState(s.Links[i]); err != nil {
			return err
		}
	}
	if err := ic.occ.RestoreState(s.Occ); err != nil {
		return err
	}
	dr, ok := ic.dram.(*mem.Resource)
	if ok != (s.DRAM != nil) {
		return fmt.Errorf("xbar: restore DRAM server kind mismatch with checkpoint")
	}
	if ok {
		return dr.RestoreState(*s.DRAM)
	}
	return nil
}
