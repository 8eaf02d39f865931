package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"sort"
	"testing"

	"relief/internal/workload"
)

// goldenMainGridDigest locks the simulation results of the full main
// scenario grid (every contention level x mix x fairness policy). It was
// captured from the pre-optimization (chunk-by-chunk, container/heap)
// simulator, so any hot-path optimization — the pooled event kernel, DMA
// chunk coalescing, DRAM burst-run batching — must reproduce every
// makespan, deadline percentage, traffic counter, and occupancy value
// bit-for-bit to pass.
//
// If this test fails, the optimization changed simulation *results*, not
// just simulation *speed*: that is a correctness bug, not a baseline to
// re-record.
const goldenMainGridDigest = "366f59930417d4970ea96d5b02861cd620e32c272817848427cce8ccf5befa7a"

// scenarioDigestLine renders every result field the paper's tables and
// figures consume, in a canonical, map-order-independent form. Floats are
// rendered via their IEEE bit patterns so the comparison is exact.
func scenarioDigestLine(sc Scenario, r *Result) string {
	st := r.Stats
	syms := ""
	for _, a := range sc.Mix {
		syms += a.Sym()
	}
	line := fmt.Sprintf("%s/%s/%s end=%d mk=%d edges=%d fwd=%d col=%d "+
		"base=%d dr=%d dw=%d sx=%d sd=%d nd=%d nm=%d cb=%d ic=%016x",
		sc.Contention, syms, sc.Policy,
		int64(r.End), int64(st.Makespan), st.Edges, st.Forwards, st.Colocations,
		st.BaselineBytes, st.DRAMReadBytes, st.DRAMWriteBytes,
		st.SpadXferBytes, st.SpadDMABytes,
		st.NodesDone, st.NodesMetDeadline, int64(st.ComputeBusy),
		math.Float64bits(st.InterconnectOccupancy))
	apps := make([]string, 0, len(st.Apps))
	for name := range st.Apps {
		apps = append(apps, name)
	}
	sort.Strings(apps)
	for _, name := range apps {
		a := st.Apps[name]
		line += fmt.Sprintf(" %s:it=%d,met=%d,nd=%d,nm=%d", name,
			a.Iterations, a.DeadlinesMet, a.NodesDone, a.NodesMetDeadline)
		for _, rt := range a.Runtimes {
			line += fmt.Sprintf(",%d", int64(rt))
		}
	}
	return line + "\n"
}

// TestGoldenMainGridDeterminism regenerates the entire main grid and
// compares a digest of every per-scenario result against the value locked
// in from the pre-optimization simulator.
func TestGoldenMainGridDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full main grid in -short mode")
	}
	grid := MainGrid()
	s := NewSweep()
	s.Warm(grid, runtime.GOMAXPROCS(0))
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, sc := range grid {
		r, err := s.Get(sc)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprint(h, scenarioDigestLine(sc, r))
	}
	got := hex.EncodeToString(h.Sum(nil))
	if got != goldenMainGridDigest {
		t.Fatalf("main-grid digest diverged from the pre-optimization simulator:\n got %s\nwant %s\n"+
			"simulation results changed — this is a correctness regression, not a new baseline",
			got, goldenMainGridDigest)
	}
}

// goldenDetailedDRAMDigest locks the results of the detailed-DRAM grid
// that the sweep benchmark runs: every high-contention mix under RELIEF,
// FCFS, LAX and GEDF-D, on the bank-level controller under FR-FCFS, under
// FCFS and with two FR-FCFS channels. The main grid runs no DRAM
// controller, so this digest is the one that covers its queueing and
// batching. Each line adds the row-hit rate's bits and the kernel's event
// count, so a controller change that keeps the results but fires
// different events fails here too.
const goldenDetailedDRAMDigest = "e9d3cfaa627131bd4df6f8a7a58ed784c284f5ddb79da3ca6436461887123920"

// detailedDRAMGrid returns the cells goldenDetailedDRAMDigest covers.
func detailedDRAMGrid() []Scenario {
	var grid []Scenario
	for _, plat := range []PlatformSpec{
		{DetailedDRAM: true},
		{DetailedDRAM: true, DRAMPolicy: "fcfs"},
		{DetailedDRAM: true, DRAMChannels: 2},
	} {
		for _, mix := range workload.Mixes(workload.High) {
			for _, p := range []string{"RELIEF", "FCFS", "LAX", "GEDF-D"} {
				grid = append(grid, Scenario{Mix: mix, Contention: workload.High, Policy: p, Platform: plat})
			}
		}
	}
	return grid
}

// TestGoldenDetailedDRAMDeterminism regenerates the detailed-DRAM grid and
// compares a digest of every cell against the locked value.
func TestGoldenDetailedDRAMDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("detailed-DRAM grid in -short mode")
	}
	grid := detailedDRAMGrid()
	s := NewSweep()
	s.Warm(grid, runtime.GOMAXPROCS(0))
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, sc := range grid {
		r, err := s.Get(sc)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "dram=%q ch=%d rh=%016x ev=%d %s", sc.Platform.DRAMPolicy, sc.Platform.DRAMChannels,
			math.Float64bits(r.RowHitRate), r.Stats.EventsFired, scenarioDigestLine(sc, r))
	}
	got := hex.EncodeToString(h.Sum(nil))
	if got != goldenDetailedDRAMDigest {
		t.Fatalf("detailed-DRAM digest diverged:\n got %s\nwant %s\n"+
			"simulation results changed — this is a correctness regression, not a new baseline",
			got, goldenDetailedDRAMDigest)
	}
}
