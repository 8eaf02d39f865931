package exp

import (
	"math"
	"runtime"
	"testing"

	"relief/internal/workload"
)

// TestFRFCFSMatchesFCFSUnderCursorLayout pins a known limitation of the
// detailed DRAM model: under today's address layout FR-FCFS cannot change
// a result. dram.Controller.Enqueue lays every request out at one global
// address cursor, so each channel's queue is in arrival order with pages
// that only increase. A later segment that hits an open row is then in the
// page the head is in, and the head hits first, so FR-FCFS always picks
// the head, exactly as FCFS does. Every FR-FCFS cell must therefore match
// its FCFS twin in every result field and in the row-hit rate's bits; only
// EventsFired may differ, because FR-FCFS runs end at fallback picks.
//
// This test is expected to flip once requests get per-buffer addresses
// with a sub-page bank interleave (ROADMAP item 3): FR-FCFS can then
// reorder, and the pair must be allowed to differ.
func TestFRFCFSMatchesFCFSUnderCursorLayout(t *testing.T) {
	policies := FairnessPolicyNames
	if testing.Short() {
		policies = []string{"FCFS", "GEDF-D", "LAX", "RELIEF"}
	}
	var grid []Scenario
	for _, channels := range []int{1, 2} {
		for _, mix := range workload.Mixes(workload.High) {
			for _, p := range policies {
				for _, dp := range []string{"", "fcfs"} {
					grid = append(grid, Scenario{Mix: mix, Contention: workload.High, Policy: p,
						Platform: PlatformSpec{DetailedDRAM: true, DRAMPolicy: dp, DRAMChannels: channels}})
				}
			}
		}
	}
	s := NewSweep()
	s.Warm(grid, runtime.GOMAXPROCS(0))
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	// Some pair must fire different events, or the FCFS twins did not
	// run under FCFS at all.
	eventsDiffer := 0
	for i := 0; i < len(grid); i += 2 {
		fr, fc := grid[i], grid[i+1]
		a, err := s.Get(fr)
		if err != nil {
			t.Fatal(err)
		}
		b, err := s.Get(fc)
		if err != nil {
			t.Fatal(err)
		}
		if la, lb := scenarioDigestLine(fr, a), scenarioDigestLine(fc, b); la != lb {
			t.Errorf("%d channels: FR-FCFS and FCFS results differ:\nfr-fcfs %sfcfs    %s", fr.Platform.DRAMChannels, la, lb)
		}
		if ha, hb := math.Float64bits(a.RowHitRate), math.Float64bits(b.RowHitRate); ha != hb {
			t.Errorf("%d channels: %s row-hit rate %v under FR-FCFS, %v under FCFS",
				fr.Platform.DRAMChannels, scenarioDigestLine(fr, a), a.RowHitRate, b.RowHitRate)
		}
		if a.Stats.EventsFired != b.Stats.EventsFired {
			eventsDiffer++
		}
	}
	if eventsDiffer == 0 {
		t.Error("every FR-FCFS cell fired as many events as its FCFS twin: the twins did not run different controller policies")
	}
}
