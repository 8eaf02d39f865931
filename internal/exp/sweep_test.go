package exp

import (
	"errors"
	"testing"

	"relief/internal/workload"
)

// TestSweepKeyDistinguishesScenarios: every field of Scenario that selects
// a distinct simulation must produce a distinct cache key.
func TestSweepKeyDistinguishesScenarios(t *testing.T) {
	mixCGL, _ := workload.ParseMix("CGL")
	mixCG, _ := workload.ParseMix("CG")
	base := Scenario{Mix: mixCGL, Contention: workload.High, Policy: "RELIEF"}
	variants := []Scenario{
		{Mix: mixCG, Contention: workload.High, Policy: "RELIEF"},
		{Mix: mixCGL, Contention: workload.Low, Policy: "RELIEF"},
		{Mix: mixCGL, Contention: workload.High, Policy: "FCFS"},
	}
	// Every resolved platform field separates keys.
	for _, p := range []PlatformSpec{
		{Topology: "xbar"},
		{BWPredictor: "last"},
		{BWPredictor: "average"},
		{BWPredictor: "ewma"},
		{PredictDM: true},
		{DisableForwarding: true},
		{AlwaysWriteBack: true},
		{OutputPartitions: 1},
		{OutputPartitions: 3},
		{DetailedDRAM: true},
		{DetailedDRAM: true, DRAMPolicy: "fcfs"},
		{DetailedDRAM: true, DRAMChannels: 2},
		{Instances: map[string]int{"elem-matrix": 2}},
		{Instances: map[string]int{"isp": 2}},
		{BusGBs: 20},
		{DRAMGBs: 4},
		{DRAMGBs: 12},
		{SchedBaseNS: 900},
		{SchedPerScanNS: 30},
	} {
		variants = append(variants, Scenario{Mix: mixCGL, Contention: workload.High, Policy: "RELIEF", Platform: p})
	}
	s := NewSweep()
	seen := map[string]int{s.key(base): -1}
	for i, sc := range variants {
		k := s.key(sc)
		if prev, dup := seen[k]; dup {
			t.Errorf("variant %d collides with %d: key %q", i, prev, k)
		}
		seen[k] = i
	}
}

// TestSweepKeyFieldsCannotBleed: adjacent fields are delimiter-separated,
// so content cannot shift between fields and collide.
func TestSweepKeyFieldsCannotBleed(t *testing.T) {
	s := NewSweep()
	a := Scenario{Policy: "RELIEF", Platform: PlatformSpec{BWPredictor: ""}}
	b := Scenario{Policy: "RELIEF", Platform: PlatformSpec{BWPredictor: "x"}}
	if s.key(a) == s.key(b) {
		t.Fatal("distinct predictors share a key")
	}
}

func TestSweepErrSurfacesWarmFailure(t *testing.T) {
	s := NewSweep()
	bad := []Scenario{{Policy: "no-such-policy"}}
	s.Warm(bad, 2)
	if err := s.Err(); err == nil {
		t.Fatal("Warm swallowed the simulation error; Err() = nil")
	}
	// The error must describe the unknown policy.
	if err := s.Err(); err != nil && !errors.Is(err, err) {
		t.Fatalf("unexpected error identity: %v", err)
	}
}

func BenchmarkSweepKey(b *testing.B) {
	mix, _ := workload.ParseMix("CDGHL")
	sc := Scenario{
		Mix: mix, Contention: workload.Continuous, Policy: "RELIEF-LAX",
		Platform: PlatformSpec{BWPredictor: "ewma", OutputPartitions: 2, DetailedDRAM: true},
	}
	s := NewSweep()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(s.key(sc)) == 0 {
			b.Fatal("empty key")
		}
	}
}
