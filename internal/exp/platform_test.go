package exp

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"relief/internal/accel"
	"relief/internal/dram"
	"relief/internal/manager"
	"relief/internal/mem"
	"relief/internal/predict"
	"relief/internal/sim"
	"relief/internal/stats"
	"relief/internal/workload"
	"relief/internal/xbar"
)

// platformJSON sets every field of the spec; it seeds FuzzLoadPlatform.
const platformJSON = `{
	"instances": {"elem-matrix": 3},
	"output_partitions": 3,
	"topology": "xbar",
	"bus_gbs": 20,
	"dram_gbs": 8,
	"detailed_dram": true,
	"dram_policy": "fcfs",
	"dram_channels": 2,
	"bw_predictor": "average",
	"predict_dm": true,
	"disable_forwarding": true,
	"always_write_back": true,
	"sched_base_ns": 200,
	"sched_per_scan_ns": 20
}`

// platformRejects are specs LoadPlatform or Resolve must refuse.
var platformRejects = []string{
	`{"bogus_field": 1}`,
	`{"instances": {"warp-drive": 1}}`,
	`{"instances": {"elem-matrix": 0}}`,
	`{"topology": "torus"}`,
	`{"dram_policy": "random"}`,
	`{"dram_channels": 2}`, // without detailed_dram
	`{"bw_predictor": "oracle"}`,
	`{"bus_gbs": -1}`,
	`{"dram_gbs": -6.4}`,
	`{"output_partitions": -2}`,
	`{"detailed_dram": true, "dram_channels": -1}`,
	`{"sched_base_ns": -120}`,
	`{"sched_per_scan_ns": -15}`,
}

func TestLoadPlatform(t *testing.T) {
	spec, err := LoadPlatform(strings.NewReader(platformJSON))
	if err != nil {
		t.Fatal(err)
	}
	pol, err := NewPolicy("RELIEF")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := spec.Resolve(pol)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Instances[accel.ElemMatrix] != 3 || cfg.Instances[accel.ISP] != 1 {
		t.Error("instance overrides wrong")
	}
	if cfg.OutputPartitions != 3 {
		t.Error("partitions not applied")
	}
	if cfg.Interconnect.Topology != xbar.Crossbar {
		t.Error("topology not applied")
	}
	if cfg.Interconnect.BusBandwidth != 20*mem.GB || cfg.Interconnect.DRAMBandwidth != 8*mem.GB {
		t.Error("bandwidths not applied")
	}
	if !cfg.DetailedDRAM || cfg.DRAMPolicy != dram.FCFS || cfg.DRAMChannels != 2 {
		t.Error("DRAM settings not applied")
	}
	if cfg.BW.Name() != "Average" || cfg.DM != predict.DMPredict {
		t.Error("predictors not applied")
	}
	if !cfg.DisableForwarding || !cfg.AlwaysWriteBack {
		t.Error("forwarding/write-back toggles not applied")
	}
	if cfg.SchedBase != 200*sim.Nanosecond || cfg.SchedPerScan != 20*sim.Nanosecond {
		t.Error("manager costs not applied")
	}
	// The manager sizes the crossbar from the instance total (3 EM + 6
	// others): the ninth port exists.
	m := manager.New(sim.NewKernel(), cfg, stats.New())
	if path := m.Interconnect().Path(8, xbar.EndpointDRAM); len(path) != 2 || path[0] == nil {
		t.Errorf("no crossbar port for the ninth instance: %v", path)
	}
}

func TestLoadPlatformRejects(t *testing.T) {
	pol, err := NewPolicy("RELIEF")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range platformRejects {
		spec, err := LoadPlatform(strings.NewReader(c))
		if err != nil {
			continue // rejected at parse time (unknown field)
		}
		if _, err := spec.Resolve(pol); err == nil {
			t.Errorf("spec %s accepted", c)
		}
	}
}

// TestScenarioKeyCanonicalPlatform: the key covers the resolved platform,
// so every spelling of one platform shares a key, and the main grid keeps
// the encoding it had before the platform was part of the key.
func TestScenarioKeyCanonicalPlatform(t *testing.T) {
	mix, _ := workload.ParseMix("CGL")
	key := func(p PlatformSpec) string {
		return ScenarioKey(Scenario{Mix: mix, Contention: workload.High, Policy: "RELIEF", Platform: p})
	}
	if got, want := key(PlatformSpec{}), "CGL|3|RELIEF|0||0|000|00|nofault|0|0"; got != want {
		t.Fatalf("paper-platform key %q, want %q", got, want)
	}
	allOnes := map[string]int{}
	for k := accel.Kind(0); k < accel.NumKinds; k++ {
		allOnes[k.String()] = 1
	}
	spellings := [][]PlatformSpec{
		{
			{}, {BWPredictor: "max"}, {BWPredictor: "Max"}, {Topology: "bus"},
			{Instances: map[string]int{"elem-matrix": 1}}, {Instances: allOnes},
			{DRAMPolicy: "fcfs"}, {DRAMPolicy: "fr-fcfs"}, {DRAMChannels: 1},
			{OutputPartitions: 2}, {BusGBs: 14.9}, {DRAMGBs: 6.4},
			{SchedBaseNS: 120}, {SchedPerScanNS: 15},
		},
		{{BWPredictor: "average"}, {BWPredictor: "avg"}, {BWPredictor: "Average"}},
		{{BWPredictor: "ewma"}, {BWPredictor: "EWMA"}},
		{{BWPredictor: "last"}, {BWPredictor: "Last"}},
		{{DetailedDRAM: true}, {DetailedDRAM: true, DRAMChannels: 1}},
		{
			{DRAMGBs: 4, Instances: map[string]int{"isp": 2}},
			{DRAMGBs: 4, Instances: map[string]int{"isp": 2, "convolution": 1}},
		},
	}
	for _, group := range spellings {
		want := key(group[0])
		for _, p := range group[1:] {
			if got := key(p); got != want {
				t.Errorf("%+v keys as %q, want %q like %+v", p, got, want, group[0])
			}
		}
	}
}

func TestPlatformScenarioRuns(t *testing.T) {
	spec := PlatformSpec{
		Instances:    map[string]int{"elem-matrix": 2},
		DetailedDRAM: true,
	}
	mix, _ := workload.ParseMix("GL")
	res, err := Run(Scenario{Mix: mix, Contention: workload.Medium, Policy: "RELIEF", Platform: spec})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.NodesDone != 114+134 {
		t.Fatalf("nodes done = %d", res.Stats.NodesDone)
	}
	if res.RowHitRate == 0 {
		t.Error("detailed DRAM stats missing")
	}
	// Two EM instances must beat one on makespan for the all-EM mix.
	base, err := Run(Scenario{Mix: mix, Contention: workload.Medium, Policy: "RELIEF"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Makespan >= base.Stats.Makespan {
		t.Errorf("2 EM instances (%v) not faster than 1 (%v)",
			res.Stats.Makespan, base.Stats.Makespan)
	}
}

// TestSummaryPrintsResolvedTopology: the summary header reports the
// topology the platform resolves to.
func TestSummaryPrintsResolvedTopology(t *testing.T) {
	mix, _ := workload.ParseMix("C")
	var b bytes.Buffer
	sc := Scenario{Mix: mix, Contention: workload.Low, Policy: "RELIEF", Platform: PlatformSpec{Topology: "xbar"}}
	if err := WriteSummary(&b, sc, stats.New()); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(b.String(), "scenario: mix=C policy=RELIEF contention=low topology=xbar\n") {
		t.Errorf("summary header: %q", strings.SplitN(b.String(), "\n", 2)[0])
	}
}

// FuzzLoadPlatform: decoding never panics, an accepted spec's key agrees
// with whether it resolves, and re-encoding an accepted spec as JSON
// decodes to the same key.
func FuzzLoadPlatform(f *testing.F) {
	f.Add(platformJSON)
	for _, c := range platformRejects {
		f.Add(c)
	}
	f.Fuzz(func(t *testing.T, data string) {
		spec, err := LoadPlatform(strings.NewReader(data))
		if err != nil {
			return
		}
		key := ScenarioKey(Scenario{Policy: "RELIEF", Platform: spec})
		_, err = spec.Resolve(nil)
		if invalid := strings.Contains(key, "invalid platform"); invalid != (err != nil) {
			t.Fatalf("key %q disagrees with Resolve error %v", key, err)
		}
		js, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("marshal %+v: %v", spec, err)
		}
		again, err := LoadPlatform(bytes.NewReader(js))
		if err != nil {
			t.Fatalf("re-decode %s: %v", js, err)
		}
		if k := ScenarioKey(Scenario{Policy: "RELIEF", Platform: again}); k != key {
			t.Fatalf("round trip through %s changed key %q to %q", js, key, k)
		}
	})
}
