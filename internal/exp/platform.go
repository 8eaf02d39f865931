package exp

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"relief/internal/accel"
	"relief/internal/dram"
	"relief/internal/manager"
	"relief/internal/mem"
	"relief/internal/predict"
	"relief/internal/sched"
	"relief/internal/sim"
	"relief/internal/xbar"
)

// PlatformSpec is the simulator's one platform description, JSON-loadable
// in the role of gem5's configuration scripts: accelerator instance
// counts, scratchpad buffering, interconnect, memory system, predictors
// and manager cost model. The zero value is the paper's platform
// (Table VI); every zero field keeps its default. Resolve is the only way
// a platform becomes a manager configuration.
type PlatformSpec struct {
	// Instances maps accelerator names (e.g. "elem-matrix") to instance
	// counts.
	Instances map[string]int `json:"instances,omitempty"`
	// OutputPartitions is the per-accelerator output buffering (default 2).
	OutputPartitions int `json:"output_partitions,omitempty"`
	// Topology is "bus" (default) or "xbar".
	Topology string `json:"topology,omitempty"`
	// BusGBs and DRAMGBs override the link/memory bandwidths (GB/s).
	BusGBs  float64 `json:"bus_gbs,omitempty"`
	DRAMGBs float64 `json:"dram_gbs,omitempty"`
	// DetailedDRAM enables the bank-level LPDDR5 controller;
	// DRAMPolicy is "fr-fcfs" (default) or "fcfs"; DRAMChannels > 1 adds
	// interleaved channels.
	DetailedDRAM bool   `json:"detailed_dram,omitempty"`
	DRAMPolicy   string `json:"dram_policy,omitempty"`
	DRAMChannels int    `json:"dram_channels,omitempty"`
	// BWPredictor is "max" (default), "last", "average", or "ewma";
	// PredictDM enables the graph-analysis data-movement predictor.
	BWPredictor string `json:"bw_predictor,omitempty"`
	PredictDM   bool   `json:"predict_dm,omitempty"`
	// DisableForwarding turns the forwarding hardware off (Table II).
	DisableForwarding bool `json:"disable_forwarding,omitempty"`
	// AlwaysWriteBack disables deferred write-back (ablation).
	AlwaysWriteBack bool `json:"always_write_back,omitempty"`
	// SchedBaseNS / SchedPerScanNS override the manager's modeled
	// microcontroller cost (nanoseconds).
	SchedBaseNS    float64 `json:"sched_base_ns,omitempty"`
	SchedPerScanNS float64 `json:"sched_per_scan_ns,omitempty"`
}

// LoadPlatform parses a PlatformSpec from JSON, rejecting unknown fields.
// Values are checked by Resolve.
func LoadPlatform(r io.Reader) (PlatformSpec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var p PlatformSpec
	if err := dec.Decode(&p); err != nil {
		return PlatformSpec{}, fmt.Errorf("exp: platform spec: %w", err)
	}
	return p, nil
}

// Resolve builds the manager configuration the spec describes around
// policy. It rejects unknown names and negative values rather than
// falling back to defaults.
func (p PlatformSpec) Resolve(policy sched.Policy) (manager.Config, error) {
	cfg := manager.DefaultConfig(policy)
	if p.OutputPartitions < 0 || p.BusGBs < 0 || p.DRAMGBs < 0 || p.DRAMChannels < 0 || p.SchedBaseNS < 0 || p.SchedPerScanNS < 0 {
		return cfg, fmt.Errorf("exp: negative value in platform spec %+v", p)
	}
	known := 0
	for k := accel.Kind(0); k < accel.NumKinds; k++ {
		if n, ok := p.Instances[k.String()]; ok {
			cfg.Instances[k] = n
			known++
		}
	}
	if known < len(p.Instances) || slices.Min(cfg.Instances[:]) < 1 {
		return cfg, fmt.Errorf("exp: instances %v: unknown accelerator or count below 1", p.Instances)
	}
	if p.OutputPartitions > 0 {
		cfg.OutputPartitions = p.OutputPartitions
	}
	switch p.Topology {
	case "", "bus":
	case "xbar":
		cfg.Interconnect.Topology = xbar.Crossbar
	default:
		return cfg, fmt.Errorf("exp: unknown topology %q", p.Topology)
	}
	if p.BusGBs > 0 {
		cfg.Interconnect.BusBandwidth = p.BusGBs * mem.GB
	}
	if p.DRAMGBs > 0 {
		cfg.Interconnect.DRAMBandwidth = p.DRAMGBs * mem.GB
	}
	cfg.DetailedDRAM = p.DetailedDRAM
	switch p.DRAMPolicy {
	case "", "fr-fcfs":
	case "fcfs":
		cfg.DRAMPolicy = dram.FCFS
	default:
		return cfg, fmt.Errorf("exp: unknown dram policy %q", p.DRAMPolicy)
	}
	if p.DRAMChannels > 1 && !p.DetailedDRAM {
		return cfg, fmt.Errorf("exp: dram_channels requires detailed_dram")
	}
	cfg.DRAMChannels = p.DRAMChannels
	if p.BWPredictor != "" {
		bw, err := predict.NewBW(p.BWPredictor, cfg.Interconnect.DRAMBandwidth)
		if err != nil {
			return cfg, err
		}
		cfg.BW = bw
	}
	if p.PredictDM {
		cfg.DM = predict.DMPredict
	}
	cfg.DisableForwarding = p.DisableForwarding
	cfg.AlwaysWriteBack = p.AlwaysWriteBack
	if p.SchedBaseNS > 0 {
		cfg.SchedBase = sim.Time(p.SchedBaseNS * float64(sim.Nanosecond))
	}
	if p.SchedPerScanNS > 0 {
		cfg.SchedPerScan = sim.Time(p.SchedPerScanNS * float64(sim.Nanosecond))
	}
	return cfg, nil
}

// paperPlatform is the resolved zero spec.
var paperPlatform, _ = PlatformSpec{}.Resolve(nil)

// appendKey appends the canonical encoding of the resolved platform, so
// all spellings of one platform encode identically. The leading positions
// keep the encoding they had before the spec was part of the key; the
// tail of instances, bandwidths, channels and manager costs is appended
// only when it differs from the paper platform. A spec that does not
// resolve never runs, so its encoding only has to differ from the rest.
func (p PlatformSpec) appendKey(b []byte) []byte {
	cfg, err := p.Resolve(nil)
	if err != nil {
		b = append(b, "invalid platform: "...)
		return append(b, err.Error()...)
	}
	return appendPlatformKey(b, cfg)
}

// appendPlatformKey appends the canonical encoding of the platform a
// resolved configuration describes (see appendKey); the policy, observers
// and fault plan are not part of it.
func appendPlatformKey(b []byte, cfg manager.Config) []byte {
	b = strconv.AppendInt(b, int64(cfg.Interconnect.Topology), 10)
	b = append(b, '|')
	if _, isMax := cfg.BW.(*predict.Max); cfg.BW != nil && !isMax {
		b = append(b, strings.ToLower(cfg.BW.Name())...)
	}
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(cfg.DM), 10)
	b = append(b, '|')
	b = appendBool(b, cfg.DisableForwarding)
	b = appendBool(b, cfg.AlwaysWriteBack)
	partitions := cfg.OutputPartitions
	if partitions == paperPlatform.OutputPartitions {
		partitions = 0
	}
	b = strconv.AppendInt(b, int64(partitions), 10)
	b = append(b, '|')
	b = appendBool(b, cfg.DetailedDRAM)
	b = appendBool(b, cfg.DetailedDRAM && cfg.DRAMPolicy == dram.FCFS)
	channels := max(cfg.DRAMChannels, 1) // 0 and 1 both mean one channel
	ic, def := cfg.Interconnect, paperPlatform.Interconnect
	if cfg.Instances != paperPlatform.Instances || ic.BusBandwidth != def.BusBandwidth || ic.DRAMBandwidth != def.DRAMBandwidth ||
		channels != 1 || cfg.SchedBase != paperPlatform.SchedBase || cfg.SchedPerScan != paperPlatform.SchedPerScan {
		// ';' cannot start the fault position that follows; %g is the
		// shortest exact rendering of a float64.
		b = fmt.Appendf(b, ";%d;%g;%g;%d;%d;%d", cfg.Instances, ic.BusBandwidth, ic.DRAMBandwidth,
			channels, int64(cfg.SchedBase), int64(cfg.SchedPerScan))
	}
	return b
}
