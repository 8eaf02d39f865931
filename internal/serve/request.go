// Package serve exposes the simulator as an HTTP/JSON service: a worker
// pool sized to the host executes scenario requests, identical in-flight
// requests are deduplicated (singleflight), and completed results are kept
// in a content-addressed LRU cache keyed by the canonical digest of the
// normalized request. The service adds backpressure (bounded admission
// queue, 429 + Retry-After), per-request timeouts and cancellation threaded
// into the simulation kernel, graceful drain, and a Prometheus /metrics
// endpoint built on internal/metrics.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"

	"relief/internal/exp"
	"relief/internal/fault"
	"relief/internal/sim"
	"relief/internal/workload"
)

// Request describes one simulation, mirroring relief-sim's flags. The zero
// value of every optional field means the same thing as the CLI default, so
// Normalize maps it to the canonical spelling before digesting: requests
// that differ only in how they spell a default hash identically.
type Request struct {
	// Mix is the application mix by symbols, e.g. "CGL".
	Mix string `json:"mix"`
	// Policy is the scheduling policy ("" = RELIEF).
	Policy string `json:"policy,omitempty"`
	// Continuous loops applications until the 50 ms horizon.
	Continuous bool `json:"continuous,omitempty"`
	// Topology is "bus" or "xbar" ("" = bus).
	Topology string `json:"topology,omitempty"`
	// BW is the bandwidth predictor: max, last, average, ewma ("" = max).
	BW string `json:"bw,omitempty"`
	// PredictDM enables the graph-analysis data-movement predictor.
	PredictDM bool `json:"predict_dm,omitempty"`
	// NoForwarding disables forwarding hardware.
	NoForwarding bool `json:"no_forwarding,omitempty"`
	// DetailedDRAM swaps in the bank-level LPDDR5 controller; DRAMFCFS
	// demotes its scheduler to FCFS.
	DetailedDRAM bool `json:"detailed_dram,omitempty"`
	DRAMFCFS     bool `json:"dram_fcfs,omitempty"`
	// FaultRate in [0,1] enables fault injection (0 = off) with FaultSeed
	// seeding the injection PRNG (0 = the CLI default seed 1).
	FaultRate float64 `json:"fault_rate,omitempty"`
	FaultSeed int64   `json:"fault_seed,omitempty"`
	// PeriodMS selects periodic release (relief-sim's -period): a fresh
	// instance of each mix application every period until HorizonMS
	// (0 = the 50 ms default). Periodic requests take precedence over
	// Continuous.
	PeriodMS  float64 `json:"period_ms,omitempty"`
	HorizonMS float64 `json:"horizon_ms,omitempty"`
	// Metrics attaches a telemetry registry and returns its
	// relief-metrics/1 JSON document in the response.
	Metrics bool `json:"metrics,omitempty"`
	// TimeoutMS bounds this request's simulation wall time. It is a
	// delivery knob, not part of the scenario: it is excluded from the
	// digest, and deduplicated joiners share the first requester's budget.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Trace captures the kernel's simulated-time events for this request's
	// distributed trace (GET /trace/{id} returns them alongside the
	// wall-clock service spans). Like TimeoutMS it is a delivery knob,
	// excluded from the digest: it changes what is recorded, never what is
	// simulated, and joiners share the creating request's setting. Events
	// are only captured when the request actually runs the kernel locally
	// (source "run") — cache, disk, and peer answers have no kernel leg.
	Trace bool `json:"trace,omitempty"`
}

// decodeStrict decodes one JSON request body into v, rejecting unknown
// fields so a misspelled option fails loudly instead of being ignored.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// Normalize rewrites defaultable fields to their canonical spelling and
// validates the request. It must be called before Digest or Scenario.
func (r *Request) Normalize() error {
	apps, err := workload.ParseMix(r.Mix)
	if err != nil {
		return err
	}
	if len(apps) < 1 || len(apps) > 3 {
		return fmt.Errorf("serve: mix %q has %d applications, want 1-3", r.Mix, len(apps))
	}
	if r.Policy == "" {
		r.Policy = "RELIEF"
	}
	if _, err := exp.NewPolicy(r.Policy); err != nil {
		return err
	}
	switch r.Topology {
	case "":
		r.Topology = "bus"
	case "bus", "xbar":
	default:
		return fmt.Errorf("serve: unknown topology %q", r.Topology)
	}
	switch r.BW {
	case "":
		r.BW = "max"
	case "max", "last", "average", "ewma":
	default:
		return fmt.Errorf("serve: unknown bandwidth predictor %q", r.BW)
	}
	if r.FaultRate < 0 || r.FaultRate > 1 {
		return fmt.Errorf("serve: fault rate %v outside [0,1]", r.FaultRate)
	}
	if r.FaultRate == 0 {
		r.FaultSeed = 0 // seed is meaningless without injection
	} else if r.FaultSeed == 0 {
		r.FaultSeed = 1 // the CLI's default seed
	}
	if r.PeriodMS < 0 {
		return fmt.Errorf("serve: negative period %vms", r.PeriodMS)
	}
	if r.HorizonMS < 0 {
		return fmt.Errorf("serve: negative horizon %vms", r.HorizonMS)
	}
	if r.PeriodMS == 0 {
		r.HorizonMS = 0 // horizon is meaningless without periodic release
	}
	if r.TimeoutMS < 0 {
		return fmt.Errorf("serve: negative timeout %dms", r.TimeoutMS)
	}
	return nil
}

// Digest returns the canonical content address of the normalized request:
// a sha256 over the scenario's canonical key (exp.AppendScenarioKey — the
// exact bytes exp.Sweep memoizes on, so the serving cache and the sweep
// cache can never key the same scenario differently) plus the metrics bit.
// JSON field order, whitespace, and defaulted-vs-omitted fields cannot
// change it. TimeoutMS is excluded — it shapes delivery, not the result.
func (r *Request) Digest() string {
	b := []byte("relief-serve/2|")
	sc, err := r.Scenario()
	if err != nil {
		// Unreachable after a successful Normalize (Scenario re-parses the
		// same mix); folding the error in keeps the function total without
		// ever colliding with a real scenario key.
		b = append(b, "invalid|"...)
		b = append(b, err.Error()...)
	} else {
		b = exp.AppendScenarioKey(b, sc)
	}
	b = append(b, '|')
	b = appendBool(b, r.Metrics)
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, '1')
	}
	return append(b, '0')
}

// Scenario maps the normalized request onto the experiment harness exactly
// the way relief-sim maps its flags, so served results match the CLI's.
func (r *Request) Scenario() (exp.Scenario, error) {
	apps, err := workload.ParseMix(r.Mix)
	if err != nil {
		return exp.Scenario{}, err
	}
	sc := exp.Scenario{
		Mix:        apps,
		Contention: workload.Contention(len(apps)),
		Policy:     r.Policy,
		Platform: exp.PlatformSpec{
			Topology:          r.Topology,
			BWPredictor:       r.BW,
			PredictDM:         r.PredictDM,
			DisableForwarding: r.NoForwarding,
			DetailedDRAM:      r.DetailedDRAM,
		},
	}
	if r.DRAMFCFS {
		sc.Platform.DRAMPolicy = "fcfs"
	}
	if r.FaultRate > 0 {
		sc.Faults = fault.Profile(r.FaultRate, r.FaultSeed)
	}
	if r.Continuous {
		sc.Contention = workload.Continuous
	}
	if r.PeriodMS > 0 {
		sc.Period = msToTime(r.PeriodMS)
		sc.Horizon = msToTime(r.HorizonMS)
	}
	return sc, nil
}

// msToTime converts a fractional-millisecond knob to simulated time
// (integer picoseconds; fractions below 1 ps truncate).
func msToTime(ms float64) sim.Time { return sim.Time(ms * float64(sim.Millisecond)) }
